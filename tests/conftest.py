import tracemalloc

from hypothesis import settings

# Property tests draw the same examples on every run and never fail on a
# slow machine: tier-1 stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
