import contextlib
import tracemalloc
from unittest import mock

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


# The integrator's two kernels: the compiled mirror of rk4's whole uniform
# step, projection included, where it builds (the default), and the Python
# rk4 alone, as on a machine with no C compiler.  Their outputs must be the
# same bytes.
KERNELS = ("native", "python")


def kernel(name):
    """A context in which integrate_separatrix runs the kernel name."""
    if name == "native":
        return contextlib.nullcontext()
    return mock.patch("riccisym.potential._native", lambda: None)
