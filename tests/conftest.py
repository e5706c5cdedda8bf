from hypothesis import settings

# Property tests draw the same examples on every run and never fail on a
# slow machine: tier-1 stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
