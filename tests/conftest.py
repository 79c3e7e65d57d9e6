from hypothesis import settings

# Fixed example sequence and no example database, so property tests draw the
# same cases on every run; no per-example deadline, since a loaded host can
# stall any single example.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
