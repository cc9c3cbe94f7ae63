try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Seeded from each test's source, so every run draws the same examples;
    # nothing is saved between runs.
    settings.register_profile("carev", derandomize=True, deadline=None, database=None)
    settings.load_profile("carev")
