"""Hypothesis runs derandomized with a bounded number of examples, so the
property tests are deterministic and quick; no example database is kept."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=15,
                          deadline=None, database=None)
settings.load_profile("deterministic")
