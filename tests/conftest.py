"""Hypothesis runs derandomized with a bounded number of examples, so the
property tests are deterministic and quick; no example database is kept.
The `unbuilt` fixture guards the tests of refused orders."""

import pytest
from hypothesis import settings

from xsit import surface as surf

settings.register_profile("deterministic", derandomize=True, max_examples=15,
                          deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def unbuilt(monkeypatch):
    """Fails the test if an order above 64 reaches a vertex or face count
    or a patch size, or if any icosphere is subdivided: a refused order is
    refused before any power of it, and nothing is built."""
    def bounded(f):  # its first argument is the order it raises 2 or 4 to
        def wrapped(*orders):
            assert orders[0] <= 64, f"{f.__name__}{orders} computed"
            return f(*orders)
        return wrapped

    def refuse(*args):
        raise AssertionError("an icosphere was subdivided")

    for name in ("vertex_count", "face_count", "patch_size"):
        monkeypatch.setattr(surf, name, bounded(getattr(surf, name)))
    monkeypatch.setattr(surf, "_subdivide", refuse)
