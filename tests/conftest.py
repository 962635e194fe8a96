"""Suite-wide test marks.

Every test of ``test_acceptance.py`` is marked ``slow``: its offdiag fixture
runs the full acceptance grid and takes most of the suite's time.
``pytest -m "not slow"`` runs everything else.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
