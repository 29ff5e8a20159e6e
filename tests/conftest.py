"""Fixtures shared by the test modules."""

import pytest

from nommon import sets


class NoMemo(dict):
    """A product memo that keeps nothing: every product is built."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture
def cold_products(monkeypatch):
    """Every ``product_set`` call of the test enumerates its product
    afresh, whatever products earlier tests left alive. The memo holds
    no state, so it may serve every example of a ``hypothesis`` test."""
    monkeypatch.setattr(sets, "_PRODUCTS", NoMemo())
