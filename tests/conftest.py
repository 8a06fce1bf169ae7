import pytest

from catalan_ode import identities


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test starts with no memoised `series_table`, `ring_table` or ring
    derivative, so a spy or a patched kernel sees the table built, whatever
    ran before."""
    identities.series_table.cache_clear()
    identities.ring_table.cache_clear()
    identities._ring_derivative.cache_clear()
