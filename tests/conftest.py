import pytest

from catalan_ode import identities


@pytest.fixture(autouse=True)
def fresh_ode_tables():
    """Each test starts with no memoised `ode_table`, so a spy or a patched
    kernel sees the table built, whatever ran before."""
    identities.ode_table.cache_clear()
