import pytest

from menon_subsets import build_sieve


@pytest.fixture(scope="session")
def sieve():
    return build_sieve(1200)


@pytest.fixture(scope="session")
def small_sieve():
    return build_sieve(64)


@pytest.fixture
def subset_walks(monkeypatch):
    """(n, k, subsets walked) for every walk the oracles make, in call order."""
    import menon_subsets.oracle as oracle_mod

    walks = []
    subset_gcds = oracle_mod._subset_gcds

    def counted(n, k):
        gcds = list(subset_gcds(n, k))
        walks.append((n, k, len(gcds)))
        return gcds

    monkeypatch.setattr(oracle_mod, "_subset_gcds", counted)
    return walks
