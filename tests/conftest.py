import pytest

from menon_subsets import build_sieve


@pytest.fixture(scope="session")
def sieve():
    return build_sieve(1200)


@pytest.fixture(scope="session")
def small_sieve():
    return build_sieve(64)


@pytest.fixture
def mask_gcd_calls(monkeypatch):
    """Every mask the oracles' per-subset gcd is taken of, in call order."""
    import menon_subsets.oracle as oracle_mod

    calls = []
    mask_gcd = oracle_mod._mask_gcd

    def counted(mask):
        calls.append(mask)
        return mask_gcd(mask)

    monkeypatch.setattr(oracle_mod, "_mask_gcd", counted)
    return calls
