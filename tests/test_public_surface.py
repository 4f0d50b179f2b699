import functools
import inspect

import menon_subsets
from menon_subsets import cli, counts, menon, oracle, sieve, verification


def test_every_exported_name_exists_once():
    names = menon_subsets.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(menon_subsets, name)] == []


def test_the_benchmark_tracer_finds_its_targets():
    # The benchmark's traced runs (perfbench/tracing.py) bind these names
    # from outside the package, by the same lookups as here; a name that is
    # gone turns its per-layer metrics absent while the run still exits 0.
    assert inspect.isfunction(menon.evaluate)
    cache = counts.MemoCache()
    assert (cache.hits, cache.misses) == (0, 0)
    # Of the tracer's four count names, the k-forms were merged into these
    # two; the tracer needs at least one of them.
    assert all(inspect.isfunction(getattr(counts, name))
               for name in ("relprime_subsets", "coprime_subsets"))
    assert inspect.isfunction(sieve.build_sieve)
    assert isinstance(inspect.getattr_static(sieve.SieveTables, "mertens"),
                      functools.cached_property)
    own = [name for name, fn in vars(oracle).items()
           if inspect.isfunction(fn) and fn.__module__ == oracle.__name__]
    assert any(name.startswith("enumerate_") for name in own)
    assert any(name.startswith("gcd_class_") for name in own)
    assert inspect.isfunction(verification.run_verification)
    assert inspect.isfunction(cli.main)
    assert all(inspect.isfunction(inspect.getattr_static(cli.SequenceTable, fmt))
               for fmt in ("to_csv", "to_json"))
