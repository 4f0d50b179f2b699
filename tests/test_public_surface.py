from pathlib import Path

import menon_subsets
from menon_subsets import cli, counts, verification  # noqa: F401  (loaded: the tracer binds them)


def test_every_exported_name_exists_once():
    names = menon_subsets.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(menon_subsets, name)] == []


def test_the_benchmark_tracer_finds_its_targets(monkeypatch):
    # The benchmark's traced runs bind the package's names from outside it; a
    # name that is gone turns its per-layer metrics absent while the run still
    # exits 0.  Building the wrappers installs none of them.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.prepare()
    assert tracer.absent == set()
    # The tracer records each memo through a subclass of MemoCache.
    cache = tracer._recording_cache(counts.MemoCache)()
    assert tracer.caches == [cache]
    assert (cache.hits, cache.misses) == (0, 0)
    cache[("mobius", 5, None)] = 1
    assert (len(cache), list(cache.items())) == (1, [(("mobius", 5, None), 1)])
