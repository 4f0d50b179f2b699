"""Spans around the library's public calls, recorded from outside the library.

The library modules import each other's functions by name (`from .counts
import relprime_subsets`), so a wrapper on `counts.relprime_subsets` alone
would intercept nothing.  `Tracer.install` instead replaces every binding of
a target object in every loaded module of the package, and `uninstall`
restores them.  A target that no longer exists is recorded in `absent`, and
the metrics that depend on it are reported as absent.

A span is (id, parent id, name, start, end, self seconds); self time is the
span's duration minus the time its child spans cover.  Count calls that hit
the cache are not kept one by one: their time is charged to the enclosing
span as child time and they are counted in `calls`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from time import perf_counter

PACKAGE = "menon_subsets"
COUNT_FUNCTIONS = ("relprime_subsets", "relprime_k_subsets", "coprime_subsets",
                   "coprime_k_subsets")


def divisor_pairs(n: int) -> int:
    """Pairs (d, delta) of divisors of n with delta squarefree and gcd(d, delta) = 1.

    A prime p with p^a || n either divides delta (then not d) or not (then
    d takes one of a + 1 powers of p), so the count is the product of a + 2.
    """
    pairs, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            pairs *= a + 2
        p += 1
    return pairs * 3 if n > 1 else pairs


class Tracer:
    """Wrappers around the package's public calls and the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.caches: list = []
        self.absent: set[str] = set()
        self._stack: list[list] = []  # open spans: [id, start, child seconds]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []  # (owner, attribute, original, replacement)

    # -- recording -----------------------------------------------------------

    def _enter(self) -> list:
        frame = [next(self._ids), perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, keep: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        if self._stack:
            self._stack[-1][2] += end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        if keep:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((span_id, parent, name, start, end, end - start - child))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset_counts(self) -> None:
        self.calls = {}
        self.counters = {}
        self.caches = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, original, observe=None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _wrap_count(self, name, original):
        params = list(inspect.signature(original).parameters)
        at = params.index("cache") if "cache" in params else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            cache = args[at] if at is not None and len(args) > at else kwargs.get("cache")
            hits = getattr(cache, "hits", None)
            frame = self._enter()
            try:
                return original(*args, **kwargs)
            finally:
                # A call is kept as a span unless the cache answered it.
                self._exit(name, frame, keep=hits is None or cache.hits == hits)

        return traced

    def _recording_cache(self, original):
        tracer = self

        class RecordedCache(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.caches.append(self)

        return RecordedCache

    # -- installation --------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, replacement))

    def _target(self, module: str, attr: str, label: str):
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        value = getattr(owner, attr, None)
        if value is None:
            self.absent.add(label)
        return value

    def _method(self, module: str, cls: str, attr: str, label: str, make) -> None:
        owner = self._target(module, cls, label)
        original = inspect.getattr_static(owner, attr, None) if owner else None
        if original is None:
            self.absent.add(label)
            return
        self._patches.append((owner, attr, original, make(original)))

    def prepare(self) -> None:
        """Build every wrapper once; `install` and `uninstall` then only rebind."""
        build = self._target("sieve", "build_sieve", "sieve.build")
        if build:
            self._rebind(build, self._wrap("sieve.build", build, self._observe_sieve))

        def mertens(prop):
            if not isinstance(prop, functools.cached_property):
                self.absent.add("sieve.mertens")
                return prop
            wrapped = functools.cached_property(self._wrap("sieve.mertens", prop.func))
            wrapped.__set_name__(None, prop.attrname)
            return wrapped

        self._method("sieve", "SieveTables", "mertens", "sieve.mertens", mertens)

        found = False
        for fname in COUNT_FUNCTIONS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.counts"), fname, None)
            if fn is not None:
                found = True
                self._rebind(fn, self._wrap_count(f"counts.{fname}", fn))
        if not found:
            self.absent.add("counts")
        cache_cls = self._target("counts", "MemoCache", "counts.cache")
        if cache_cls:
            self._rebind(cache_cls, self._recording_cache(cache_cls))

        evaluate = self._target("menon", "evaluate", "menon.evaluate")
        if evaluate:
            self._rebind(evaluate, self._wrap("menon.evaluate", evaluate, self._observe_evaluate))

        oracle = sys.modules.get(f"{PACKAGE}.oracle")
        kinds = {"oracle.enumerate": False, "oracle.gcd_class": False}
        for fname, fn in sorted(vars(oracle).items() if oracle else ()):
            if not inspect.isfunction(fn) or fn.__module__ != oracle.__name__:
                continue
            if fname.startswith("enumerate_") or fname == "subset_gcd_histogram":
                kinds["oracle.enumerate"] = True
                self._rebind(fn, self._wrap(f"oracle.enumerate.{fname}", fn, self._observe_masks))
            elif fname.startswith("gcd_class_"):
                kinds["oracle.gcd_class"] = True
                self._rebind(fn, self._wrap(f"oracle.gcd_class.{fname}", fn))
        self.absent.update(label for label, seen in kinds.items() if not seen)

        run = self._target("verification", "run_verification", "verification.run")
        if run:
            self._rebind(run, self._wrap("verification.run", run))
        main = self._target("cli", "main", "cli.main")
        if main:
            self._rebind(main, self._wrap("cli.main", main))
        for fmt in ("to_csv", "to_json"):
            self._method("cli", "SequenceTable", fmt, "cli.render",
                         lambda fn: self._wrap("cli.render", fn))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- observers (run after the span closes) -------------------------------

    def _observe_sieve(self, args, kwargs, result) -> None:
        limit = getattr(result, "limit", 0)
        self.counters["sieve.limit"] = max(self.counters.get("sieve.limit", 0), limit)

    def _observe_evaluate(self, args, kwargs, result) -> None:
        params = args[0] if args else kwargs.get("params")
        self.count("menon.divisor_pairs", divisor_pairs(params.n))
        self.count("menon.result_bits", result.bit_length())

    def _observe_masks(self, args, kwargs, result) -> None:
        n = args[0] if args else kwargs["n"]
        self.count("oracle.masks", (1 << n) - 1)


# The trace target each per-layer metric is read from; if that target is in
# `Tracer.absent`, the metric is reported as absent.
NEEDS = {
    "sieve.build_s": "sieve.build",
    "sieve.mertens_s": "sieve.mertens",
    "sieve.limit": "sieve.build",
    "counts.calls": "counts",
    "counts.cache_hits": "counts.cache",
    "counts.cache_misses": "counts.cache",
    "counts.hit_ratio": "counts.cache",
    "counts.miss_s": "counts",
    "menon.evaluate_s": "menon.evaluate",
    "menon.self_s": "menon.evaluate",
    "menon.divisor_pairs": "menon.evaluate",
    "menon.result_bits": "menon.evaluate",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.masks": "oracle.enumerate",
    "oracle.gcd_class_s": "oracle.gcd_class",
    "cli.render_s": "cli.render",
}


def layer_metrics(tracer: Tracer, spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals over `spans` and the calls, counters and caches since
    the last `reset_counts`.  Times are summed span durations, except the two
    self times."""
    duration: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for _, _, name, start, end, own in spans:
        key = ".".join(name.split(".")[:2])
        duration[key] = duration.get(key, 0.0) + (end - start)
        self_s[key] = self_s.get(key, 0.0) + own
    hits = sum(cache.hits for cache in tracer.caches)
    misses = sum(cache.misses for cache in tracer.caches)
    counter = tracer.counters.get
    return {
        "sieve.build_s": duration.get("sieve.build", 0.0),
        "sieve.mertens_s": duration.get("sieve.mertens", 0.0),
        "sieve.limit": counter("sieve.limit", 0),
        "counts.calls": sum(c for name, c in tracer.calls.items() if name.startswith("counts.")),
        "counts.cache_hits": hits,
        "counts.cache_misses": misses,
        "counts.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        # Count calls kept as spans are the ones the cache did not answer.
        "counts.miss_s": sum(s for key, s in self_s.items() if key.startswith("counts.")),
        "menon.evaluate_s": duration.get("menon.evaluate", 0.0),
        "menon.self_s": self_s.get("menon.evaluate", 0.0),
        "menon.divisor_pairs": counter("menon.divisor_pairs", 0),
        "menon.result_bits": counter("menon.result_bits", 0),
        "oracle.enumerate_s": duration.get("oracle.enumerate", 0.0),
        "oracle.masks": counter("oracle.masks", 0),
        "oracle.gcd_class_s": duration.get("oracle.gcd_class", 0.0),
        "cli.render_s": duration.get("cli.render", 0.0),
    }
