"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; the self-test
checks that the two agree.
"""

END_TO_END = {
    # Times are in reference seconds (calibration.py).
    "wall_s": ("s", "lower"),  # sum over jobs of each job's median over passes
    "slowest_job_s": ("s", "lower"),  # the largest of those per-job medians
    "peak_rss_mib": ("MiB", "lower"),  # peak resident memory of the workload process
    "ok_frac": ("frac", "higher"),  # 1 - failed_frac
    "setup_s": ("s", "lower"),  # interpreter start to the first timed job, median
}

PER_LAYER = {
    "sieve.build_s": ("s", "lower"),
    "sieve.mertens_s": ("s", "lower"),
    "sieve.limit": ("count", "lower"),
    "counts.calls": ("count", "lower"),
    "counts.cache_hits": ("count", "higher"),
    "counts.cache_misses": ("count", "lower"),
    "counts.hit_ratio": ("ratio", "higher"),
    "counts.miss_s": ("s", "lower"),
    "menon.evaluate_s": ("s", "lower"),
    "menon.self_s": ("s", "lower"),
    "menon.divisor_pairs": ("count", "lower"),
    "menon.result_bits": ("count", "lower"),
    "menon.bigint_s": ("s", "lower"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.masks": ("count", "lower"),
    "oracle.gcd_class_s": ("s", "lower"),
    "verification.checks": ("count", "higher"),
    "verification.checks_failed": ("count", "lower"),
    "cli.render_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
