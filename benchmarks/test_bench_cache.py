"""Cross-probe cache micro-benchmark: probe-count x enumeration-cost.

Runs an identical batch workload (several instances, both search
strategies) twice — once cacheless, once with one shared
:class:`repro.core.probe_cache.ProbeCache` — with a tracer attached to
both passes, and reports:

* the configuration-enumeration and DP-fill work each pass performed
  (from the tracer's deterministic counters),
* the cache's DP hit rate,
* the measured wall-clock speedup,

while asserting the two passes produced **bit-identical schedules**.
The report lands in ``benchmarks/results/cache.txt`` (``-reduced``
suffix for quick runs); ``docs/PERFORMANCE.md`` documents how to
reproduce and read it.

Run: ``pytest benchmarks/test_bench_cache.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.core.instance import uniform_instance
from repro.core.probe_cache import ProbeCache
from repro.core.ptas import ptas_schedule
from repro.observability import Tracer
from repro.util.timing import Timer


def _workload(full: bool):
    seeds = range(10) if full else range(4)
    n, m = (60, 8) if full else (30, 5)
    return [uniform_instance(n, m, low=3, high=120, seed=s) for s in seeds]


def _run_batch(instances, cache):
    """One pass over the batch; returns (results, tracer, wall_seconds)."""
    tracer = Tracer()
    results = []
    with Timer() as timer:
        with tracer.activate():
            for inst in instances:
                for search in ("bisection", "quarter"):
                    results.append(
                        ptas_schedule(inst, eps=0.25, search=search, cache=cache)
                    )
    return results, tracer, timer.elapsed


@pytest.mark.benchmark(group="cache")
def test_cross_probe_cache_speedup(benchmark, save_report, full):
    instances = _workload(full)

    base_results, base_tracer, base_s = _run_batch(instances, cache=None)

    cache = ProbeCache()
    cached_results, cached_tracer, cached_s = benchmark.pedantic(
        _run_batch,
        args=(instances,),
        kwargs=dict(cache=cache),
        rounds=1,
        iterations=1,
    )

    # -- correctness: bit-identical outcomes ------------------------------
    assert len(cached_results) == len(base_results)
    for plain, hit in zip(base_results, cached_results):
        assert hit.final_target == plain.final_target
        assert hit.makespan == plain.makespan
        assert hit.schedule.assignment == plain.schedule.assignment

    # -- the work reduction (deterministic counters) ----------------------
    def work(tracer):
        c = tracer.counters
        return {
            "probes": int(c.get("probe.count", 0)),
            "enumerations": int(c.get("configs.enumerations", 0)),
            "config_vectors": int(c.get("configs.vectors", 0)),
            "dp_fills": int(c.get("dp.vectorized.calls", 0)),
            "dp_config_passes": int(c.get("dp.vectorized.config_passes", 0)),
        }

    base_work, cached_work = work(base_tracer), work(cached_tracer)
    dp_rate = cache.stats.hit_rate("dp")
    speedup = base_s / cached_s if cached_s > 0 else float("inf")

    assert cache.stats.total_hits > 0, "cache never hit on the batch workload"
    assert dp_rate > 0.0
    assert cached_work["enumerations"] < base_work["enumerations"]
    assert cached_work["dp_fills"] < base_work["dp_fills"]

    # -- report -----------------------------------------------------------
    lines = [
        "Cross-probe solver cache: identical batch, cacheless vs shared cache",
        f"workload: {len(instances)} instances x 2 searches (bisection + quarter), eps=0.25",
        "",
        f"{'quantity':<28} {'cacheless':>12} {'cached':>12} {'saved':>8}",
    ]
    for key in base_work:
        b, c = base_work[key], cached_work[key]
        saved = (1 - c / b) if b else 0.0
        lines.append(f"{key:<28} {b:>12,} {c:>12,} {saved:>7.1%}")
    lines += [
        "",
        f"cache hit rate: dp {dp_rate:.1%}",
        f"wall time: cacheless {base_s:.3f}s, cached {cached_s:.3f}s "
        f"-> speedup {speedup:.2f}x",
        "",
        "Schedules verified bit-identical across the two passes "
        "(final_target, makespan, job assignment).",
    ]
    save_report("cache", "\n".join(lines))

    benchmark.extra_info.update(
        dp_hit_rate=round(dp_rate, 4),
        speedup=round(speedup, 3),
        enumerations_saved=base_work["enumerations"] - cached_work["enumerations"],
    )
