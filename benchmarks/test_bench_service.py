"""Service benchmark: latency under an open-loop Poisson workload.

Starts the always-on :class:`~repro.service.daemon.SchedulingService`
and drives it with the :mod:`repro.service.loadgen` harness — arrivals
on a Poisson clock that does **not** wait for responses (the open-loop
discipline; a closed loop would hide queueing delay behind coordinated
omission).  A fraction of the arrivals duplicate earlier instances, so
the run also measures how much work request coalescing absorbs.

Headline numbers — bound-stage and refined-stage latency percentiles
(p50/p95/p99), the coalescing hit rate, and the bound-first contract
(must be violation-free) — land in
``benchmarks/results/BENCH_service.json`` (``REPRO_BENCH_FULL=1``; a
reduced run writes ``BENCH_service-reduced.json``); docs/PERFORMANCE.md
and docs/SERVICE.md explain how to read them.

Run: ``pytest benchmarks/test_bench_service.py --benchmark-only``
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import LoadProfile, SchedulingService, generate_arrivals, run_load


def _profile(full: bool) -> LoadProfile:
    # High arrival rate relative to the ~5-15 ms pipeline keeps several
    # requests in flight at once — the regime where coalescing and the
    # priority queue actually matter.
    if full:
        return LoadProfile(
            requests=256, arrival_rate_hz=400.0, jobs=30, machines=5,
            duplicate_fraction=0.4, seed=11,
        )
    return LoadProfile(
        requests=48, arrival_rate_hz=400.0, jobs=20, machines=4,
        duplicate_fraction=0.4, seed=11,
    )


def _run(profile: LoadProfile, workers: int):
    async def scenario():
        service = SchedulingService(workers=workers)
        async with service:
            return await run_load(service, profile)

    return asyncio.run(scenario())


@pytest.mark.benchmark(group="service")
def test_service_latency_under_load(benchmark, results_dir, full):
    profile = _profile(full)
    workers = 4
    report = benchmark.pedantic(
        _run, args=(profile, workers), rounds=1, iterations=1
    )

    # -- the service contract ----------------------------------------------
    assert report.submitted == profile.requests
    assert report.bound_first_violations == 0
    assert len(report.makespans) == profile.requests  # every request served
    assert report.degraded == 0

    # Duplicate arrivals under this much pressure must overlap their
    # twins at least once; the exact rate is the measurement.
    duplicates = sum(
        1 for a in generate_arrivals(profile) if a.duplicate_of is not None
    )
    assert duplicates > 0
    assert report.coalesced >= 1
    assert report.coalesced <= duplicates

    latency = report.stats["latency"]
    counters = report.stats["counters"]
    assert latency["bound"]["count"] == profile.requests
    assert latency["refined"]["count"] == profile.requests
    # Coalesced requests never ran their own pipeline.
    assert counters["pipeline.runs"] == profile.requests - report.coalesced

    # -- report ------------------------------------------------------------
    payload = {
        "benchmark": "service",
        "mode": "full" if full else "reduced",
        "workload": {
            "requests": profile.requests,
            "arrival_rate_hz": profile.arrival_rate_hz,
            "duplicate_fraction": profile.duplicate_fraction,
            "duplicate_arrivals": duplicates,
            "jobs": profile.jobs,
            "machines": profile.machines,
            "eps": profile.eps,
            "seed": profile.seed,
            "workers": workers,
            "open_loop": True,
        },
        "latency_ms": {
            stage: {
                "p50": latency[stage]["p50_ms"],
                "p95": latency[stage]["p95_ms"],
                "p99": latency[stage]["p99_ms"],
                "mean": latency[stage]["mean_ms"],
                "max": latency[stage]["max_ms"],
            }
            for stage in ("bound", "refined")
        },
        "coalescing": {
            "coalesced": report.coalesced,
            "hit_rate": round(report.coalescing_hit_rate, 4),
            "pipeline_runs": counters["pipeline.runs"],
        },
        "bound_first_violations": report.bound_first_violations,
        "degraded": report.degraded,
        "wall_s": round(report.wall_s, 4),
        "cache": report.stats["cache"],
    }
    # Reduced runs write a git-ignored ``-reduced`` twin, so a smoke run
    # never overwrites the committed full-mode figures.
    name = "BENCH_service.json" if full else "BENCH_service-reduced.json"
    (results_dir / name).write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(
        bound_p99_ms=latency["bound"]["p99_ms"],
        refined_p99_ms=latency["refined"]["p99_ms"],
        coalescing_hit_rate=round(report.coalescing_hit_rate, 4),
    )
