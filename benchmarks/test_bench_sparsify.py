"""Sparsification benchmark: dominance pruning + warm starts end to end.

Drives the quarter-split PTAS at the accuracy where the configuration
lattice is large (``eps=0.1``) on the ``auto`` kernel, twice per
instance (quarter rounds probe ascending targets, so later probes of a
round find smaller-budget tables to warm-seed from):

* **baseline** — ``sparsify=False`` with a cold-only probe cache: the
  dense clamped fill the library shipped before sparsification;
* **sparse+warm** — ``sparsify=True`` with table-delta warm starts
  (:class:`~repro.core.probe_cache.ProbeCache` ``warm_start=True``):
  box passes over the dominance-pruned maximal subset plus closure
  sweeps, and later probes seeded from nearby smaller-budget tables.

Both runs must agree on every makespan (the sparse fixpoint is
bit-identical); the **median end-to-end speedup must be >= 1.3x**.

The second gate guards the PR 7 plan-cache path: the warm plan-cache
workload of :mod:`benchmarks.test_bench_plan_cache` is re-measured in
this process and its warm/cold ratio must not regress by more than 5%
against the recorded ``BENCH_plan_cache.json`` (the benchmarks-smoke
CI job emits that file immediately before this one, so the comparison
is same-machine).

Headline numbers land in ``benchmarks/results/BENCH_sparsify.json``.

Run: ``pytest benchmarks/test_bench_sparsify.py --benchmark-only``
"""

from __future__ import annotations

import json
import statistics

import pytest

from repro.core.instance import uniform_instance
from repro.core.kernels import AutoKernel
from repro.core.probe_cache import NullPlanCache, PlanCache, ProbeCache
from repro.core.ptas import ptas_schedule
from repro.observability import Tracer
from repro.util.timing import Timer

EPS = 0.1


def _workload(full: bool):
    specs = (
        [(28, 5, 46), (32, 5, 47), (36, 6, 48), (40, 6, 49), (44, 7, 50)]
        if full
        else [(18, 4, 46), (20, 4, 47), (22, 5, 48)]
    )
    return [
        uniform_instance(n, m, low=3, high=90, seed=s) for n, m, s in specs
    ]


def _run(inst, sparsify: bool, warm: bool):
    """One full PTAS run; returns ``(result, seconds, tracer)``."""
    tracer = Tracer()
    cache = ProbeCache(warm_start=warm)
    # A fresh plan cache per run: neither arm inherits the other's plans.
    kernel = AutoKernel(plan_cache=PlanCache(), sparsify=sparsify)
    with tracer.activate():
        with Timer() as timer:
            result = ptas_schedule(
                inst, eps=EPS, search="quarter", dp_solver=kernel, cache=cache
            )
    return result, timer.elapsed, tracer


def _plan_cache_ratio() -> float:
    """Fresh warm/cold time ratio of the PR 7 plan-cache workload."""
    from benchmarks.test_bench_plan_cache import (
        _run_passes,
        _workload as _pc_workload,
    )
    from benchmarks.conftest import full_mode

    instances = _pc_workload(full_mode())
    best = float("inf")
    for _ in range(3):
        _, _, _, cold_s = _run_passes(instances, NullPlanCache(), 3)
        _, _, _, warm_s = _run_passes(instances, PlanCache(), 3)
        if cold_s > 0:
            best = min(best, warm_s / cold_s)
    return best


@pytest.mark.benchmark(group="sparsify")
def test_sparsify_speedup(benchmark, results_dir, full):
    instances = _workload(full)

    baseline = [_run(inst, sparsify=False, warm=False) for inst in instances]

    def _fast_pass():
        return [_run(inst, sparsify=True, warm=True) for inst in instances]

    fast = benchmark.pedantic(_fast_pass, rounds=1, iterations=1)

    # -- correctness: zero makespan mismatches -----------------------------
    mismatches = sum(
        1
        for (b, _, _), (f, _, _) in zip(baseline, fast)
        if b.makespan != f.makespan
    )
    assert mismatches == 0

    # -- speedup gate ------------------------------------------------------
    speedups = [
        b_s / f_s if f_s > 0 else float("inf")
        for (_, b_s, _), (_, f_s, _) in zip(baseline, fast)
    ]
    median_speedup = statistics.median(speedups)
    assert median_speedup >= 1.3, (
        f"median sparsify+warm speedup {median_speedup:.2f}x < 1.3x "
        f"(per instance: {[round(s, 2) for s in speedups]})"
    )

    # -- plan-cache regression gate (< 5% vs BENCH_plan_cache.json) -------
    recorded_path = results_dir / "BENCH_plan_cache.json"
    plan_cache_gate = None
    if recorded_path.exists():
        recorded = json.loads(recorded_path.read_text())
        rec_cold = recorded["probe_time_s"]["cold"]
        rec_warm = recorded["probe_time_s"]["warm"]
        if rec_cold > 0 and rec_warm > 0:
            fresh_ratio = _plan_cache_ratio()
            recorded_ratio = rec_warm / rec_cold
            regression = fresh_ratio / recorded_ratio
            assert regression < 1.05, (
                f"warm plan-cache workload regressed {regression:.3f}x "
                f"(fresh warm/cold {fresh_ratio:.3f} vs recorded "
                f"{recorded_ratio:.3f})"
            )
            plan_cache_gate = {
                "recorded_warm_over_cold": round(recorded_ratio, 4),
                "fresh_warm_over_cold": round(fresh_ratio, 4),
                "regression": round(regression, 4),
                "limit": 1.05,
            }

    # -- report ------------------------------------------------------------
    dropped = sum(
        int(t.counters.get("sparsify.dropped", 0)) for _, _, t in fast
    )
    kept = sum(int(t.counters.get("sparsify.kept", 0)) for _, _, t in fast)
    reused = sum(
        int(t.counters.get("warmstart.cells_reused", 0)) for _, _, t in fast
    )
    warm_fills = sum(
        int(t.counters.get("warmstart.fills", 0)) for _, _, t in fast
    )
    payload = {
        "benchmark": "sparsify",
        "mode": "full" if full else "reduced",
        "workload": {
            "instances": len(instances),
            "eps": EPS,
            "search": "quarter",
            "backend": "auto (sparsify + warm-start vs dense cold)",
        },
        "per_instance": [
            {
                "jobs": len(inst.times),
                "machines": inst.machines,
                "baseline_s": round(b_s, 4),
                "sparse_warm_s": round(f_s, 4),
                "speedup": round(sp, 3),
            }
            for inst, (_, b_s, _), (_, f_s, _), sp in zip(
                instances, baseline, fast, speedups
            )
        ],
        "median_speedup": round(median_speedup, 3),
        "makespan_mismatches": mismatches,
        "sparsify": {
            "configs_dropped": dropped,
            "configs_kept": kept,
            "dropped_fraction": round(dropped / (dropped + kept), 4)
            if dropped + kept
            else 0.0,
        },
        "warmstart": {"fills": warm_fills, "cells_reused": reused},
        "plan_cache_gate": plan_cache_gate,
    }
    (results_dir / "BENCH_sparsify.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    benchmark.extra_info.update(
        median_speedup=round(median_speedup, 3),
        makespan_mismatches=mismatches,
        configs_dropped=dropped,
    )
