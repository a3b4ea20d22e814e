"""DP-kernel benchmark: the adaptive kernel suite vs the historical fill.

Two arms, both on Table-I-scale instances (rounded DP tables in the
thousands of cells), emitting ``benchmarks/results/BENCH_dp_kernels.json``:

* **probe microbench** — per-kernel fill time at targets across the
  deadline band ``[0.4 * LB, final]``, split by outcome.  Rejected
  probes are where decision mode pays: the clamp
  (``dp_vectorized(machines=m)``) plus the O(1) load-bound reject stop
  them without an exact fill (asserted >= 2x median speedup vs the
  exact :func:`~repro.core.dp_vectorized.dp_vectorized`).
* **end-to-end** — full ``ptas_schedule`` wall time with the ``auto``
  backend vs the *seed kernel* (the pre-suite production fill, vendored
  below: int64 tables, per-round slice construction, per-probe argsort).
  Asserted >= 1.3x median speedup at full scale, with bit-identical
  final makespans across every kernel (vectorized / sweep / auto /
  seed; ``auto`` is the one that runs the clamped decision fill).

Run: ``pytest benchmarks/test_bench_dp_kernels.py --benchmark-only``
(``REPRO_BENCH_FULL=1`` for the paper-scale workload; the reduced CI
smoke run asserts a lower 1.15x end-to-end floor against runner noise).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import pytest

from repro.backends import resolve
from repro.core.configs import enumerate_configurations
from repro.core.bounds import makespan_bounds
from repro.core.dp_common import DPResult, UNREACHABLE, empty_dp_result
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import uniform_instance
from repro.core.probe_cache import PlanCache
from repro.core.ptas import ptas_schedule
from repro.core.rounding import round_instance
from repro.errors import DPError

RESULTS_NAME = "BENCH_dp_kernels.json"


def _seed_dp_vectorized(counts, class_sizes, target, configs=None, max_rounds=None):
    """The seed production fill, vendored verbatim as the e2e baseline.

    This is ``dp_vectorized`` as it stood before the kernel suite:
    int64 tables, slice views rebuilt per (round, config) pass, and the
    config order argsorted on every probe.  Keeping a faithful copy
    here pins the end-to-end comparison to the behaviour this PR
    replaced, independent of future improvements to the live kernel.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) == 0:
        return empty_dp_result()
    if configs is None:
        configs = enumerate_configurations(class_sizes, counts, target)
    shape = tuple(c + 1 for c in counts)
    table = np.full(shape, UNREACHABLE, dtype=np.int64)
    table[(0,) * len(counts)] = 0
    if configs.shape[0] == 0:
        return DPResult(table=table, configs=configs)
    if max_rounds is None:
        max_rounds = sum(counts) + 1
    order = np.argsort(-configs.sum(axis=1), kind="stable")
    scratch = np.empty(table.size, dtype=np.int64)
    mask = np.empty(table.size, dtype=bool)
    for _ in range(max_rounds):
        changed = False
        for idx in order:
            cfg = configs[idx]
            dst = table[tuple(slice(int(c), None) for c in cfg)]
            src = table[
                tuple(slice(None, s - int(c)) for s, c in zip(table.shape, cfg))
            ]
            cand = scratch[: src.size].reshape(src.shape)
            np.add(src, 1, out=cand)
            improved = mask[: src.size].reshape(src.shape)
            np.less(cand, dst, out=improved)
            if improved.any():
                np.copyto(dst, cand, where=improved)
                changed = True
        if not changed:
            return DPResult(table=table, configs=configs)
    raise DPError("seed relaxation did not converge")


def _merge_results(results_dir, section: str, payload: dict) -> None:
    """Update one section of the shared JSON artifact."""
    path = results_dir / RESULTS_NAME
    merged = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged["benchmark"] = "dp_kernels"
    merged[section] = payload
    path.write_text(json.dumps(merged, indent=2) + "\n")


def _time_fill(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="dp-kernels")
def test_rejected_probe_speedup(benchmark, results_dir, full):
    """Decision-mode fills vs the exact relaxation across the deadline band."""
    if full:
        inst, eps = uniform_instance(60, 8, low=5, high=100, seed=1), 0.2
    else:
        inst, eps = uniform_instance(40, 6, low=5, high=100, seed=1), 0.25
    machines = inst.machines
    bounds = makespan_bounds(inst)
    final = ptas_schedule(inst, eps=eps).final_target

    # Ten probe targets from deep inside the deadline band (feasibility
    # queries "can we meet deadline T?" for T far below any optimum) up
    # to the search's converged target, where probes flip to accepts.
    lo = max(1, int(0.4 * bounds.lower))
    targets = sorted({int(t) for t in np.linspace(lo, final, 10)})

    def measure():
        rows = []
        for target in targets:
            rounded = round_instance(inst, target, eps)
            configs = enumerate_configurations(
                rounded.class_sizes, rounded.counts, rounded.target
            )
            vec = dp_vectorized(
                rounded.counts, rounded.class_sizes, rounded.target, configs
            )
            dec = dp_vectorized(
                rounded.counts,
                rounded.class_sizes,
                rounded.target,
                configs=configs,
                machines=machines,
            )
            rejected = vec.opt > machines
            assert dec.decided_infeasible == rejected, target
            if not rejected:
                assert dec.opt == vec.opt, target
            vec_s = _time_fill(
                lambda: dp_vectorized(
                    rounded.counts, rounded.class_sizes, rounded.target, configs
                ),
                repeats=1 if full else 2,
            )
            dec_s = _time_fill(
                lambda: dp_vectorized(
                    rounded.counts,
                    rounded.class_sizes,
                    rounded.target,
                    configs=configs,
                    machines=machines,
                ),
                repeats=3,
            )
            rows.append(
                {
                    "target": target,
                    "outcome": "rejected" if rejected else "accepted",
                    "table_cells": rounded.table_size,
                    "num_configs": int(configs.shape[0]),
                    "vectorized_ms": round(vec_s * 1e3, 3),
                    "decision_ms": round(dec_s * 1e3, 3),
                    "speedup": round(vec_s / dec_s, 2) if dec_s else None,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    rejected = [r for r in rows if r["outcome"] == "rejected"]
    accepted = [r for r in rows if r["outcome"] == "accepted"]
    assert rejected, "deadline band produced no rejected probes"
    assert accepted, "deadline band produced no accepted probes"
    median_rejected = statistics.median(r["speedup"] for r in rejected)
    median_accepted = statistics.median(r["speedup"] for r in accepted)
    assert median_rejected >= 2.0, (
        f"median rejected-probe speedup {median_rejected:.2f}x < 2x"
    )

    _merge_results(
        results_dir,
        "probe_microbench",
        {
            "mode": "full" if full else "reduced",
            "workload": {
                "instance": f"uniform(n={len(inst.times)}, m={machines}, "
                "low=5, high=100, seed=1)",
                "eps": eps,
                "band": [targets[0], targets[-1]],
                "search_lower_bound": bounds.lower,
                "final_target": final,
            },
            "probes": rows,
            "median_speedup_rejected": round(median_rejected, 2),
            "median_speedup_accepted": round(median_accepted, 2),
        },
    )
    benchmark.extra_info.update(
        median_rejected_speedup=round(median_rejected, 2),
        rejected_probes=len(rejected),
    )


@pytest.mark.benchmark(group="dp-kernels")
def test_end_to_end_auto_speedup(benchmark, results_dir, full):
    """Full ``ptas_schedule`` wall time: ``auto`` vs the seed kernel."""
    if full:
        workload = [
            (uniform_instance(60, 8, low=5, high=100, seed=1), 0.15),
            (uniform_instance(60, 8, low=5, high=100, seed=2), 0.15),
            (uniform_instance(40, 10, low=5, high=100, seed=5), 0.2),
        ]
        reps, floor = 3, 1.3
    else:
        workload = [(uniform_instance(40, 10, low=5, high=100, seed=5), 0.2)]
        reps, floor = 2, 1.15

    for inst, eps in workload:  # fault-in all code paths before timing
        ptas_schedule(inst, eps=eps)

    def run_auto():
        times, results = [], []
        for inst, eps in workload:
            per = []
            for _ in range(reps):
                # A fresh plan cache per repetition: the measured win is
                # the kernel suite itself, not cross-run plan reuse.
                solver = resolve("auto", plan_cache=PlanCache())
                start = time.perf_counter()
                result = ptas_schedule(inst, eps=eps, dp_solver=solver)
                per.append(time.perf_counter() - start)
            times.append(min(per))
            results.append(result)
        return times, results

    rows = []
    makespans_identical = True
    auto_times, auto_results = benchmark.pedantic(run_auto, rounds=1, iterations=1)
    for (inst, eps), auto_s, auto_res in zip(workload, auto_times, auto_results):
        seed_s = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            seed_res = ptas_schedule(inst, eps=eps, dp_solver=_seed_dp_vectorized)
            seed_s = min(seed_s, time.perf_counter() - start)
        per_kernel = {"auto": auto_s, "seed": seed_s}
        makespans = {"auto": auto_res.makespan, "seed": seed_res.makespan}
        for name in ("vectorized", "sweep"):
            start = time.perf_counter()
            res = ptas_schedule(inst, eps=eps, dp_solver=resolve(name))
            per_kernel[name] = time.perf_counter() - start
            makespans[name] = res.makespan
        makespans_identical &= len(set(makespans.values())) == 1
        rows.append(
            {
                "instance": f"uniform(n={len(inst.times)}, m={inst.machines}, "
                f"low=5, high=100)",
                "eps": eps,
                "wall_ms": {
                    k: round(v * 1e3, 2) for k, v in sorted(per_kernel.items())
                },
                "makespan": makespans["auto"],
                "speedup_auto_vs_seed": round(seed_s / auto_s, 2),
            }
        )

    assert makespans_identical, "kernels disagree on a final makespan"
    median_speedup = statistics.median(r["speedup_auto_vs_seed"] for r in rows)
    assert median_speedup >= floor, (
        f"median end-to-end speedup {median_speedup:.2f}x < {floor}x"
    )

    _merge_results(
        results_dir,
        "end_to_end",
        {
            "mode": "full" if full else "reduced",
            "baseline": "seed dp_vectorized (pre-kernel-suite fill)",
            "repeats": reps,
            "runs": rows,
            "median_speedup_auto_vs_seed": round(median_speedup, 2),
            "identical_makespans_across_kernels": makespans_identical,
        },
    )
    benchmark.extra_info.update(
        median_speedup=round(median_speedup, 2),
        identical_makespans=makespans_identical,
    )
