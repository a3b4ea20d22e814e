"""Batch-job scheduling on a homogeneous compute cluster.

The motivating workload for ``P || Cmax``: a nightly batch of analytics
jobs with known runtimes must finish as early as possible on a fleet of
identical nodes.  The batch is bimodal — many short ETL tasks plus a
few heavy model-training jobs — which is exactly where greedy
heuristics leave machines unbalanced and the PTAS's rounding pays off.

The script schedules the same workload with list scheduling, LPT, and
MULTIFIT for reference, then hands the real batch — the workload at
several accuracies at once — to the production front-end,
:class:`repro.service.BatchScheduler`: each request runs in a forked
worker process that starts from the scheduler's ``ProbeCache`` (a
request's probes that round to the same geometry reuse each other's
configuration sets and DP-tables), and the requests come back as one
deterministic report whose cache stats count every worker's lookups.

Usage:  python examples/cluster_batch_scheduling.py
"""

from __future__ import annotations

from repro.core.baselines import list_schedule, lpt_schedule, multifit_schedule
from repro.core.improve import improve_schedule
from repro.core.instance import bimodal_instance
from repro.service import BatchRequest, BatchScheduler


def describe(name: str, makespan: int, loads, note: str = "") -> None:
    util = loads.sum() / (len(loads) * loads.max()) if loads.max() else 1.0
    print(
        f"{name:<22} makespan {makespan:>6}   "
        f"fleet utilisation {util:6.1%}   {note}"
    )


def main() -> None:
    # 120 batch jobs on 10 nodes: 75% short ETL tasks (5-30 min),
    # 25% heavy training jobs (180-300 min).
    batch = bimodal_instance(
        n_jobs=120,
        machines=10,
        short_range=(5, 30),
        long_range=(180, 300),
        long_fraction=0.25,
        seed=2024,
        name="nightly-batch",
    )
    print(f"workload: {batch}")
    lower_bound = max(batch.area_bound, batch.max_time)
    print(f"no schedule can beat {lower_bound} minutes (volume/longest-job bound)")
    print()

    s = list_schedule(batch)
    describe("list scheduling", s.makespan, s.loads(), "(submission order)")

    s = lpt_schedule(batch)
    describe("LPT", s.makespan, s.loads(), "(longest first)")

    s = multifit_schedule(batch)
    describe("MULTIFIT", s.makespan, s.loads(), "(bin-packing bisection)")

    # The accuracy sweep as one batch: three requests, three worker
    # processes, each starting from the scheduler's probe cache.
    # Results are deterministic and do not depend on the worker count.
    scheduler = BatchScheduler(backend="vectorized", workers=3, search="quarter")
    report = scheduler.run(
        [
            BatchRequest(instance=batch, eps=eps, name=f"PTAS eps={eps}")
            for eps in (0.5, 0.3, 0.2)
        ]
    )
    for req_result in report.results:
        result = req_result.result
        describe(
            req_result.name,
            result.makespan,
            result.schedule.loads(),
            f"(proven <= {result.guarantee_bound():.0f}, "
            f"{result.iterations} quarter-split iterations)",
        )

    finest = report.results[-1].result
    polished = improve_schedule(finest.schedule)
    describe(
        "PTAS eps=0.2 + polish",
        polished.schedule.makespan,
        polished.schedule.loads(),
        f"({polished.moves} moves, {polished.swaps} swaps — guarantee retained)",
    )

    print()
    stats = report.cache_stats
    print(
        f"batch: {report.total_probes} DP probes across "
        f"{len(report.results)} requests on {report.workers} workers "
        f"in {report.wall_s:.2f}s"
    )
    print(
        f"probe cache, all workers: {stats.total_hits} hits / "
        f"{stats.total_hits + stats.total_misses} lookups "
        f"(DP-table hit rate {stats.hit_rate('dp'):.0%}) — "
        "see docs/PERFORMANCE.md"
    )
    print(
        "The PTAS bounds are *guarantees*: even without knowing the "
        "optimum, the batch provably cannot finish more than (1+eps)x "
        "earlier than the reported schedule."
    )


if __name__ == "__main__":
    main()
