"""Plan-driven single-sweep DP kernel: each cell computed once.

:func:`~repro.core.dp_vectorized.dp_vectorized` relaxes the *whole
table* per round and needs up to ``OPT(N) + 1`` rounds; when ``OPT``
is large (many machines, tight targets) most of those passes touch
cells that are already final.  The level-sweep kernel instead walks
the :class:`~repro.dptable.plan.ProbePlan`'s anti-diagonal level
schedule exactly once: a cell at level ``l`` depends only on cells at
strictly lower levels (every configuration removes at least one job),
so one vectorized gather pass per ``(level, config)`` pair computes
every cell's final value directly — ``O(|C| * sigma)`` total work
regardless of ``OPT(N)``, against the relaxation's
``O(rounds * |C| * sigma)``.

The trade-off: the relaxation's slice arithmetic is contiguous while
the sweep's per-level gathers are indexed loads — and because the
relaxation updates *in place*, values propagate within a round and it
converges in a handful of rounds regardless of ``OPT(N)``, so in
practice the gather penalty is never repaid by avoided rounds
(measured ~10x slower head-to-head across Table-I..VI scales).  What
the sweep uniquely offers is footprint: it allocates per-level
temporaries only, never a second table-sized scratch, which is why the
cost model in :mod:`repro.core.kernels.auto` reserves it for fills
whose relaxation footprint would blow the memory budget.

This is :func:`repro.engines.base.fill_by_groups` — the engines'
plan-interpreting fill — stripped of its per-cell dependency
verification: the plan's level schedule *is* the topological order
(certified by the engine tests), so the production sweep skips the
bookkeeping.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dp_common import (
    DPResult,
    empty_dp_result,
    pick_table_dtype,
    unreachable_for,
    widen_table,
)
from repro.dptable.plan import ProbePlan
from repro.errors import DPError
from repro.observability import context as obs


def dp_levelsweep(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    configs: Optional[np.ndarray] = None,
    plan: Optional[ProbePlan] = None,
    plan_cache=None,
    model_token: Optional[tuple] = None,
) -> DPResult:
    """Fill the DP-table in one pass over the plan's level schedule.

    ``plan`` (or a plan fetched from ``plan_cache`` /
    :func:`~repro.core.probe_cache.default_plan_cache`) supplies the
    level schedule; its configuration set is authoritative when both
    ``plan`` and ``configs`` are given.  Bit-identical to
    :func:`~repro.core.dp_reference.dp_reference` (tested).
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(class_sizes):
        raise DPError("counts and class_sizes must have equal length")
    if len(counts) == 0:
        return empty_dp_result()

    if plan is None:
        if plan_cache is None:
            from repro.core.probe_cache import default_plan_cache

            plan_cache = default_plan_cache()
        plan = plan_cache.plan(
            counts,
            tuple(int(s) for s in class_sizes),
            int(target),
            configs,
            eager=False,
            model_token=model_token,
        )
    configs = plan.configs
    geometry = plan.geometry
    if geometry.shape != tuple(c + 1 for c in counts):
        raise DPError(
            f"plan shape {geometry.shape} does not match counts {counts}"
        )

    dtype = pick_table_dtype(sum(counts))
    unreach = unreachable_for(dtype)
    table = np.full(geometry.size, unreach, dtype=dtype)
    table[0] = 0

    if configs.shape[0] == 0:
        obs.count("dp.sweep.calls")
        return DPResult(
            table=widen_table(table).reshape(geometry.shape), configs=configs
        )

    schedule = plan.level_schedule
    cells = geometry.all_cells()
    strides = np.asarray(geometry.strides, dtype=np.int64)
    config_flat = configs @ strides

    passes = 0
    for level in range(1, schedule.num_levels):
        group = schedule.group(level)
        if group.size == 0:
            continue
        coords = cells[group]
        best = np.full(group.size, unreach, dtype=dtype)
        for idx in range(configs.shape[0]):
            passes += 1
            ok = (coords >= configs[idx]).all(axis=1)
            if not ok.any():
                continue
            sel = np.flatnonzero(ok)
            prev = group[sel] - int(config_flat[idx])
            best[sel] = np.minimum(best[sel], table[prev])
        reachable = best < unreach
        if reachable.any():
            table[group[reachable]] = best[reachable] + 1

    obs.count("dp.sweep.calls")
    obs.count("dp.sweep.levels", schedule.num_levels - 1)
    obs.count("dp.sweep.config_passes", passes)
    return DPResult(
        table=widen_table(table).reshape(geometry.shape), configs=configs
    )


class SweepKernel:
    """:class:`~repro.core.ptas.DPSolver` wrapper around :func:`dp_levelsweep`.

    Carries the plan cache so every probe that rounds to a known shape
    reuses the cached level schedule instead of re-deriving it.
    """

    def __init__(self, plan_cache=None) -> None:
        self.plan_cache = plan_cache

    def __call__(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        model_token: Optional[tuple] = None,
    ) -> DPResult:
        return dp_levelsweep(
            counts,
            class_sizes,
            target,
            configs=configs,
            plan_cache=self.plan_cache,
            model_token=model_token,
        )
