"""Shared engine infrastructure: the group-fill kernel and result type.

Every engine executes the DP in its own schedule order — wavefront
levels for the CPU engines, (block-level, in-block-level) groups for the
partitioned GPU engine.  :func:`fill_by_groups` is the one computation
kernel they all share: given any *topologically valid* sequence of cell
groups it fills the table with vectorized gathers, so each engine's
values really are produced in that engine's order (and therefore prove
the order is dependency-safe), yet no per-cell Python loop exists.

For each group and each configuration the kernel gathers the
predecessor values of every cell in the group at once
(``table_flat[prev_flat]``) and min-reduces across configurations —
``O(|C|)`` gathers of group size per group, ``O(|C| * sigma)`` total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.dp_common import (
    DPResult,
    pick_table_dtype,
    unreachable_for,
    widen_table,
)
from repro.dptable.table import TableGeometry
from repro.errors import DPError
from repro.observability import context as obs


def fill_by_groups(
    geometry: TableGeometry,
    configs: np.ndarray,
    groups: Iterable[np.ndarray],
) -> np.ndarray:
    """Fill the DP-table processing ``groups`` of flat indices in order.

    Every dependency of a cell must lie in an earlier group (or be the
    origin).  Raises :class:`DPError` if a group reads a cell that no
    earlier group wrote and that is reachable — which would mean the
    schedule violated a dependency.  Returns the flat int64 table (the
    fill itself runs in the narrowest dtype holding the level bound
    and is widened at the end — bit-identical, less memory traffic).
    """
    size = geometry.size
    dtype = pick_table_dtype(geometry.max_level)
    unreach = unreachable_for(dtype)
    table = np.full(size, unreach, dtype=dtype)
    table[0] = 0  # the origin: zero jobs need zero machines
    written = np.zeros(size, dtype=bool)
    written[0] = True

    shape = geometry.shape
    strides = np.asarray(geometry.strides, dtype=np.int64)
    covered = 0

    for group in groups:
        group = np.asarray(group, dtype=np.int64)
        if group.size == 0:
            continue
        covered += group.size
        # Origin may appear in the first group; it is already final.
        group = group[group != 0]
        if group.size == 0:
            continue
        coords = np.stack(np.unravel_index(group, shape), axis=1)
        best = np.full(group.size, unreach, dtype=dtype)
        for cfg in configs:
            prev = coords - cfg
            ok = (prev >= 0).all(axis=1)
            if not ok.any():
                continue
            prev_flat = prev[ok] @ strides
            if not written[prev_flat].all():
                raise DPError(
                    "schedule violates a DP dependency: a group reads a cell "
                    "no earlier group produced"
                )
            vals = table[prev_flat]
            sel = np.flatnonzero(ok)  # unique per cell, plain fancy indexing is safe
            best[sel] = np.minimum(best[sel], vals)
        reachable = best < unreach
        table[group[reachable]] = best[reachable] + 1
        written[group] = True

    if covered < size:
        raise DPError(
            f"schedule covered {covered} of {size} cells; groups must tile the table"
        )
    obs.count("engine.fill.calls")
    obs.count("engine.fill.cells", covered)
    return widen_table(table)


def fill_plan(plan, blocked_dim=None) -> np.ndarray:
    """One plan's flat int64 table, filled in the engine's own group order.

    :func:`fill_by_groups` executes the plan's groups inline and
    certifies the schedule's dependency safety along the way.

    ``blocked_dim=None`` selects the anti-diagonal level schedule;
    an integer selects the blocked ``(block-level, in-block-level)``
    groups for that block count.
    """
    groups = (
        plan.level_groups()
        if blocked_dim is None
        else plan.blocked(blocked_dim).fill_groups
    )
    return fill_by_groups(plan.geometry, plan.configs, groups)


def resolve_plan(
    plan_cache,
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    configs: np.ndarray | None,
    plan,
    model_token: tuple | None = None,
):
    """The probe's :class:`~repro.dptable.plan.ProbePlan`, one way or another.

    Engines call this at the top of :meth:`run`: an explicitly supplied
    ``plan`` wins (the hybrid engine hands its plan down to the engine
    it dispatched to); otherwise the engine's own ``plan_cache`` — or,
    when it has none, the process-wide
    :func:`~repro.core.probe_cache.default_plan_cache` — serves the
    lookup.  Plans are pure structure, so sharing them is always sound;
    see :class:`~repro.core.probe_cache.PlanCache`.
    """
    if plan is not None:
        return plan
    if plan_cache is None:
        from repro.core.probe_cache import default_plan_cache

        plan_cache = default_plan_cache()
    return plan_cache.plan(
        tuple(int(c) for c in counts),
        tuple(int(s) for s in class_sizes),
        int(target),
        configs,
        model_token=model_token,
    )


def note_engine_run(run: "EngineRun") -> None:
    """Report one engine probe to the ambient tracer (no-op untraced).

    Called by every engine at the end of :meth:`run` so PTAS-level
    traces can attribute simulated hardware time per engine without
    the engines knowing about the tracer's lifetime.
    """
    obs.count(f"engine.{run.engine}.probes")
    obs.count(f"engine.{run.engine}.simulated_s", run.simulated_s)


def degenerate_run(engine: str) -> "EngineRun":
    """Run for the no-long-jobs case: a 0-d table, zero simulated time.

    Every engine returns this when the rounding step produced no job
    classes (all jobs short); the PTAS then decides feasibility from
    the short-job packing alone.
    """
    from repro.core.dp_common import empty_dp_result

    run = EngineRun(engine=engine, dp_result=empty_dp_result(), simulated_s=0.0)
    note_engine_run(run)
    return run


@dataclass(frozen=True)
class EngineRun:
    """What one engine produced for one DP probe.

    Attributes
    ----------
    engine: engine label ("openmp-28", "gpu-dim6", ...).
    dp_result: the (real, verified-identical) DP values.
    simulated_s: simulated hardware seconds for the probe.
    metrics: engine-specific counters (utilization, transactions,
        imbalance, kernel counts, ...), plain dict for the records layer.
    """

    engine: str
    dp_result: DPResult
    simulated_s: float
    metrics: Mapping[str, object] = field(default_factory=dict)

    @property
    def table_size(self) -> int:
        """DP-table size ``sigma`` (the x-axis of Fig. 3)."""
        return int(np.prod(self.dp_result.shape)) if self.dp_result.shape else 1
