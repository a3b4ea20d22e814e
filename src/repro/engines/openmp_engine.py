"""The OpenMP baseline engine — Ghalami & Grosu's Algorithm 2 on the Xeon model.

One-level parallelism: each anti-diagonal level is one
``parallel for`` over its cells with ``schedule(static)``; within a
cell the thread enumerates candidate sub-configurations and locates
each valid one by scanning the *entire* DP-table (Alg. 2 lines 18–19 —
the search the paper's data-partitioning scheme later confines to a
block).  Level barriers separate the regions.

The whole-table scan makes the per-cell cost grow with ``sigma``, so
the engine's simulated time is superlinear in table size — the reason
the OpenMP lines in Fig. 3(c) blow up on large tables while the
partitioned GPU stays moderate.

The level schedule and per-cell work arrays come from the probe's
:class:`~repro.dptable.plan.ProbePlan`; this engine contributes only
the ``parallel for`` cost semantics.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dp_common import DPResult
from repro.cpusim.openmp import OpenMPModel
from repro.cpusim.spec import CpuSpec, XEON_E5_2697V3_DUAL
from repro.dptable.plan import ProbePlan
from repro.engines.base import (
    EngineRun,
    degenerate_run,
    fill_plan,
    note_engine_run,
    resolve_plan,
)
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS


class OpenMPEngine:
    """Algorithm 2 on ``threads`` CPU threads (OMP16 / OMP28 in the paper)."""

    def __init__(
        self,
        threads: int = 28,
        spec: CpuSpec = XEON_E5_2697V3_DUAL,
        costs: CostConstants = DEFAULT_COSTS,
        schedule: str = "static",
        plan_cache=None,
    ) -> None:
        self.threads = threads
        self.spec = spec
        self.costs = costs
        self.schedule = schedule
        self.plan_cache = plan_cache
        self.total_simulated_s = 0.0
        self.runs: list[EngineRun] = []

    @property
    def name(self) -> str:
        """Engine label, e.g. ``omp-28`` (the paper's OMP28)."""
        return f"omp-{self.threads}"

    def run(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        plan: Optional[ProbePlan] = None,
        model_token: Optional[tuple] = None,
    ) -> EngineRun:
        """Execute one DP probe level by level on the CPU model."""
        if len(counts) == 0:
            run = degenerate_run(self.name)
            self.runs.append(run)
            return run
        plan = resolve_plan(
            self.plan_cache, counts, class_sizes, target, configs, plan,
            model_token=model_token,
        )
        geometry = plan.geometry

        levels = plan.level_groups()
        table = fill_plan(plan)
        dp_result = DPResult(
            table=table.reshape(geometry.shape), configs=plan.configs
        )

        # Per-cell cost: candidate enumeration + SetOPT bookkeeping +
        # whole-table locate scans (cached, so discounted).
        ops = plan.thread_ops(self.costs)
        scan = (
            plan.scan_elements(geometry.size)
            * self.costs.scan_ops_per_element
            * self.costs.cpu_scan_elements_cached
        )
        cell_costs = (ops + scan) * self.spec.op_time_s
        # Streamed traffic per cell: its scans touch valid * sigma/2
        # elements of 8 bytes; the shared-bandwidth ceiling caps how
        # fast 16 or 28 threads can co-scan.
        cell_bytes = plan.scan_elements(geometry.size) * 8.0

        model = OpenMPModel(self.spec, threads=self.threads)
        worst_imbalance = 1.0
        for level_cells in levels:
            if level_cells.size == 0:
                continue
            result = model.parallel_for(
                cell_costs[level_cells],
                mem_bytes=int(cell_bytes[level_cells].sum()),
                schedule=self.schedule,
            )
            worst_imbalance = max(worst_imbalance, result.imbalance)

        run = EngineRun(
            engine=self.name,
            dp_result=dp_result,
            simulated_s=model.elapsed_s,
            metrics={
                "threads": self.threads,
                "regions": model.regions,
                "worst_level_imbalance": worst_imbalance,
                "total_candidates": plan.total_candidates,
                "total_valid": plan.total_valid,
                "scan_scope": geometry.size,
            },
        )
        self.total_simulated_s += run.simulated_s
        self.runs.append(run)
        note_engine_run(run)
        return run

    def __call__(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        model_token: Optional[tuple] = None,
    ) -> DPResult:
        """DPSolver protocol for the PTAS drivers."""
        return self.run(
            counts,
            class_sizes,
            target,
            configs,
            model_token=model_token,
        ).dp_result
