"""Serial PTAS engine — Algorithm 1+2 on one CPU core.

The baseline the OpenMP implementation of [1] was originally measured
against.  The paper omits it from its own comparison ("the performance
of the sequential PTAS was already compared against the OpenMP
implementation in [1]"); we keep it because it anchors the cost model
(OpenMP at P threads must approach the serial time / P for
compute-bound levels — asserted in tests) and the examples use it.

Like every engine, this is an *interpreter* of a
:class:`~repro.dptable.plan.ProbePlan`: the plan owns the wavefront
schedule and per-cell work profile (shared across probes via the
:class:`~repro.core.probe_cache.PlanCache`); the engine keeps only its
cost semantics — here, one core executing every op in sequence.
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
    fill_by_groups,
    note_engine_run,
    resolve_plan,
)
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS


class SequentialEngine:
    """One-core execution of the wavefront DP.

    Also usable as a :class:`~repro.core.ptas.DPSolver` via
    :meth:`__call__`; simulated time accumulates across calls in
    ``total_simulated_s`` so the PTAS drivers can report per-instance
    totals.
    """

    def __init__(
        self,
        spec: CpuSpec = XEON_E5_2697V3_DUAL,
        costs: CostConstants = DEFAULT_COSTS,
        plan_cache=None,
    ) -> None:
        self.spec = spec
        self.costs = costs
        self.plan_cache = plan_cache
        self.total_simulated_s = 0.0
        self.runs: list[EngineRun] = []

    @property
    def name(self) -> str:
        """Engine label used in records and reports."""
        return "serial"

    def run(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        plan: Optional[ProbePlan] = None,
        model_token: Optional[tuple] = None,
    ) -> EngineRun:
        """Execute one DP probe; returns values plus simulated time."""
        if len(counts) == 0:
            run = degenerate_run(self.name)
            self.runs.append(run)
            return run
        plan = resolve_plan(
            self.plan_cache, counts, class_sizes, target, configs, plan,
            model_token=model_token,
        )
        geometry = plan.geometry

        table = fill_by_groups(geometry, plan.configs, plan.level_groups())
        dp_result = DPResult(
            table=table.reshape(geometry.shape), configs=plan.configs
        )

        # Serial cost: every op in sequence; scans run from cache.
        ops = plan.thread_ops(self.costs)
        scan = (
            plan.scan_elements(geometry.size)
            * self.costs.scan_ops_per_element
            * self.costs.cpu_scan_elements_cached
        )
        total_valid = plan.total_valid
        model = OpenMPModel(self.spec, threads=1)
        model.parallel_for(
            (ops + scan) * self.spec.op_time_s,
            mem_bytes=total_valid * 8,
        )

        run = EngineRun(
            engine=self.name,
            dp_result=dp_result,
            simulated_s=model.elapsed_s,
            metrics={
                "regions": model.regions,
                "total_candidates": plan.total_candidates,
                "total_valid": total_valid,
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
        """DPSolver protocol: used directly by the PTAS drivers."""
        return self.run(
            counts,
            class_sizes,
            target,
            configs,
            model_token=model_token,
        ).dp_result
