"""The naive GPU port — the strawman §III measures at ~100x slower.

A direct translation of the OpenMP structure: one kernel per
anti-diagonal level, one thread per cell, each thread enumerating its
candidate sub-configurations and locating every valid one by scanning
the whole row-major table in *global memory*.  Nothing is partitioned,
so the engine exhibits all three §III-B pathologies that motivate the
paper:

* locate scans walk ``sigma/2`` elements of scattered (strided) global
  memory per valid sub-configuration — charged through the
  latency-bound random-access bandwidth;
* cells of wildly different workloads share warps — full divergence
  cost (warp pays its slowest thread);
* per-cell candidate buffers are allocated at table scope, so large
  probes exceed device memory (:class:`~repro.errors.SimulationError`),
  reproducing the out-of-memory failures §III-C describes.

The level schedule and work arrays come from the probe's
:class:`~repro.dptable.plan.ProbePlan`; the engine keeps only the
kernel-per-level launch structure and its memory charges.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dp_common import DPResult
from repro.dptable.plan import ProbePlan
from repro.engines.base import (
    EngineRun,
    degenerate_run,
    fill_by_groups,
    note_engine_run,
    resolve_plan,
)
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS
from repro.gpusim.engine import GpuSimulator
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.memory import AccessPattern
from repro.gpusim.spec import DeviceSpec, KEPLER_K40


class GpuNaiveEngine:
    """Direct GPU translation of Algorithm 2 (no data partitioning)."""

    def __init__(
        self,
        spec: DeviceSpec = KEPLER_K40,
        costs: CostConstants = DEFAULT_COSTS,
        check_memory: bool = True,
        plan_cache=None,
    ) -> None:
        self.spec = spec
        self.costs = costs
        self.check_memory = check_memory
        self.plan_cache = plan_cache
        self.total_simulated_s = 0.0
        self.runs: list[EngineRun] = []

    @property
    def name(self) -> str:
        """Engine label."""
        return "gpu-naive"

    def run(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        plan: Optional[ProbePlan] = None,
        model_token: Optional[tuple] = None,
    ) -> EngineRun:
        """Execute one DP probe as one kernel per anti-diagonal level."""
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
        table = fill_by_groups(geometry, plan.configs, levels)
        dp_result = DPResult(
            table=table.reshape(geometry.shape), configs=plan.configs
        )

        # Per-thread compute (enumeration + SetOPT bookkeeping); the
        # locate scans are charged as strided memory traffic below.
        op_time = self.spec.op_time_s
        cell_compute = plan.thread_ops(self.costs) * op_time
        scan_elements = plan.scan_elements(geometry.size)

        sim = GpuSimulator(self.spec, check_memory=self.check_memory)
        table_bytes = geometry.size * 8
        for level_cells in levels:
            if level_cells.size == 0:
                continue
            # Table-scope candidate buffers: every thread holds its
            # candidate set simultaneously (the §III-C memory hazard).
            buffer_bytes = int(plan.candidates[level_cells].sum()) * 8
            kernel = KernelSpec(
                name=f"naive-lvl",
                thread_times=cell_compute[level_cells],
                mem_elements=int(scan_elements[level_cells].sum()),
                mem_pattern=AccessPattern.STRIDED,
                dynamic_children=2 * int(level_cells.size),
                mem_footprint_bytes=table_bytes + buffer_bytes,
            )
            sim.launch(kernel, stream=0)
            sim.synchronize()  # level barrier

        run = EngineRun(
            engine=self.name,
            dp_result=dp_result,
            simulated_s=sim.now,
            metrics={
                **sim.metrics.as_dict(),
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
