"""The paper's contribution: data-partitioned GPU DP (Algorithms 4 + 5).

Execution structure, faithful to §III-C/D/E:

1. The probe's :class:`~repro.dptable.plan.ProbePlan` supplies the
   blocked schedule for the requested ``dim`` (GPU-DIM3..GPU-DIM9):
   divisor, equal-block partition
   (:class:`~repro.dptable.partition.BlockPartition`), block-contiguous
   memory layout (:class:`~repro.dptable.layout.BlockedLayout`), and
   one :class:`~repro.dptable.plan.KernelGroup` per
   (block, in-block-level) — all memoized on the plan and shared
   across probes via the plan cache.
2. The engine *interprets* that schedule: it walks block-levels in
   order; blocks of one level are independent and are distributed
   cyclically over ``num_streams`` CUDA streams (Alg. 4 line 31 — 4
   streams "provides the best performance for the majority of problem
   instances").
3. Inside a block, one ``FindOPT`` kernel per in-block anti-diagonal
   level (kernels of the same block serialize on the block's stream —
   the block-local synchronization of §III-E); each thread handles one
   cell and dynamically launches ``FindValidSub`` + ``SetOPT`` children
   whose work is folded into the thread's time and whose launches are
   charged the device-launch overhead.
4. ``cudaDeviceSynchronize`` between block-levels.

Memory behaviour vs the naive port: locate scans touch
``cells_per_block / 2`` *contiguous* elements instead of ``sigma / 2``
strided ones, and scratch buffers are block-scope instead of
table-scope — both §III-E claims, both visible in the metrics.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dp_common import DPResult
from repro.dptable.plan import ProbePlan
from repro.extensions.residency import BlockResidency
from repro.engines.base import (
    EngineRun,
    degenerate_run,
    fill_plan,
    note_engine_run,
    resolve_plan,
)
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS
from repro.gpusim.engine import GpuSimulator
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.memory import AccessPattern
from repro.gpusim.spec import DeviceSpec, KEPLER_K40


class GpuPartitionedEngine:
    """Algorithms 4+5 with partitioning along ``dim`` dimensions."""

    def __init__(
        self,
        dim: int = 6,
        num_streams: int = 4,
        spec: DeviceSpec = KEPLER_K40,
        costs: CostConstants = DEFAULT_COSTS,
        check_memory: bool = True,
        block_residency: bool = False,
        plan_cache=None,
    ) -> None:
        self.dim = dim
        self.num_streams = num_streams
        self.spec = spec
        self.costs = costs
        self.check_memory = check_memory
        # Future work (paper §V): keep only the blocks a block-level's
        # dependencies touch resident on the device instead of the
        # whole table.  Off by default to match the paper's published
        # implementation; the future-work bench turns it on.
        self.block_residency = block_residency
        self.plan_cache = plan_cache
        self.total_simulated_s = 0.0
        self.runs: list[EngineRun] = []

    @property
    def name(self) -> str:
        """Engine label, e.g. ``gpu-dim6`` (the paper's GPU-DIM6)."""
        return f"gpu-dim{self.dim}"

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        plan: Optional[ProbePlan] = None,
        model_token: Optional[tuple] = None,
    ) -> EngineRun:
        """Execute one DP probe as the blocked two-level schedule."""
        if len(counts) == 0:
            run = degenerate_run(self.name)
            self.runs.append(run)
            return run
        plan = resolve_plan(
            self.plan_cache, counts, class_sizes, target, configs, plan,
            model_token=model_token,
        )
        geometry = plan.geometry
        blocked = plan.blocked(self.dim)
        partition = blocked.partition
        layout = blocked.layout  # the Alg. 4 reorg, materialised on the plan

        # Real DP values in the engine's own order: the fill verifies
        # no dependency is violated by the blocked schedule.
        table = fill_plan(plan, blocked_dim=self.dim)
        dp_result = DPResult(
            table=table.reshape(geometry.shape), configs=plan.configs
        )

        # -- simulated execution --------------------------------------------------
        op_time = self.spec.op_time_s
        # Locate scans stay inside the block: contiguous (coalesced)
        # storage of cells_per_block cells; also charge the scan's
        # compare ops as compute (the per-thread loop of Alg.5 l.26-28).
        scan_elems_per_cell = plan.scan_elements(partition.cells_per_block)
        cell_compute = (
            plan.thread_ops(self.costs)
            + scan_elems_per_cell * self.costs.gpu_scan_ops_per_element
        ) * op_time

        sim = GpuSimulator(self.spec, check_memory=self.check_memory)
        block_bytes = partition.cells_per_block * 8
        # Device-resident DP values: the whole table per the paper's
        # implementation, or only the dependency-reachable blocks when
        # the residency extension is on.
        residency = None
        table_resident_bytes = geometry.size * 8
        if self.block_residency:
            residency = BlockResidency(partition, plan.configs)
            table_resident_bytes = residency.peak_resident_bytes()
        reorg_elements = geometry.size  # one streaming pass for the Alg.4 reorg
        sim.launch(
            KernelSpec(
                name="reorganize",
                thread_times=np.full(
                    min(geometry.size, self.spec.total_cores), 2 * op_time
                ),
                mem_elements=2 * reorg_elements,
                mem_pattern=AccessPattern.COALESCED,
            ),
            stream=0,
        )
        sim.synchronize()

        for level_kernels in blocked.by_block_level:
            # Blocks of one level go round-robin into the streams; a
            # block's own kernels serialize on its stream because they
            # are launched back to back into it.
            stream_of_block: dict[int, int] = {}
            next_stream = 0
            for kernel_group in level_kernels:
                bid, cells = kernel_group.block_id, kernel_group.cells
                if bid not in stream_of_block:
                    stream_of_block[bid] = next_stream % self.num_streams
                    next_stream += 1
                kernel = KernelSpec(
                    name="FindOPT",
                    thread_times=cell_compute[cells],
                    mem_elements=int(scan_elems_per_cell[cells].sum()),
                    mem_pattern=AccessPattern.COALESCED,
                    dynamic_children=2 * int(cells.size),
                    mem_footprint_bytes=table_resident_bytes
                    + block_bytes
                    + int(plan.candidates[cells].max()) * 8,
                )
                sim.launch(kernel, stream=stream_of_block[bid])
            sim.synchronize()  # block-level barrier (Alg. 4 lines 29-31)

        run = EngineRun(
            engine=self.name,
            dp_result=dp_result,
            simulated_s=sim.now,
            metrics={
                **sim.metrics.as_dict(),
                "dim": self.dim,
                "divisor": partition.divisor,
                "block_shape": partition.block_shape,
                "num_blocks": partition.num_blocks,
                "cells_per_block": partition.cells_per_block,
                "num_block_levels": partition.num_block_levels,
                "num_streams": self.num_streams,
                "total_candidates": plan.total_candidates,
                "total_valid": plan.total_valid,
                "scan_scope": partition.cells_per_block,
                "strided_span_example": layout.strided_span(
                    (0,) * geometry.ndim
                ),
                "block_residency": self.block_residency,
                "table_resident_bytes": table_resident_bytes,
                "residency_savings": (
                    residency.savings_ratio() if residency is not None else 0.0
                ),
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
