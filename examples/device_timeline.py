"""Watch the blocked schedule execute: a device timeline.

Attaches the tracer to the partitioned GPU engine's simulator and draws
an ASCII Gantt chart of the kernel stream activity — making the paper's
§III-E narrative visible: the block-level wavefront keeps four streams
busy in the middle of the table and starves them at the narrow head and
tail, which is exactly the idle-core effect that lets the CPU win small
tables.

Also demonstrates the hybrid router deciding, probe by probe, which
device a PTAS run should use.

Usage:  python examples/device_timeline.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.synthetic import synthetic_probe
from repro.dptable.partition import BlockPartition, compute_divisor
from repro.dptable.table import TableGeometry
from repro.engines import HybridEngine
from repro.dptable.plan import build_probe_plan
from repro.engines.costmodel import DEFAULT_COSTS
from repro.gpusim import GpuSimulator, KernelSpec, TraceRecorder, render_timeline
from repro.gpusim.memory import AccessPattern
from repro.gpusim.spec import KEPLER_K40
from repro.core.instance import uniform_instance
from repro.core.ptas import ptas_schedule


def timeline_demo() -> None:
    print("=== blocked-schedule timeline (Alg. 4+5 on the simulated K40) ===")
    probe = synthetic_probe((6, 6, 6, 4, 4))  # 6912 cells
    geometry = TableGeometry.from_counts(probe.counts)
    partition = BlockPartition(geometry, compute_divisor(geometry.shape, 5))
    plan = build_probe_plan(probe.counts, probe.class_sizes, probe.target)

    sim = GpuSimulator(KEPLER_K40)
    recorder = TraceRecorder()
    recorder.attach(sim)

    op = KEPLER_K40.op_time_s
    scan = plan.scan_elements(partition.cells_per_block)
    cost = (
        plan.thread_ops(DEFAULT_COSTS)
        + scan * DEFAULT_COSTS.gpu_scan_ops_per_element
    ) * op

    block_ids = partition.cell_block_ids
    inlevels = partition.cell_inblock_levels
    for level_blocks in partition.iter_block_levels():
        for i, block in enumerate(level_blocks):
            bid = partition.block_grid.ravel(block)
            for lvl in range(partition.num_inblock_levels):
                cells = np.flatnonzero((block_ids == bid) & (inlevels == lvl))
                if cells.size == 0:
                    continue
                sim.launch(
                    KernelSpec(
                        name=f"FindOPT-b{bid}-l{lvl}",
                        thread_times=cost[cells],
                        mem_elements=int(scan[cells].sum()),
                        mem_pattern=AccessPattern.COALESCED,
                        dynamic_children=2 * int(cells.size),
                    ),
                    stream=i % 4,
                )
        sim.synchronize()

    print(
        f"table {geometry.shape} = {geometry.size} cells, "
        f"{partition.num_blocks} blocks, {len(recorder.events)} kernels"
    )
    print(render_timeline(recorder, width=72))
    print(
        "\nNote the idle stretches at the head/tail block-levels — the "
        "concurrency loss §III-E describes."
    )
    print()


def hybrid_demo() -> None:
    print("=== hybrid routing over one PTAS run ===")
    inst = uniform_instance(62, 16, low=5, high=100, seed=1566923139)
    engine = HybridEngine(dim=6)
    result = ptas_schedule(inst, eps=0.3, search="quarter", dp_solver=engine)
    print(f"instance: {inst}")
    print(f"makespan {result.makespan} in {result.iterations} quarter-split iterations")
    sizes = [run.table_size for run in engine.runs]
    for size, choice in zip(sizes, engine.choices):
        print(f"  probe table {size:>8} cells -> {choice.upper()}")
    print(
        f"total simulated time {engine.total_simulated_s:.4f}s "
        f"(CPU {engine.cpu_engine.total_simulated_s:.4f}s + "
        f"GPU {engine.gpu_engine.total_simulated_s:.4f}s)"
    )


def main() -> None:
    timeline_demo()
    hybrid_demo()


if __name__ == "__main__":
    main()
