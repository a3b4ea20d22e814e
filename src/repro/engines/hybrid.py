"""Hybrid engine: route each DP probe to the cheaper device.

The practical upshot of Fig. 3: small tables belong on the CPU, large
ones on the partitioned GPU — and one PTAS run contains *both* kinds of
probe (early bisection targets yield small tables, later ones large).
:class:`HybridEngine` predicts each probe's cost on both devices from
the cheap side of the cost model (no simulation needed: total candidate
work, scan volume, level structure) and dispatches accordingly, the
policy a production deployment of the paper's system would use.

The predictor is intentionally simple — the dominant cost terms only —
and is validated in tests: its *choices* must match the simulated
outcome (which engine actually turns out cheaper) on the vast majority
of probes, which is what matters; exact time prediction does not.

The probe's :class:`~repro.dptable.plan.ProbePlan` is resolved once
here and handed down to whichever engine wins the prediction, so a
routed probe never rebuilds its schedule; the predictors read the
plan's work arrays and its memoized ``partition(dim)`` directly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dp_common import DPResult
from repro.cpusim.spec import CpuSpec, XEON_E5_2697V3_DUAL
from repro.dptable.plan import ProbePlan
from repro.engines.base import EngineRun, degenerate_run, resolve_plan
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS
from repro.engines.gpu_partitioned import GpuPartitionedEngine
from repro.engines.openmp_engine import OpenMPEngine
from repro.gpusim.spec import DeviceSpec, KEPLER_K40


class HybridEngine:
    """Dispatch probes between the OpenMP and partitioned-GPU engines."""

    def __init__(
        self,
        dim: int = 6,
        threads: int = 28,
        cpu_spec: CpuSpec = XEON_E5_2697V3_DUAL,
        gpu_spec: DeviceSpec = KEPLER_K40,
        costs: CostConstants = DEFAULT_COSTS,
        plan_cache=None,
    ) -> None:
        self.cpu_engine = OpenMPEngine(
            threads=threads,
            spec=cpu_spec,
            costs=costs,
            plan_cache=plan_cache,
        )
        self.gpu_engine = GpuPartitionedEngine(
            dim=dim,
            spec=gpu_spec,
            costs=costs,
            plan_cache=plan_cache,
        )
        self.costs = costs
        self.dim = dim
        self.plan_cache = plan_cache
        self.choices: list[str] = []
        self.runs: list[EngineRun] = []

    @property
    def name(self) -> str:
        """Engine label."""
        return f"hybrid-omp{self.cpu_engine.threads}-dim{self.dim}"

    @property
    def total_simulated_s(self) -> float:
        """Simulated seconds across both devices."""
        return self.cpu_engine.total_simulated_s + self.gpu_engine.total_simulated_s

    # -- cost prediction ---------------------------------------------------------

    def predict_cpu_s(self, plan) -> float:
        """Dominant CPU terms: compute over threads vs shared-bandwidth floor.

        ``plan`` is the probe's :class:`~repro.dptable.plan.ProbePlan`.
        """
        spec = self.cpu_engine.spec
        ops = float(plan.thread_ops(self.costs).sum())
        scan = float(plan.scan_elements(plan.geometry.size).sum())
        compute = (
            (ops + scan * self.costs.scan_ops_per_element * self.costs.cpu_scan_elements_cached)
            * spec.op_time_s
            / self.cpu_engine.threads
        )
        memory = scan * 8.0 / spec.mem_bandwidth_bytes_per_s
        barriers = (plan.geometry.max_level + 1) * spec.fork_join_overhead_s
        return max(compute, memory) + barriers

    def predict_gpu_s(self, plan) -> float:
        """Dominant GPU terms: lane work at model utilisation + kernel chain."""
        spec = self.gpu_engine.spec
        partition = plan.partition(self.dim)
        ops = float(plan.thread_ops(self.costs).sum())
        scan = float(
            plan.scan_elements(partition.cells_per_block).sum()
        ) * self.costs.gpu_scan_ops_per_element
        # Lane-seconds spread over the device at a conservative
        # utilisation matching the simulator's mid-size behaviour.
        lane_s = (ops + scan) * spec.op_time_s
        throughput = lane_s / (spec.total_cores * 0.25)
        # Kernel chain: blocks serialize per stream, levels serialize.
        kernels = partition.num_blocks * partition.num_inblock_levels
        chain = (
            kernels
            / max(1, self.gpu_engine.num_streams)
            * (spec.kernel_launch_overhead_s + spec.dynamic_sync_overhead_s)
        )
        return throughput + chain

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        plan: Optional[ProbePlan] = None,
        model_token: Optional[tuple] = None,
    ) -> EngineRun:
        """Route one probe to the predicted-cheaper engine and run it."""
        if len(counts) == 0:
            run = degenerate_run(self.name)
            self.runs.append(run)
            return run
        plan = resolve_plan(
            self.plan_cache, counts, class_sizes, target, configs, plan,
            model_token=model_token,
        )
        cpu_pred = self.predict_cpu_s(plan)
        gpu_pred = self.predict_gpu_s(plan)
        if cpu_pred <= gpu_pred:
            self.choices.append("cpu")
            run = self.cpu_engine.run(
                counts, class_sizes, target, plan.configs, plan=plan
            )
        else:
            self.choices.append("gpu")
            run = self.gpu_engine.run(
                counts, class_sizes, target, plan.configs, plan=plan
            )
        self.runs.append(run)
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
