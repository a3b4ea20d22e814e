"""Tests for the hybrid CPU/GPU routing engine."""

import numpy as np
import pytest

from repro.analysis.synthetic import synthetic_probe
from repro.analysis.workloads import harvest_tables
from repro.core.dp_vectorized import dp_vectorized
from repro.dptable.plan import build_probe_plan
from repro.engines.gpu_partitioned import GpuPartitionedEngine
from repro.engines.hybrid import HybridEngine
from repro.engines.openmp_engine import OpenMPEngine


class TestRouting:
    def test_small_probe_goes_to_cpu(self):
        probe = synthetic_probe((3, 3, 2))
        engine = HybridEngine()
        engine.run(probe.counts, probe.class_sizes, probe.target)
        assert engine.choices == ["cpu"]

    def test_large_probe_goes_to_gpu(self):
        probe = synthetic_probe((6, 6, 6, 5, 5, 4))  # 108k cells
        engine = HybridEngine()
        engine.run(probe.counts, probe.class_sizes, probe.target)
        assert engine.choices == ["gpu"]

    def test_values_correct_either_way(self):
        for shape in [(3, 3, 2), (6, 6, 6, 5)]:
            probe = synthetic_probe(shape)
            engine = HybridEngine()
            run = engine.run(probe.counts, probe.class_sizes, probe.target)
            ref = dp_vectorized(probe.counts, probe.class_sizes, probe.target)
            assert np.array_equal(run.dp_result.table, ref.table)

    def test_degenerate(self):
        engine = HybridEngine()
        run = engine.run([], [], 10)
        assert run.dp_result.opt == 0
        assert engine.choices == []

    def test_simulated_time_accumulates_across_devices(self):
        engine = HybridEngine()
        small = synthetic_probe((3, 3, 2))
        large = synthetic_probe((6, 6, 6, 5))
        engine.run(small.counts, small.class_sizes, small.target)
        engine.run(large.counts, large.class_sizes, large.target)
        assert engine.total_simulated_s > 0
        assert len(engine.runs) == 2


@pytest.mark.slow
class TestPredictorQuality:
    def test_choices_mostly_match_simulation(self):
        tables = harvest_tables(
            [(300, 8_000), (8_001, 60_000)], per_group=3, seed=5, pool_size=2000
        )
        good = 0
        regrets = []
        for t in tables:
            cpu = OpenMPEngine(28).run(t.counts, t.class_sizes, t.target).simulated_s
            gpu = GpuPartitionedEngine(dim=6).run(
                t.counts, t.class_sizes, t.target
            ).simulated_s
            h = HybridEngine(dim=6)
            plan = build_probe_plan(t.counts, t.class_sizes, t.target)
            choice = "cpu" if h.predict_cpu_s(plan) <= h.predict_gpu_s(plan) else "gpu"
            actual = "cpu" if cpu <= gpu else "gpu"
            good += choice == actual
            regrets.append((cpu if choice == "cpu" else gpu) / min(cpu, gpu))
        # Routing must be right most of the time and never catastrophic.
        assert good >= len(tables) - 2
        assert max(regrets) < 3.0

    def test_hybrid_never_much_worse_than_best_single(self):
        tables = harvest_tables(
            [(300, 8_000), (60_001, 160_000)], per_group=2, seed=6, pool_size=2500
        )
        hybrid_total = 0.0
        best_total = 0.0
        for t in tables:
            args = (t.counts, t.class_sizes, t.target)
            cpu = OpenMPEngine(28).run(*args).simulated_s
            gpu = GpuPartitionedEngine(dim=6).run(*args).simulated_s
            engine = HybridEngine(dim=6)
            hybrid_total += engine.run(*args).simulated_s
            best_total += min(cpu, gpu)
        assert hybrid_total <= 1.5 * best_total

    def test_hybrid_beats_each_single_engine_on_mixed_workload(self):
        # A workload spanning both regimes: the router must beat
        # committing to either device for everything.
        tables = harvest_tables(
            [(300, 6_000), (60_001, 160_000)], per_group=2, seed=8, pool_size=2500
        )
        cpu_total = gpu_total = hybrid_total = 0.0
        for t in tables:
            args = (t.counts, t.class_sizes, t.target)
            cpu_total += OpenMPEngine(28).run(*args).simulated_s
            gpu_total += GpuPartitionedEngine(dim=6).run(*args).simulated_s
            hybrid_total += HybridEngine(dim=6).run(*args).simulated_s
        assert hybrid_total < cpu_total
        assert hybrid_total < gpu_total


class TestAsDPSolver:
    def test_drives_the_ptas(self, small_instance):
        from repro.core.ptas import ptas_schedule

        engine = HybridEngine()
        result = ptas_schedule(small_instance, eps=0.3, dp_solver=engine)
        assert result.makespan > 0
        assert len(engine.choices) == len(result.probes)
