"""Engine tests: value agreement, cost-shape properties, metrics.

The central integration guarantee: every engine — serial, OpenMP, naive
GPU, partitioned GPU at any ``dim`` — produces the *identical* DP-table
(they all implement Equation 1, only the schedule and the hardware
model differ).
"""

import numpy as np
import pytest

from repro.core.dp_reference import dp_reference
from repro.engines.gpu_naive import GpuNaiveEngine
from repro.engines.gpu_partitioned import GpuPartitionedEngine
from repro.engines.openmp_engine import OpenMPEngine
from repro.engines.sequential import SequentialEngine
from repro.errors import SimulationError

PROBE = ([3, 2, 2, 1], [3, 5, 7, 9], 16)


def all_engines():
    return [
        SequentialEngine(),
        OpenMPEngine(threads=16),
        OpenMPEngine(threads=28),
        GpuNaiveEngine(check_memory=False),
        GpuPartitionedEngine(dim=3),
        GpuPartitionedEngine(dim=5),
        GpuPartitionedEngine(dim=6),
        GpuPartitionedEngine(dim=9),
    ]


class TestValueAgreement:
    def test_all_engines_match_reference(self):
        counts, sizes, target = PROBE
        oracle = dp_reference(counts, sizes, target).table
        for engine in all_engines():
            run = engine.run(counts, sizes, target)
            assert np.array_equal(run.dp_result.table, oracle), engine.name

    def test_agreement_on_probe_fixture(self, medium_probe):
        oracle = None
        for engine in all_engines():
            run = engine.run(
                medium_probe.counts, medium_probe.class_sizes, medium_probe.target
            )
            if oracle is None:
                oracle = run.dp_result.table
            else:
                assert np.array_equal(run.dp_result.table, oracle), engine.name

    def test_degenerate_no_long_jobs(self):
        for engine in all_engines():
            run = engine.run([], [], 10)
            assert run.dp_result.opt == 0
            assert run.simulated_s == 0.0


class TestDPSolverProtocol:
    def test_engine_as_dp_solver(self, small_instance):
        from repro.core.ptas import ptas_schedule
        from repro.core.dp_vectorized import dp_vectorized

        engine = GpuPartitionedEngine(dim=4)
        via_engine = ptas_schedule(small_instance, eps=0.3, dp_solver=engine)
        via_default = ptas_schedule(small_instance, eps=0.3, dp_solver=dp_vectorized)
        assert via_engine.makespan == via_default.makespan
        assert engine.total_simulated_s > 0.0

    def test_runs_accumulate(self):
        counts, sizes, target = PROBE
        engine = OpenMPEngine(threads=16)
        engine.run(counts, sizes, target)
        engine.run(counts, sizes, target)
        assert len(engine.runs) == 2
        assert engine.total_simulated_s == pytest.approx(
            sum(r.simulated_s for r in engine.runs)
        )


class TestCostShapes:
    """The calibrated relationships the reproduction relies on."""

    def test_serial_slower_than_openmp(self, medium_probe):
        # On a table big enough to amortize the per-level fork-join
        # overhead, 28 threads must beat one core.
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        serial = SequentialEngine().run(*args)
        omp = OpenMPEngine(threads=28).run(*args)
        assert serial.simulated_s > omp.simulated_s

    def test_omp16_slower_than_omp28(self, medium_probe):
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        t16 = OpenMPEngine(threads=16).run(*args).simulated_s
        t28 = OpenMPEngine(threads=28).run(*args).simulated_s
        assert t16 > t28

    def test_naive_gpu_much_slower_than_openmp(self, medium_probe):
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        naive = GpuNaiveEngine(check_memory=False).run(*args).simulated_s
        omp = OpenMPEngine(threads=28).run(*args).simulated_s
        assert naive > 5 * omp  # §III: "about a hundred times" at scale

    def test_partitioned_beats_naive(self, medium_probe):
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        naive = GpuNaiveEngine(check_memory=False).run(*args).simulated_s
        part = GpuPartitionedEngine(dim=6).run(*args).simulated_s
        assert part < naive / 3

    def test_deterministic_simulated_time(self, medium_probe):
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        a = GpuPartitionedEngine(dim=5).run(*args).simulated_s
        b = GpuPartitionedEngine(dim=5).run(*args).simulated_s
        assert a == b


@pytest.mark.slow
class TestPartitionedMetrics:
    def test_metrics_report_partition_geometry(self, medium_probe):
        run = GpuPartitionedEngine(dim=4).run(
            medium_probe.counts, medium_probe.class_sizes, medium_probe.target
        )
        m = run.metrics
        assert m["dim"] == 4
        assert m["num_blocks"] >= 1
        assert m["cells_per_block"] * m["num_blocks"] == run.table_size
        assert m["scan_scope"] == m["cells_per_block"]

    def test_naive_scan_scope_is_table(self, medium_probe):
        run = GpuNaiveEngine(check_memory=False).run(
            medium_probe.counts, medium_probe.class_sizes, medium_probe.target
        )
        assert run.metrics["scan_scope"] == run.table_size

    def test_naive_bus_utilization_is_strided(self, medium_probe):
        run = GpuNaiveEngine(check_memory=False).run(
            medium_probe.counts, medium_probe.class_sizes, medium_probe.target
        )
        assert run.metrics["avg_bus_utilization"] <= 8 / 128 + 1e-9

    def test_partitioned_bus_utilization_coalesced(self, medium_probe):
        run = GpuPartitionedEngine(dim=5).run(
            medium_probe.counts, medium_probe.class_sizes, medium_probe.target
        )
        assert run.metrics["avg_bus_utilization"] > 0.5

    def test_naive_oom_on_large_table(self):
        # Table-scope candidate buffers blow the 12 GB device memory on
        # a moderate table — the §III-C failure the scheme fixes.
        counts = [9] * 6
        sizes = [40, 45, 50, 55, 60, 65]
        engine = GpuNaiveEngine(check_memory=True)
        with pytest.raises(SimulationError, match="memory"):
            engine.run(counts, sizes, 130)

    def test_partitioned_survives_same_table(self):
        counts = [9] * 6
        sizes = [40, 45, 50, 55, 60, 65]
        run = GpuPartitionedEngine(dim=6).run(counts, sizes, 130)
        assert run.dp_result.feasible

    def test_stream_count_parameter(self, medium_probe):
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        one = GpuPartitionedEngine(dim=5, num_streams=1).run(*args).simulated_s
        four = GpuPartitionedEngine(dim=5, num_streams=4).run(*args).simulated_s
        assert four <= one  # concurrency never hurts in the model


class TestBlockResidencyFlag:
    def test_same_values_lower_footprint(self):
        from repro.analysis.synthetic import synthetic_probe

        probe = synthetic_probe((12, 12, 12, 4))
        base = GpuPartitionedEngine(dim=4).run(
            probe.counts, probe.class_sizes, probe.target
        )
        managed = GpuPartitionedEngine(dim=4, block_residency=True).run(
            probe.counts, probe.class_sizes, probe.target
        )
        assert np.array_equal(base.dp_result.table, managed.dp_result.table)
        assert (
            managed.metrics["table_resident_bytes"]
            < base.metrics["table_resident_bytes"]
        )
        assert managed.metrics["residency_savings"] > 0.0
        assert base.metrics["residency_savings"] == 0.0

    def test_flag_reported_in_metrics(self, medium_probe):
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        run = GpuPartitionedEngine(dim=4, block_residency=True).run(*args)
        assert run.metrics["block_residency"] is True
