"""Unit tests for pre-allocation admission control."""

import numpy as np
import pytest

from repro.core.dp_common import estimate_fill_bytes, pick_table_dtype
from repro.core.executor import SequentialExecutor
from repro.core.instance import Instance
from repro.core.probe_cache import ProbeCache
from repro.core.ptas import ptas_schedule
from repro.dptable.table import TableGeometry
from repro.errors import InvalidInstanceError, MemoryBudgetExceeded
from repro.resilience import AdmissionController, ResiliencePolicy

INST = Instance(machines=3, times=(5, 7, 3, 9, 4, 6, 2))


class TestEstimate:
    def test_matches_dp_common_formula(self):
        counts = (3, 2, 4)
        sigma = 4 * 3 * 5
        dtype = pick_table_dtype(3 + 2 + 4)
        expected = sigma * (dtype.itemsize + np.dtype(np.int64).itemsize)
        assert estimate_fill_bytes(counts) == expected
        assert AdmissionController(10**9).estimate(counts) == expected

    def test_value_bound_narrows_the_dtype(self):
        # A machine-budget bound keeps the fill dtype narrow (int16)
        # even when sum(counts) would force int32; the estimate must
        # honour the same rule the kernels use.
        counts = (40_000,)
        assert pick_table_dtype(40_000).itemsize > pick_table_dtype(4).itemsize
        assert estimate_fill_bytes(counts, value_bound=4) < estimate_fill_bytes(
            counts
        )

    def test_empty_counts_is_one_cell(self):
        assert estimate_fill_bytes(()) > 0


class TestAdmit:
    def test_under_budget_admits_and_returns_estimate(self):
        ctrl = AdmissionController(10**9)
        assert ctrl.admit((2, 2)) == ctrl.estimate((2, 2))

    def test_over_budget_raises_with_shape_and_budget(self):
        ctrl = AdmissionController(memory_budget_bytes=8)
        with pytest.raises(MemoryBudgetExceeded) as err:
            ctrl.admit((9, 9), target=123)
        msg = str(err.value)
        assert "(10, 10)" in msg and "8 bytes" in msg and "T=123" in msg

    def test_admit_geometry_round_trips_counts(self):
        geom = TableGeometry.from_counts((3, 2))
        ctrl = AdmissionController(10**9)
        assert ctrl.admit_geometry(geom, value_bound=5) == ctrl.admit(
            (3, 2), value_bound=5
        )

    def test_budget_validation(self):
        with pytest.raises(InvalidInstanceError):
            AdmissionController(0)


class TestRejectsBeforeAllocation:
    def test_solver_never_invoked_on_rejection(self):
        calls = []

        def spy_solver(counts, class_sizes, target, configs=None):
            calls.append(target)
            raise AssertionError("solver must not run on a rejected probe")

        policy = ResiliencePolicy(admission=AdmissionController(1))
        executor = SequentialExecutor(resilience=policy)
        with pytest.raises(MemoryBudgetExceeded):
            ptas_schedule(INST, eps=0.3, dp_solver=spy_solver, executor=executor)
        assert calls == []

    def test_generous_budget_is_invisible(self):
        baseline = ptas_schedule(INST, eps=0.3)
        policy = ResiliencePolicy(admission=AdmissionController(10**12))
        executor = SequentialExecutor(resilience=policy)
        guarded = ptas_schedule(INST, eps=0.3, executor=executor)
        assert guarded.makespan == baseline.makespan
        assert guarded.schedule.assignment == baseline.schedule.assignment

    def test_hostpar_rejection_precedes_any_segment(self, monkeypatch):
        # MemoryBudgetExceeded must fire from pure arithmetic — before
        # AutoKernel's fabric route creates a single SharedMemory segment.
        from repro.core.kernels import AutoKernel
        from repro.parallel import fabric as fabric_mod
        from repro.parallel.fabric import BlockExecutor

        def forbidden_shm(*args, **kwargs):
            raise AssertionError(
                "no shared segment may be created for a rejected probe"
            )

        monkeypatch.setattr(fabric_mod, "SharedMemory", forbidden_shm)
        monkeypatch.setattr("repro.core.kernels.auto.HOSTPAR_MIN_WORK", 1)
        solver = AutoKernel(fill_fabric=BlockExecutor(workers=2))
        policy = ResiliencePolicy(admission=AdmissionController(1))
        executor = SequentialExecutor(resilience=policy)
        with pytest.raises(MemoryBudgetExceeded):
            ptas_schedule(INST, eps=0.3, dp_solver=solver, executor=executor)

    def test_counter_emitted_on_rejection(self):
        from repro.observability import Tracer

        policy = ResiliencePolicy(admission=AdmissionController(1))
        executor = SequentialExecutor(resilience=policy)
        tracer = Tracer()
        with pytest.raises(MemoryBudgetExceeded):
            ptas_schedule(
                INST, eps=0.3, executor=executor, trace=tracer,
                cache=ProbeCache(),
            )
        assert tracer.counters.get("admission.rejected", 0) >= 1
