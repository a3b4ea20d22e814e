"""Unit tests for the probe-executor layer (``repro.core.executor``).

The executors own the *time accounting* of a search round: the
sequential model sums probe times; the concurrent model applies the
work/span bound ``max(span, busy_warp_seconds / warp_slots)`` that the
GPU runner used to hard-code.  Probes themselves still run in-process —
only the charged seconds differ — so results never depend on the
executor (property-tested in ``tests/backends/test_agreement.py``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dp_common import empty_dp_result
from repro.core.executor import (
    ConcurrentDeviceExecutor,
    ParallelHostExecutor,
    SequentialExecutor,
    default_executor,
)
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import uniform_instance
from repro.engines.base import EngineRun
from repro.engines.gpu_partitioned import GpuPartitionedEngine
from repro.engines.openmp_engine import OpenMPEngine
from repro.errors import InvalidInstanceError


def make_run(simulated_s, warp_seconds=None):
    metrics = {} if warp_seconds is None else {"warp_seconds_paid": warp_seconds}
    return EngineRun(
        engine="synthetic",
        dp_result=empty_dp_result(),
        simulated_s=simulated_s,
        metrics=metrics,
    )


class TestSequentialExecutor:
    def test_charge_sums_probe_times(self):
        ex = SequentialExecutor()
        assert ex.charge([make_run(1.5), make_run(2.25)]) == pytest.approx(3.75)

    def test_empty_round_costs_nothing(self):
        assert SequentialExecutor().charge([]) == 0.0

    def test_accumulates_across_rounds(self):
        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        engine = OpenMPEngine(threads=16)
        ex = SequentialExecutor()
        from repro.core.bounds import makespan_bounds

        bounds = makespan_bounds(inst)
        ex.run_round(inst, [bounds.lower, bounds.upper], 0.3, engine)
        ex.run_round(inst, [(bounds.lower + bounds.upper) // 2], 0.3, engine)
        assert ex.rounds == 2
        assert ex.elapsed_s == pytest.approx(engine.total_simulated_s)


class TestConcurrentDeviceExecutor:
    def test_empty_round_costs_nothing(self):
        ex = ConcurrentDeviceExecutor(warp_slots=90)
        assert ex.charge([]) == 0.0
        assert ex.elapsed_s == 0.0

    def test_span_dominated_regime(self):
        # Tiny total work, one long probe: the round costs the longest
        # probe (the device sits mostly idle, but cannot finish sooner).
        runs = [make_run(5.0, warp_seconds=1.0), make_run(0.5, warp_seconds=1.0)]
        ex = ConcurrentDeviceExecutor(warp_slots=90)
        assert ex.charge(runs) == pytest.approx(5.0)

    def test_work_dominated_regime(self):
        # Busy work saturates the device: the round costs work/slots,
        # which exceeds every individual probe's span.
        runs = [make_run(1.0, warp_seconds=300.0), make_run(1.0, warp_seconds=300.0)]
        ex = ConcurrentDeviceExecutor(warp_slots=90)
        assert ex.charge(runs) == pytest.approx(600.0 / 90)
        assert ex.charge(runs) > 1.0

    def test_monotone_in_warp_slots(self):
        # More warp slots never make a round slower, and the charge
        # floors out at the span once the device stops being the
        # bottleneck.
        runs = [make_run(2.0, warp_seconds=500.0), make_run(3.0, warp_seconds=100.0)]
        charges = [
            ConcurrentDeviceExecutor(warp_slots=s).charge(runs)
            for s in (1, 2, 10, 90, 10_000)
        ]
        assert charges == sorted(charges, reverse=True)
        assert charges[-1] == pytest.approx(3.0)  # span floor

    def test_missing_metrics_treated_as_zero_work(self):
        runs = [make_run(2.0), make_run(1.0)]
        ex = ConcurrentDeviceExecutor(warp_slots=90)
        assert ex.charge(runs) == pytest.approx(2.0)

    def test_rejects_nonpositive_warp_slots(self):
        with pytest.raises(InvalidInstanceError):
            ConcurrentDeviceExecutor(warp_slots=0)

    def test_for_engine_reads_device_spec(self):
        engine = GpuPartitionedEngine(dim=6)
        ex = ConcurrentDeviceExecutor.for_engine(engine)
        assert ex.warp_slots == engine.spec.warp_slots

    def test_for_engine_rejects_hostlike_solver(self):
        with pytest.raises(InvalidInstanceError):
            ConcurrentDeviceExecutor.for_engine(dp_vectorized)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e3),
                st.floats(min_value=0.0, max_value=1e5),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=512),
    )
    def test_charge_between_span_and_sum(self, probes, warp_slots):
        # The concurrent charge is bracketed: at least the longest
        # probe, at most what a sequential device would pay — provided
        # no probe claims more busy-work than its own span allows
        # (warp_seconds <= simulated_s * warp_slots, which real
        # simulator runs satisfy by construction).
        runs = [
            make_run(s, warp_seconds=min(w, s * warp_slots)) for s, w in probes
        ]
        charge = ConcurrentDeviceExecutor(warp_slots=warp_slots).charge(runs)
        span = max(r.simulated_s for r in runs)
        total = sum(r.simulated_s for r in runs)
        assert span - 1e-9 <= charge <= total + 1e-9


class TestRunRoundAccounting:
    def test_bills_only_new_runs(self):
        # A pre-warmed engine must not be billed for its history.
        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        engine = GpuPartitionedEngine(dim=6)
        from repro.core.bounds import makespan_bounds

        bounds = makespan_bounds(inst)
        # warm-up probe outside any executor
        from repro.core.ptas import probe_target

        probe_target(inst, bounds.upper, 0.3, engine)
        warm = engine.total_simulated_s
        ex = ConcurrentDeviceExecutor.for_engine(engine)
        ex.run_round(inst, [bounds.lower, bounds.upper], 0.3, engine)
        assert ex.elapsed_s <= engine.total_simulated_s - warm + 1e-12

    def test_pure_solver_round_is_free(self):
        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        from repro.core.bounds import makespan_bounds

        bounds = makespan_bounds(inst)
        ex = SequentialExecutor()
        probes = ex.run_round(inst, [bounds.upper], 0.3, dp_vectorized)
        assert len(probes) == 1 and probes[0].accepted
        assert ex.elapsed_s == 0.0 and ex.rounds == 1


class TestParallelHostExecutor:
    def _round_targets(self, inst):
        # A quarter-split-shaped round: four distinct targets spread
        # across the instance's feasible interval.
        from repro.core.bounds import makespan_bounds

        bounds = makespan_bounds(inst)
        step = max(1, bounds.width // 5)
        return [bounds.lower + (i + 1) * step for i in range(4)]

    def test_results_bit_identical_to_sequential(self):
        inst = uniform_instance(30, 5, low=5, high=80, seed=11)
        targets = self._round_targets(inst)
        seq = SequentialExecutor().run_round(inst, targets, 0.3, dp_vectorized)
        par = ParallelHostExecutor(workers=4).run_round(
            inst, targets, 0.3, dp_vectorized
        )
        assert [p.target for p in par] == [p.target for p in seq]
        assert [p.accepted for p in par] == [p.accepted for p in seq]
        for p_par, p_seq in zip(par, seq):
            if p_seq.accepted:
                assert p_par.schedule.assignment == p_seq.schedule.assignment

    def test_round_genuinely_overlaps(self):
        # The acceptance criterion of the real-concurrency work: a
        # four-probe round's wall time must be under the sum of its
        # probes' individual wall times — impossible without overlap.
        # A small eps makes each probe heavy enough (big tables, long
        # numpy kernels with the GIL released) that thread overhead is
        # noise against the overlap (~3x measured at this scale).
        inst = uniform_instance(30, 5, low=5, high=100, seed=23)
        ex = ParallelHostExecutor(workers=4)
        ex.run_round(inst, self._round_targets(inst), 0.16, dp_vectorized)
        assert len(ex.last_probe_wall_s) == 4
        assert ex.last_round_wall_s < sum(ex.last_probe_wall_s)

    def test_parallel_search_matches_sequential_search(self):
        from repro.core.ptas import ptas_schedule

        inst = uniform_instance(30, 5, low=5, high=80, seed=11)
        reference = ptas_schedule(inst, eps=0.3, search="quarter")
        result = ptas_schedule(
            inst, eps=0.3, search="quarter",
            executor=ParallelHostExecutor(workers=4),
        )
        assert result.final_target == reference.final_target
        assert result.makespan == reference.makespan
        assert result.schedule.assignment == reference.schedule.assignment

    def test_simulated_engines_fall_back_to_sequential_accounting(self):
        # Engines with a `runs` log are stateful accumulators: the
        # executor must take the in-order path and charge the
        # sequential sum, exactly like SequentialExecutor would.
        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        targets = self._round_targets(inst)
        par_engine = OpenMPEngine(threads=16)
        seq_engine = OpenMPEngine(threads=16)
        par = ParallelHostExecutor(workers=4)
        seq = SequentialExecutor()
        par.run_round(inst, targets, 0.3, par_engine)
        seq.run_round(inst, targets, 0.3, seq_engine)
        assert par.elapsed_s == pytest.approx(seq.elapsed_s)
        assert par.last_probe_wall_s == []  # threaded path never ran

    def test_single_target_round_stays_sequential(self):
        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        ex = ParallelHostExecutor(workers=4)
        from repro.core.bounds import makespan_bounds

        probes = ex.run_round(
            inst, [makespan_bounds(inst).upper], 0.3, dp_vectorized
        )
        assert len(probes) == 1 and probes[0].accepted
        assert ex.last_probe_wall_s == []

    def test_active_tracer_reaches_worker_threads(self):
        from repro.observability import Tracer

        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        tracer = Tracer()
        targets = self._round_targets(inst)
        with tracer.activate():
            ParallelHostExecutor(workers=4).run_round(
                inst, targets, 0.3, dp_vectorized
            )
        assert tracer.counters.get("executor.parallel_rounds") == 1
        assert len(tracer.probes) == len(targets)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(InvalidInstanceError):
            ParallelHostExecutor(workers=0)


class TestDefaultExecutor:
    def test_device_engine_gets_concurrent(self):
        ex = default_executor(GpuPartitionedEngine(dim=6))
        assert isinstance(ex, ConcurrentDeviceExecutor)

    def test_host_engine_gets_sequential(self):
        ex = default_executor(OpenMPEngine(threads=16))
        assert isinstance(ex, SequentialExecutor)
        assert not isinstance(ex, ConcurrentDeviceExecutor)

    def test_pure_solver_gets_sequential(self):
        assert isinstance(default_executor(dp_vectorized), SequentialExecutor)


class TestParallelWorkerFailure:
    """Regression: a poisoned probe must not leak threads or mask errors."""

    class _Poisoned:
        """Solver that fails on exactly one target, succeeds elsewhere."""

        def __init__(self, poison_target):
            self.poison_target = poison_target

        def __call__(self, counts, class_sizes, target, configs=None):
            if target == self.poison_target:
                raise MemoryError(f"poisoned fill at T={target}")
            from repro.core.dp_vectorized import dp_vectorized

            return dp_vectorized(counts, class_sizes, target, configs=configs)

    def _poisoned_round(self, workers=4):
        import threading

        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        from repro.core.bounds import makespan_bounds

        bounds = makespan_bounds(inst)
        step = max(1, bounds.width // 5)
        targets = [bounds.lower + (i + 1) * step for i in range(4)]
        solver = self._Poisoned(targets[1])
        before = threading.active_count()
        ex = ParallelHostExecutor(workers=workers)
        with pytest.raises(MemoryError, match="poisoned fill"):
            ex.run_round(inst, targets, 0.3, solver)
        return before

    def test_original_exception_propagates(self):
        self._poisoned_round()

    def test_no_leaked_threads(self):
        import threading
        import time

        before = self._poisoned_round()
        # The pool context manager shut down with cancel_futures; give
        # any straggler a beat to exit, then require no thread growth.
        deadline = time.time() + 5.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_sequential_fallback_path_also_propagates(self):
        inst = uniform_instance(20, 4, low=5, high=60, seed=3)
        from repro.core.bounds import makespan_bounds

        target = makespan_bounds(inst).upper
        with pytest.raises(MemoryError):
            SequentialExecutor().run_round(
                inst, [target], 0.3, self._Poisoned(target)
            )


class TestResilienceDispatch:
    def test_executors_accept_resilience_and_stay_identical(self):
        from repro.core.ptas import ptas_schedule
        from repro.resilience import ResiliencePolicy

        inst = uniform_instance(24, 4, low=5, high=70, seed=7)
        reference = ptas_schedule(inst, eps=0.3)
        for ex in (
            SequentialExecutor(resilience=ResiliencePolicy()),
            ParallelHostExecutor(workers=4, resilience=ResiliencePolicy()),
        ):
            result = ptas_schedule(inst, eps=0.3, executor=ex)
            assert result.makespan == reference.makespan
            assert result.final_target == reference.final_target

    def test_default_executor_threads_resilience_through(self):
        from repro.resilience import ResiliencePolicy

        policy = ResiliencePolicy()
        assert default_executor(dp_vectorized, resilience=policy).resilience is policy
        assert (
            default_executor(GpuPartitionedEngine(dim=6), resilience=policy).resilience
            is policy
        )
