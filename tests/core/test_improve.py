"""Tests for the local-search schedule polish."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines import best_baseline, lpt_schedule
from repro.core.baselines.exact import branch_and_bound_optimal
from repro.core.improve import improve_schedule
from repro.core.instance import Instance, uniform_instance
from repro.core.ptas import ptas_schedule
from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError
from repro.models import with_model


def oracle_improve(schedule, max_rounds=100):
    """The per-job scalar move/swap loop the whole-array polish replaced.

    Kept verbatim as the reference: ``(assignment, moves, swaps,
    rounds)`` of :func:`improve_schedule` must equal this loop's.
    """
    times = schedule.instance.times_array()
    assignment = np.asarray(schedule.assignment, dtype=np.int64).copy()
    loads = schedule.loads().copy()

    def max_excluding(a, b, floor):
        best = int(floor)
        for i, load in enumerate(loads):
            if i != a and i != b and int(load) > best:
                best = int(load)
        return best

    moves = swaps = rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        makespan = int(loads.max())
        critical = np.flatnonzero(loads == makespan)
        improved = False
        for machine in critical:
            jobs_here = np.flatnonzero(assignment == machine)
            for j in jobs_here:
                t = int(times[j])
                dest_loads = loads + t
                dest_loads[machine] = loads[machine]
                dest = int(np.argmin(dest_loads))
                if dest == machine:
                    continue
                new_peak = max(
                    int(loads[dest]) + t,
                    max_excluding(machine, dest, loads[machine] - t),
                )
                if new_peak < makespan:
                    assignment[j] = dest
                    loads[machine] -= t
                    loads[dest] += t
                    moves += 1
                    improved = True
                    break
            if improved:
                break
            for j in jobs_here:
                tj = int(times[j])
                others = np.flatnonzero(assignment != machine)
                for o in others:
                    to = int(times[o])
                    if to >= tj:
                        continue
                    other_machine = int(assignment[o])
                    new_here = int(loads[machine]) - tj + to
                    new_there = int(loads[other_machine]) - to + tj
                    new_peak = max(
                        new_here, new_there, max_excluding(machine, other_machine, 0)
                    )
                    if new_peak < makespan:
                        assignment[j] = other_machine
                        assignment[o] = machine
                        loads[machine] = new_here
                        loads[other_machine] = new_there
                        swaps += 1
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return tuple(int(a) for a in assignment), moves, swaps, rounds


def assert_matches_oracle(schedule, max_rounds=100):
    result = improve_schedule(schedule, max_rounds=max_rounds)
    got = (result.schedule.assignment, result.moves, result.swaps, result.rounds)
    assert got == oracle_improve(schedule, max_rounds=max_rounds)


class TestImproveSchedule:
    def test_fixes_obviously_bad_schedule(self):
        inst = Instance(times=(5, 5, 5, 5), machines=2)
        bad = Schedule(inst, assignment=(0, 0, 0, 0))  # everything on one machine
        result = improve_schedule(bad)
        assert result.schedule.makespan == 10  # the optimum
        assert result.improvement == 10

    def test_never_worse(self):
        for seed in range(10):
            inst = uniform_instance(15, 4, low=1, high=50, seed=seed)
            start = ptas_schedule(inst, eps=0.5).schedule
            result = improve_schedule(start)
            assert result.schedule.makespan <= start.makespan

    def test_local_optimum_is_stable(self):
        inst = uniform_instance(12, 3, low=1, high=30, seed=4)
        once = improve_schedule(ptas_schedule(inst, eps=0.5).schedule)
        twice = improve_schedule(once.schedule)
        assert twice.improvement == 0

    def test_schedule_stays_feasible(self):
        inst = uniform_instance(20, 5, low=1, high=40, seed=5)
        result = improve_schedule(ptas_schedule(inst, eps=0.5).schedule)
        assert result.schedule.loads().sum() == inst.total_time

    def test_counts_reported(self):
        inst = Instance(times=(9, 9, 1, 1), machines=2)
        bad = Schedule(inst, assignment=(0, 0, 1, 1))
        result = improve_schedule(bad)
        assert result.moves + result.swaps >= 1
        assert result.rounds >= 1

    def test_swap_needed_case(self):
        # Moves alone cannot fix (9+2 | 8+3 is optimal; start 9+3 | 8+2);
        # only a swap of the 3 and the 2 improves.
        inst = Instance(times=(9, 3, 8, 2), machines=2)
        start = Schedule(inst, assignment=(0, 0, 1, 1))
        result = improve_schedule(start)
        assert result.schedule.makespan == 11

    def test_often_closes_gap_to_optimum(self):
        closed = 0
        for seed in range(8):
            inst = uniform_instance(12, 3, low=1, high=30, seed=100 + seed)
            opt = branch_and_bound_optimal(inst).makespan
            raw = ptas_schedule(inst, eps=0.5).schedule
            polished = improve_schedule(raw).schedule
            if polished.makespan - opt < raw.makespan - opt:
                closed += 1
            assert polished.makespan >= opt
        assert closed >= 3  # polish usually helps coarse-eps schedules

    def test_rejects_bad_rounds(self):
        inst = Instance(times=(1, 2), machines=1)
        with pytest.raises(InvalidInstanceError):
            improve_schedule(Schedule(inst, (0, 0)), max_rounds=0)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30)
@given(
    times=st.lists(st.integers(1, 30), min_size=2, max_size=12).map(tuple),
    machines=st.integers(1, 4),
    data=st.data(),
)
def test_improvement_invariants_property(times, machines, data):
    inst = Instance(times=times, machines=machines)
    assignment = tuple(
        data.draw(st.integers(0, machines - 1)) for _ in range(len(times))
    )
    start = Schedule(inst, assignment)
    result = improve_schedule(start)
    # Never worse, always feasible, improvement consistent.
    assert result.schedule.makespan <= start.makespan
    assert result.schedule.loads().sum() == inst.total_time
    assert result.improvement == start.makespan - result.schedule.makespan


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=150)
@given(
    times=st.lists(st.integers(1, 30), min_size=1, max_size=14).map(tuple),
    machines=st.integers(1, 5),
    max_rounds=st.integers(1, 6) | st.just(100),
    data=st.data(),
)
def test_matches_scalar_oracle_on_arbitrary_schedules(times, machines, max_rounds, data):
    inst = Instance(times=times, machines=machines)
    assignment = tuple(
        data.draw(st.integers(0, machines - 1)) for _ in range(len(times))
    )
    assert_matches_oracle(Schedule(inst, assignment), max_rounds=max_rounds)


class TestOracleOnServedShapes:
    """The schedules the request paths polish: PTAS and baseline answers."""

    @pytest.mark.parametrize("seed", range(12))
    def test_serve_open_shape(self, seed):
        inst = uniform_instance(30, 5, low=5, high=100, seed=700 + seed)
        assert_matches_oracle(ptas_schedule(inst, eps=0.3).schedule)
        assert_matches_oracle(best_baseline(inst)[0])

    @pytest.mark.parametrize("n,m", [(20, 4), (40, 6), (60, 8)])
    def test_batch_decision_shapes(self, n, m):
        for seed in range(3):
            inst = uniform_instance(n, m, low=5, high=100, seed=800 + seed)
            assert_matches_oracle(lpt_schedule(inst))
            # A deliberately poor start exercises long move/swap chains.
            stacked = Schedule(inst, tuple(j % 2 for j in range(n)))
            assert_matches_oracle(stacked)


class TestIdenticalMachinesOnly:
    """Loads are completion times only on identical machines."""

    def test_rejects_few_types(self):
        inst = with_model(
            uniform_instance(12, 4, low=5, high=60, seed=1),
            "unrelated-few-types",
            type_speeds=(1, 2),
            machines_per_type=(2, 2),
        )
        with pytest.raises(InvalidInstanceError, match="identical machines only"):
            improve_schedule(best_baseline(inst)[0])

    def test_rejects_time_restricted(self):
        inst = with_model(
            uniform_instance(12, 4, low=5, high=60, seed=2),
            "time-restricted",
            max_jobs_per_machine=4,
        )
        with pytest.raises(InvalidInstanceError, match="identical machines only"):
            improve_schedule(best_baseline(inst)[0])
