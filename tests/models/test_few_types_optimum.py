"""The few-types PTAS against a true optimum.

``brute_force_typed_optimal`` enumerates every assignment of a tiny
typed fleet (``n <= 8``, ``m <= 4``), with completion
``ceil(load / speed)``.  Every few-types PTAS answer must pass the
model's ``check_schedule`` and finish within ``(1 + eps) * OPT`` — the
paper's guarantee, checked against the optimum rather than against the
search's own ``final_target``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines.exact import (
    branch_and_bound_optimal,
    brute_force_typed_optimal,
)
from repro.core.instance import Instance
from repro.core.ptas import ptas_schedule
from repro.errors import InvalidInstanceError
from repro.models import lift_to_few_types, model_for

FLEETS = (
    ((1,), (3,)),
    ((2,), (2,)),
    ((1, 2), (1, 1)),
    ((1, 2), (2, 1)),
    ((1, 2), (2, 2)),
    ((1, 3), (3, 1)),
    ((1, 2, 3), (1, 1, 1)),
    ((1, 2, 4), (2, 1, 1)),
)


@st.composite
def typed_instances(draw):
    speeds, per_type = draw(st.sampled_from(FLEETS))
    times = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    return Instance(
        times=tuple(times),
        machines=sum(per_type),
        model="unrelated-few-types",
        type_speeds=speeds,
        machines_per_type=per_type,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    typed_instances(),
    st.sampled_from([0.2, 0.3, 0.5, 1.0]),
    st.sampled_from(["bisection", "quarter"]),
)
def test_few_types_ptas_is_within_one_plus_eps_of_optimal(inst, eps, search):
    result = ptas_schedule(inst, eps=eps, search=search)
    model_for(inst).check_schedule(result.schedule)
    assert len(result.schedule.assignment) == inst.n_jobs
    opt = brute_force_typed_optimal(inst).makespan
    assert opt <= result.makespan <= (1 + eps) * opt


@settings(max_examples=25, deadline=None)
@given(
    st.builds(
        Instance,
        times=st.lists(st.integers(1, 30), min_size=1, max_size=7).map(tuple),
        machines=st.integers(1, 4),
    )
)
def test_brute_force_agrees_with_branch_and_bound_on_unit_speed_lifts(inst):
    assert brute_force_typed_optimal(lift_to_few_types(inst)).makespan == (
        branch_and_bound_optimal(inst).makespan
    )


def test_brute_force_rounds_completion_up_per_speed():
    # Speeds 1 and 2: the split 4 | 5+3 finishes at max(4, ceil(8/2))
    # = 4, which the volume bound ceil(12 / 3) = 4 says is optimal.
    inst = Instance(
        times=(5, 4, 3),
        machines=2,
        model="unrelated-few-types",
        type_speeds=(1, 2),
        machines_per_type=(1, 1),
    )
    result = brute_force_typed_optimal(inst)
    assert result.makespan == 4
    assert result.schedule.makespan == 4
    assert result.nodes_explored == 2**3


@pytest.mark.parametrize("n, m", [(9, 2), (4, 5)])
def test_brute_force_refuses_large_instances(n, m):
    with pytest.raises(InvalidInstanceError):
        brute_force_typed_optimal(lift_to_few_types(Instance(times=(3,) * n, machines=m)))


@pytest.mark.parametrize(
    "inst",
    [
        Instance(times=(3, 4), machines=2),
        Instance(times=(3, 4), machines=2, model="time-restricted", max_jobs_per_machine=1),
    ],
    ids=["identical", "time-restricted"],
)
def test_brute_force_refuses_other_models(inst):
    with pytest.raises(InvalidInstanceError):
        brute_force_typed_optimal(inst)
