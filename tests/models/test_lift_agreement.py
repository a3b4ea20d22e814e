"""Cross-model agreement: the lifts are bit-identical to identical machines.

The machine-model refactor's acceptance criterion (satellite of the
``repro.models`` abstraction): an identical-machines instance lifted to
a 1-type unit-speed ``unrelated-few-types`` fleet — or to
``time-restricted`` with a non-binding cap ``B >= n`` — must run the
*same search*: the same probed targets, bit-identical DP tables and
configuration sets probe for probe, the same final target, the same
makespan, and the same assignment.  Three alignments make this an
equality rather than an approximation, and these properties pin each
down:

* both lifted models' bisection intervals reduce to the identical
  formula (``max(area, max)`` .. ``area + max``) when the lift is
  non-binding, so the probed-target sequences coincide;
* the few-types 1-type composition and short placement are step-for-step
  the identical model's backtrack and heap placement;
* the time-restricted capped-LPT fallback accepts only at
  ``makespan <= T`` (no slack), so it can never flip a probe the
  identical model rejects while the cap is non-binding.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import backend_names, resolve
from repro.core.instance import Instance
from repro.core.ptas import ptas_schedule
from repro.models import lift_to_few_types, lift_to_time_restricted


def instances():
    return st.builds(
        Instance,
        times=st.lists(
            st.integers(min_value=1, max_value=60), min_size=4, max_size=14
        ).map(tuple),
        machines=st.integers(min_value=2, max_value=4),
    )


EPS = st.sampled_from([0.2, 0.3, 0.5])
SEARCHES = st.sampled_from(["bisection", "quarter"])
LIFTS = (lift_to_few_types, lift_to_time_restricted)


def _resolve(name):
    # Tiny property instances trip the GPU engines' device-memory
    # check long before the tables are interesting; disable it.
    if name.startswith("gpu"):
        return resolve(name, check_memory=False)
    return resolve(name)


@given(inst=instances(), eps=EPS, search=SEARCHES)
@settings(max_examples=20, deadline=None)
# A rejected exact probe that needs m + 2 machines: the 1-type lift
# must report the machines its placement opened, not m + 1.
@example(inst=Instance(times=(3,) * 5, machines=3), eps=0.2, search="bisection")
def test_lifts_are_search_identical_on_exact_solvers(inst, eps, search):
    # Probe-for-probe bit-identity: same target sequence, same dense
    # tables, same configuration sets — not merely the same answer.
    # Exact solvers only: decision-capable backends legitimately clamp
    # the identical fill (machine_clamp=m) where the lifted few-types
    # fill demands an exact table, so their *tables* differ by design
    # (the results still agree; the property below covers them).
    for name in ("vectorized", "reference"):
        base = ptas_schedule(inst, eps=eps, search=search, dp_solver=resolve(name))
        for lift in LIFTS:
            lifted = ptas_schedule(
                lift(inst), eps=eps, search=search, dp_solver=resolve(name)
            )
            assert lifted.final_target == base.final_target, (name, lift.__name__)
            assert lifted.makespan == base.makespan, (name, lift.__name__)
            assert (
                lifted.schedule.assignment == base.schedule.assignment
            ), (name, lift.__name__)
            assert len(lifted.probes) == len(base.probes)
            for pl, pb in zip(lifted.probes, base.probes):
                assert pl.target == pb.target
                assert pl.machines_needed == pb.machines_needed
                assert pl.dp_result.table.dtype == pb.dp_result.table.dtype
                assert np.array_equal(pl.dp_result.table, pb.dp_result.table)
                assert np.array_equal(pl.dp_result.configs, pb.dp_result.configs)


@given(inst=instances(), eps=EPS)
@settings(max_examples=5, deadline=None)
def test_lifts_agree_on_every_registry_backend(inst, eps):
    # The whole registry: every backend must give the lifted instance
    # the identical instance's makespan, final target, and assignment.
    for name in backend_names():
        base = ptas_schedule(inst, eps=eps, dp_solver=_resolve(name))
        for lift in LIFTS:
            lifted_inst = lift(inst)
            lifted = ptas_schedule(lifted_inst, eps=eps, dp_solver=_resolve(name))
            assert lifted.makespan == base.makespan, (name, lift.__name__)
            assert lifted.final_target == base.final_target, (name, lift.__name__)
            assert (
                lifted.schedule.assignment == base.schedule.assignment
            ), (name, lift.__name__)


@given(inst=instances(), eps=EPS, search=SEARCHES)
@settings(max_examples=15, deadline=None)
def test_lifted_schedules_verify_under_their_own_model(inst, eps, search):
    from repro.models import verify_schedule

    for lift in LIFTS:
        result = ptas_schedule(lift(inst), eps=eps, search=search)
        verify_schedule(result.schedule)
        # The identical-machines (1 + eps) guarantee survives the lift.
        assert result.makespan <= (1 + eps) * result.final_target + 1e-9
