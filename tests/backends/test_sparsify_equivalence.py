"""The pruned relaxation fill agrees with the full-set fills.

``auto`` and ``vectorized`` relax over the dominance-pruned maximal
configurations (:mod:`repro.core.sparsify`); ``reference`` and
``sweep`` fill over the full set.  Because the clipped cover fixpoint
is bit-identical to the full-set one, the pruned fills must run the
same search as the full-set backends under all three machine models —
exact, and clamped at the machine budget — down to the final target,
the makespan and the assignment, and a bare ``dp_vectorized`` must
return ``dp_reference``'s tables exactly, cold and warm-seeded.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

import repro.core.kernels.auto as auto_mod
from repro.backends import resolve
from repro.core.dp_reference import dp_reference
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance
from repro.core.ptas import probe_target, ptas_schedule
from repro.models import (
    lift_to_few_types,
    lift_to_time_restricted,
    model_for,
    with_model,
)


def instances():
    return st.builds(
        Instance,
        times=st.lists(
            st.integers(min_value=1, max_value=60), min_size=4, max_size=12
        ).map(tuple),
        machines=st.integers(min_value=2, max_value=4),
    )


EPS = st.sampled_from([0.2, 0.3, 0.5])
DENSE = ("reference", "sweep")


def _clamped(clamp):
    """``auto`` clamps budget-bound fills only above a table-size
    floor; lowering it to 0 makes every small probe clamp."""
    if not clamp:
        return nullcontext()
    return mock.patch.object(auto_mod, "SMALL_TABLE_CELLS", 0)


def _models(inst):
    return (
        inst,
        lift_to_few_types(inst),
        lift_to_time_restricted(inst),
    )


def _assert_same_answer(a, b, label):
    assert a.final_target == b.final_target, label
    assert a.makespan == b.makespan, label
    assert a.schedule.assignment == b.schedule.assignment, label


@given(inst=instances(), eps=EPS)
@settings(max_examples=8, deadline=None)
def test_pure_kernels_sparsified_probes_match_across_models(inst, eps):
    for modelled in _models(inst):
        dense = {
            name: ptas_schedule(modelled, eps=eps, dp_solver=resolve(name))
            for name in DENSE
        }
        for clamp in (False, True):
            with _clamped(clamp):
                sparse = ptas_schedule(modelled, eps=eps, dp_solver=resolve("auto"))
            for name, answer in dense.items():
                _assert_same_answer(sparse, answer, (name, clamp, modelled.model))


@given(inst=instances(), eps=EPS, offset=st.integers(min_value=0, max_value=5))
@settings(max_examples=12, deadline=None)
def test_probe_level_feasibility_iff_across_models(inst, eps, offset):
    # One probe, pruned set vs full set: identical accept/reject at
    # targets on both sides of the threshold, under every model.
    from repro.core.bounds import makespan_bounds

    for modelled in _models(inst):
        bounds = makespan_bounds(modelled)
        target = min(bounds.upper, bounds.lower + offset)
        dense = probe_target(modelled, target, eps, dp_solver=resolve("reference"))
        for clamp in (False, True):
            with _clamped(clamp):
                sparse = probe_target(modelled, target, eps, dp_solver=resolve("auto"))
            assert sparse.accepted == dense.accepted, (clamp, modelled.model)
            if sparse.accepted:
                assert sparse.schedule.makespan == dense.schedule.makespan


def test_hostpar_sparsified_probes_match_once(monkeypatch):
    # AutoKernel's library-only fabric route, exercised once outside
    # hypothesis (it owns a process pool), against the full-set
    # reference fill under all three models.  The routing floors are
    # lowered and the machine budget is never bound, so every fill
    # takes the hostpar route.
    from repro.core.kernels import AutoKernel
    from repro.observability import Tracer
    from repro.parallel.fabric import BlockExecutor

    class ExactAutoKernel(AutoKernel):
        def bind_machines(self, machines):
            return self

    monkeypatch.setattr(auto_mod, "HOSTPAR_MIN_WORK", 1)
    monkeypatch.setattr(auto_mod, "SMALL_TABLE_CELLS", 0)
    inst = Instance(times=(23, 19, 17, 13, 11, 7, 5, 3), machines=3)
    with BlockExecutor(workers=2) as fab:
        for modelled in _models(inst):
            tracer = Tracer()
            sparse = ptas_schedule(
                modelled,
                eps=0.3,
                dp_solver=ExactAutoKernel(fill_fabric=fab),
                trace=tracer,
            )
            dense = ptas_schedule(
                modelled, eps=0.3, dp_solver=resolve("reference")
            )
            _assert_same_answer(sparse, dense, modelled.model)
            assert tracer.counters.get("kernel.auto.hostpar", 0) > 0, modelled.model
            assert set(tracer.counters) & {
                "kernel.auto.decision", "kernel.auto.vectorized"
            } == set(), modelled.model


def test_sparse_tables_bit_identical_under_model_tokens():
    # The few-types/time-restricted fills thread model tokens through
    # the plan cache; auto's pruned fill must stay bit-identical to the
    # full-set dp_reference fill on those filtered sets too.
    from repro.core.kernels import AutoKernel
    from repro.core.probe_cache import PlanCache

    inst = Instance(times=(40, 33, 21, 18, 9, 6, 5), machines=3)
    fleets = _models(inst) + (
        lift_to_time_restricted(inst, max_jobs=3),
        with_model(
            inst, "unrelated-few-types", type_speeds=(1, 2), machines_per_type=(2, 1)
        ),
    )
    tokens = 0
    for modelled in fleets:
        for eps in (0.2, 0.4):
            for probe in ptas_schedule(modelled, eps=eps).probes:
                for fill in model_for(modelled).fills(probe.rounded):
                    if not fill.counts:
                        continue
                    configs = fill.enumerate()
                    token = fill.token
                    tokens += token is not None
                    args = (fill.counts, fill.class_sizes, fill.budget)
                    sparse = AutoKernel(plan_cache=PlanCache())(
                        *args, configs=configs, model_token=token
                    )
                    dense = dp_reference(*args, configs=configs, model_token=token)
                    assert sparse.table.dtype == dense.table.dtype
                    assert np.array_equal(sparse.table, dense.table)
    assert tokens > 0


@given(inst=instances(), eps=EPS, delta=st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_bare_dp_vectorized_matches_reference_across_models(inst, eps, delta):
    # Every fill a search makes, under every model: the bare pruned
    # fill is bit-identical to the full-set reference exact, agrees
    # with it wherever a clamped table is readable, and a warm seed
    # from a smaller budget of the same fill changes nothing.
    for modelled in _models(inst):
        machines = modelled.machines
        model = model_for(modelled)
        for probe in ptas_schedule(modelled, eps=eps).probes:
            for fill in model.fills(probe.rounded):
                if not fill.counts:
                    continue
                args = (fill.counts, fill.class_sizes, fill.budget)
                configs = fill.enumerate()
                token = fill.token
                case = (modelled.model, args)
                ref = dp_reference(*args, configs=configs, model_token=token)
                exact = dp_vectorized(*args, configs=configs, model_token=token)
                assert np.array_equal(exact.table, ref.table), case

                clamped = dp_vectorized(
                    *args, configs=configs, model_token=token, machines=machines
                )
                reject = ref.opt > machines
                assert clamped.decided_infeasible == reject, case
                if not reject:
                    final = ref.table <= machines
                    assert np.array_equal(clamped.table[final], ref.table[final]), case

                if fill.budget - delta < 1:
                    continue
                smaller = dataclasses.replace(fill, budget=fill.budget - delta)
                seed = dp_vectorized(
                    fill.counts, fill.class_sizes, smaller.budget,
                    configs=smaller.enumerate(), model_token=token,
                ).table
                warm = dp_vectorized(
                    *args, configs=configs, model_token=token, warm_table=seed
                )
                assert np.array_equal(warm.table, ref.table), case
