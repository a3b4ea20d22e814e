"""Feasibility equivalence of sparsified probes (PR 9, satellite 3).

The acceptance property of configuration sparsification: a decision
probe is feasible with the dominance-pruned configuration set **iff**
it is feasible with the full set — for every sparsify-aware backend in
the registry and under all three machine models.  Because the clipped
cover fixpoint is bit-identical to the dense one, the stronger end-to-
end form is asserted here: the same final target and the same makespan,
probe sequence for probe sequence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import iter_backends, resolve
from repro.core.instance import Instance
from repro.core.ptas import probe_target, ptas_schedule
from repro.models import lift_to_few_types, lift_to_time_restricted


def instances():
    return st.builds(
        Instance,
        times=st.lists(
            st.integers(min_value=1, max_value=60), min_size=4, max_size=12
        ).map(tuple),
        machines=st.integers(min_value=2, max_value=4),
    )


EPS = st.sampled_from([0.2, 0.3, 0.5])

#: every canonical backend whose factory accepts the sparsify knob.
SPARSIFY_AWARE = [s.name for s in iter_backends() if s.sparsify_aware]


def _solver(name, sparsify):
    kwargs = {"sparsify": sparsify}
    if name.startswith("gpu"):
        kwargs["check_memory"] = False
    return resolve(name, **kwargs)


def _models(inst):
    return (
        inst,
        lift_to_few_types(inst),
        lift_to_time_restricted(inst),
    )


def test_registry_exposes_the_expected_sparsify_population():
    assert set(SPARSIFY_AWARE) >= {
        "decision",
        "sweep",
        "auto",
        "serial",
        "omp-16",
        "omp-28",
        "gpu-naive",
        "gpu-dim3",
        "gpu-dim6",
        "gpu-dim9",
        "hybrid",
    }


@given(inst=instances(), eps=EPS)
@settings(max_examples=8, deadline=None)
def test_pure_kernels_sparsified_probes_match_across_models(inst, eps):
    for name in ("decision", "sweep", "auto"):
        for modelled in _models(inst):
            on = ptas_schedule(modelled, eps=eps, dp_solver=_solver(name, True))
            off = ptas_schedule(
                modelled, eps=eps, dp_solver=_solver(name, False)
            )
            assert on.final_target == off.final_target, (name, modelled.model)
            assert on.makespan == off.makespan, (name, modelled.model)


@given(inst=instances(), eps=EPS)
@settings(max_examples=3, deadline=None)
def test_simulated_engines_sparsified_probes_match_across_models(inst, eps):
    names = [n for n in SPARSIFY_AWARE if n not in ("decision", "sweep", "auto")]
    # One engine family member each is enough per example — the family
    # shares one fill path; the full population runs in the agreement
    # suite.
    for name in ("serial", "omp-16", "gpu-naive", "gpu-dim3", "hybrid"):
        assert name in names
        for modelled in _models(inst):
            on = ptas_schedule(modelled, eps=eps, dp_solver=_solver(name, True))
            off = ptas_schedule(
                modelled, eps=eps, dp_solver=_solver(name, False)
            )
            assert on.final_target == off.final_target, (name, modelled.model)
            assert on.makespan == off.makespan, (name, modelled.model)


@given(inst=instances(), eps=EPS, offset=st.integers(min_value=0, max_value=5))
@settings(max_examples=12, deadline=None)
def test_probe_level_feasibility_iff_across_models(inst, eps, offset):
    # The literal satellite property: one probe, sparsified set vs full
    # set, identical accept/reject — at targets on both sides of the
    # threshold, under every model.
    from repro.core.bounds import makespan_bounds

    for modelled in _models(inst):
        bounds = makespan_bounds(modelled)
        target = min(bounds.upper, bounds.lower + offset)
        on = probe_target(
            modelled, target, eps, dp_solver=_solver("decision", True)
        )
        off = probe_target(
            modelled, target, eps, dp_solver=_solver("decision", False)
        )
        assert on.accepted == off.accepted, modelled.model
        if on.accepted:
            assert on.schedule.makespan == off.schedule.makespan


def test_hostpar_sparsified_probes_match_once(monkeypatch):
    # AutoKernel's library-only fabric route, exercised once outside
    # hypothesis (it owns a process pool); both knob positions, all
    # three models.  The routing floors are lowered and the machine
    # budget is never bound, so every fill takes the hostpar route.
    import repro.core.kernels.auto as auto_mod
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
            on = ptas_schedule(
                modelled,
                eps=0.3,
                dp_solver=ExactAutoKernel(fill_fabric=fab, sparsify=True),
                trace=tracer,
            )
            off = ptas_schedule(
                modelled,
                eps=0.3,
                dp_solver=ExactAutoKernel(fill_fabric=fab, sparsify=False),
                trace=tracer,
            )
            assert on.final_target == off.final_target, modelled.model
            assert on.makespan == off.makespan, modelled.model
            assert tracer.counters.get("kernel.auto.hostpar", 0) > 0, modelled.model
            assert set(tracer.counters) & {
                "kernel.auto.decision", "kernel.auto.vectorized"
            } == set(), modelled.model


def test_sparse_tables_bit_identical_under_model_tokens():
    # The few-types/time-restricted fills thread model tokens through
    # the plan cache; the sparse fill must stay bit-identical to the
    # dense one on those filtered sets too.
    from repro.core.kernels.sweep import SweepKernel

    inst = Instance(times=(40, 33, 21, 18, 9, 6, 5), machines=3)
    for modelled in _models(inst):
        for eps in (0.2, 0.4):
            on = ptas_schedule(
                modelled, eps=eps, dp_solver=SweepKernel(sparsify=True)
            )
            off = ptas_schedule(
                modelled, eps=eps, dp_solver=SweepKernel(sparsify=False)
            )
            assert on.final_target == off.final_target
            for a, b in zip(on.probes, off.probes):
                assert a.target == b.target
                assert a.accepted == b.accepted
            assert np.array_equal(
                on.schedule.assignment, off.schedule.assignment
            )
