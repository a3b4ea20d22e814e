"""Property tests: every backend and both searches agree (satellite of
the executor refactor).

Historically ``run_ptas_gpu`` carried a private copy of the quarter
split whose interval update and final re-probe could drift from
``quarter_split_search`` — the refactor deleted that copy, so the GPU
runner *is* the shared search now, and these properties pin the
agreement down:

* for a fixed search, every registered backend — pure solvers and all
  simulated engines — returns the **identical makespan and final
  target** (the engines compute the same DP values by construction,
  and the executor layer only changes time accounting, never results);
* bisection and quarter split converge to the **identical final
  target**; each reports the best schedule among *its own* accepted
  probes, so cross-search makespans may differ by a hair (both are
  within the ``(1+eps)`` guarantee of the shared target) — that
  difference is seed behaviour protected by the bit-identity
  acceptance criterion, not drift.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import backend_names, resolve
from repro.core.bisection import bisection_search
from repro.core.dp_reference import dp_reference
from repro.core.instance import Instance
from repro.core.quarter_split import quarter_split_search
from repro.engines.runner import run_ptas_gpu


def instances():
    return st.builds(
        Instance,
        times=st.lists(
            st.integers(min_value=1, max_value=60), min_size=4, max_size=16
        ).map(tuple),
        machines=st.integers(min_value=2, max_value=4),
    )


EPS = st.sampled_from([0.2, 0.3, 0.5])


def _resolve(name):
    # Tiny property instances trip the GPU engines' device-memory
    # check long before the tables are interesting; disable it.
    if name.startswith("gpu"):
        return resolve(name, check_memory=False)
    return resolve(name)


@given(inst=instances(), eps=EPS)
@settings(max_examples=25)
def test_pure_solvers_agree_on_both_searches(inst, eps):
    for search in (bisection_search, quarter_split_search):
        reference = search(inst, eps, dp_solver=resolve("vectorized"))
        for name in ("auto", "sweep", "reference"):
            result = search(inst, eps, dp_solver=resolve(name))
            assert result.makespan == reference.makespan, (name, search.__name__)
            assert result.final_target == reference.final_target


@given(inst=instances(), eps=EPS)
@settings(max_examples=6, deadline=None)
def test_every_simulated_backend_agrees_with_vectorized(inst, eps):
    # The whole registry, both searches: identical makespans and final
    # targets per search.  The engines verify their DP values against
    # the reference internally, so a disagreement here would mean the
    # *search plumbing* (executor rounds, cache path) altered results.
    names = backend_names(simulated=True)
    for search in (bisection_search, quarter_split_search):
        reference = search(inst, eps, dp_solver=resolve("vectorized"))
        for name in names:
            result = search(inst, eps, dp_solver=_resolve(name))
            assert result.makespan == reference.makespan, (name, search.__name__)
            assert result.final_target == reference.final_target, (
                name,
                search.__name__,
            )


@given(inst=instances(), eps=EPS)
@settings(max_examples=15, deadline=None)
def test_searches_converge_to_the_same_target(inst, eps):
    b = bisection_search(inst, eps)
    q = quarter_split_search(inst, eps)
    assert b.final_target == q.final_target
    # Makespans may differ (different accepted-probe sets), but both
    # honour the guarantee anchored at the shared converged target.
    bound = (1 + eps) * b.final_target + 1e-9
    assert b.makespan <= bound
    assert q.makespan <= bound


@given(inst=instances(), eps=EPS)
@settings(max_examples=8, deadline=None)
def test_gpu_runner_is_the_shared_quarter_split(inst, eps):
    # The divergence this refactor fixed: the runner used to carry its
    # own loop.  Now it must match the shared search *exactly* —
    # makespan, target, iterations, and the probed-target sequence.
    engine = _resolve("gpu-dim6")
    plain = quarter_split_search(inst, eps, dp_solver=engine)
    run = run_ptas_gpu(inst, eps, dim=6, engine=_resolve("gpu-dim6"))
    assert run.makespan == plain.makespan
    assert run.result.final_target == plain.final_target
    assert run.iterations == plain.iterations
    assert [p.target for p in run.result.probes] == [
        p.target for p in plain.probes
    ]


def probes():
    # Raw DP probes (post-rounding): small enough for the pure-Python
    # reference, varied enough to hit 1-3 dims and empty config sets.
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.integers(min_value=1, max_value=3),
                min_size=d, max_size=d,
            ).map(tuple),
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=d, max_size=d, unique=True,
            ).map(tuple),
            st.integers(min_value=1, max_value=14),
        )
    )


@given(probe=probes())
@settings(max_examples=12, deadline=None)
def test_every_backend_table_is_bit_identical_to_reference(probe):
    # The probe-plan refactor's acceptance criterion: every backend —
    # pure solvers and all plan-interpreting engines — produces a
    # DPResult whose dense table is *bit-identical* to the explicit
    # Algorithm 2 reference, not merely the same OPT.
    counts, sizes, target = probe
    reference = dp_reference(counts, sizes, target)
    for name in backend_names():
        result = _resolve(name)(counts, sizes, target)
        assert result.table.dtype == reference.table.dtype, name
        assert result.table.shape == reference.table.shape, name
        assert np.array_equal(result.table, reference.table), name
        assert np.array_equal(result.configs, reference.configs), name


def test_registry_has_the_expected_simulated_population():
    # Guard: if a new engine is registered, the properties above pick
    # it up automatically; if one vanishes, fail loudly here.
    assert set(backend_names(simulated=True)) >= {
        "serial",
        "omp-16",
        "omp-28",
        "gpu-naive",
        "gpu-dim3",
        "gpu-dim6",
        "gpu-dim9",
        "hybrid",
    }
