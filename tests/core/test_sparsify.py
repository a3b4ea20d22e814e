"""Configuration sparsification and warm starts (PR 9 tentpole).

The soundness story these tests pin down:

* **Clipped cover fixpoint = exact fixpoint.** Dominance pruning keeps
  only the maximal configurations, and the sparse fill reads the
  recurrence as a cover (``clip(u - c)`` instead of ``u - c``).  On a
  downward-closed set min-cover equals min-partition at *every* cell,
  so the sparse fill's table is bit-identical to the dense one — not
  merely feasibility-equivalent.
* **The exact-subtraction counterexample.** With ``counts=(3,)``,
  ``sizes=(1,)``, ``T=2`` the maximal set is ``{(2,)}`` and exact
  subtraction would strand cell ``(3,)``; the clipped recurrence
  reaches it (``OPT = 2``).  This instance runs through the sparse
  fill below, directly and as ``auto`` runs it.
* **Warm starts seed from above.** A cached table at a strictly
  smaller budget is a pointwise upper bound on the new fixpoint
  (``C(b') ⊆ C(b)``), and the min-relaxation from an upper-bound seed
  with the origin pinned at 0 converges to the exact fixpoint.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.configs import count_subconfigurations, enumerate_configurations
from repro.core.dp_common import UNREACHABLE
from repro.core.dp_reference import dp_reference
from repro.core.dp_vectorized import dp_vectorized, seed_warm_table
from repro.core.kernels import AutoKernel
from repro.core.probe_cache import CacheStats, PlanCache, ProbeCache
from repro.core.sparsify import maximal_mask, sparsify_configurations
from repro.errors import DPError


def probes():
    # Post-rounding DP probes: small enough to cross-check exhaustively,
    # varied enough to cover 1-3 dims, empty sets, and saturated caps.
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.integers(min_value=1, max_value=3), min_size=d, max_size=d
            ).map(tuple),
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=d, max_size=d, unique=True,
            ).map(tuple),
            st.integers(min_value=1, max_value=14),
        )
    )


#: The instance that breaks exact-subtraction maximal pruning.
COUNTEREXAMPLE = ((3,), (1,), 2)


# -- sparsify_configurations / maximal_mask ------------------------------------


@given(probe=probes())
@settings(max_examples=40, deadline=None)
def test_maximal_mask_routes_agree(probe):
    # The arithmetic route (constraints in hand) and the membership
    # route (set lookup only) must produce the same mask on any
    # downward-closed set.
    counts, sizes, target = probe
    configs = enumerate_configurations(sizes, counts, target)
    if configs.shape[0] == 0:
        return
    arithmetic = maximal_mask(
        configs, counts=counts, class_sizes=sizes, target=target
    )
    membership = maximal_mask(configs)
    assert np.array_equal(arithmetic, membership)


@given(probe=probes(), max_jobs=st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_maximal_mask_routes_agree_with_cardinality_cap(probe, max_jobs):
    counts, sizes, target = probe
    configs = enumerate_configurations(sizes, counts, target, max_jobs=max_jobs)
    if configs.shape[0] == 0:
        return
    arithmetic = maximal_mask(
        configs, counts=counts, class_sizes=sizes, target=target,
        max_jobs=max_jobs,
    )
    assert np.array_equal(arithmetic, maximal_mask(configs))


@given(probe=probes())
@settings(max_examples=30, deadline=None)
def test_sparsify_keeps_a_dominating_cover(probe):
    # Every dropped configuration is componentwise <= some kept one,
    # kept rows preserve the original order, and the array is frozen.
    counts, sizes, target = probe
    configs = enumerate_configurations(sizes, counts, target)
    sparse, stats = sparsify_configurations(
        configs, counts=counts, class_sizes=sizes, target=target
    )
    assert stats.kept == sparse.shape[0]
    assert stats.kept + stats.dropped == configs.shape[0]
    if configs.shape[0] == 0:
        return
    assert not sparse.flags.writeable
    for row in configs:
        assert (sparse >= row).all(axis=1).any()
    # Original-order subsequence of the input.
    kept_idx = [
        int(np.flatnonzero((configs == r).all(axis=1))[0]) for r in sparse
    ]
    assert kept_idx == sorted(kept_idx)


def test_sparsify_counterexample_instance():
    counts, sizes, target = COUNTEREXAMPLE
    configs = enumerate_configurations(sizes, counts, target)
    sparse, stats = sparsify_configurations(
        configs, counts=counts, class_sizes=sizes, target=target
    )
    assert sparse.tolist() == [[2]]
    assert stats.dropped == 1  # (1,) dominated; (0,) is never enumerated


def test_support_cap_is_opt_in_and_filters():
    counts, sizes, target = (2, 2), (3, 5), 8
    configs = enumerate_configurations(sizes, counts, target)
    full, _ = sparsify_configurations(
        configs, counts=counts, class_sizes=sizes, target=target
    )
    capped, _ = sparsify_configurations(
        configs, counts=counts, class_sizes=sizes, target=target,
        support_cap=1,
    )
    assert ((capped != 0).sum(axis=1) <= 1).all()
    assert capped.shape[0] <= full.shape[0]


def test_maximal_mask_rejects_bad_shapes():
    with pytest.raises(DPError):
        maximal_mask(np.zeros(3, dtype=np.int64))
    with pytest.raises(DPError):
        maximal_mask(
            np.zeros((2, 3), dtype=np.int64),
            counts=(1, 1), class_sizes=(1,), target=5,
        )


# -- bit-identity of the sparse fills ------------------------------------------


@given(probe=probes())
@settings(max_examples=25, deadline=None)
def test_dp_vectorized_sparse_is_bit_identical(probe):
    counts, sizes, target = probe
    dense = dp_vectorized(counts, sizes, target)
    sparse = dp_vectorized(counts, sizes, target, sparsify=True)
    assert np.array_equal(dense.table, sparse.table)
    # DPResult.configs stays the FULL set: backtrack subtracts exactly.
    assert np.array_equal(dense.configs, sparse.configs)


@pytest.mark.parametrize("probe", [COUNTEREXAMPLE, ((3, 2), (1, 4), 6)])
def test_counterexample_runs_exact_through_every_sparse_path(probe):
    counts, sizes, target = probe
    reference = dp_vectorized(counts, sizes, target)
    assert np.array_equal(
        dp_vectorized(counts, sizes, target, sparsify=True).table,
        reference.table,
    )
    assert np.array_equal(
        AutoKernel(plan_cache=PlanCache())(counts, sizes, target).table,
        reference.table,
    )


def test_counterexample_reaches_the_stranded_cell():
    counts, sizes, target = COUNTEREXAMPLE
    result = dp_vectorized(counts, sizes, target, sparsify=True)
    assert int(result.table[3]) == 2  # exact subtraction would strand it


@given(probe=probes(), machines=st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_dp_decision_sparse_matches_dense_feasibility(probe, machines):
    # Decision fills may early-accept, so interior cells are not
    # bitwise-comparable — but the feasibility verdict and every cell
    # at or below the clamp (the cells backtrack can visit) must agree.
    counts, sizes, target = probe
    dense = dp_vectorized(counts, sizes, target, machines=machines)
    sparse = dp_vectorized(
        counts, sizes, target, machines=machines, sparsify=True
    )
    assert dense.opt == sparse.opt
    assert dense.decided_infeasible == sparse.decided_infeasible
    if dense.decided_infeasible:
        # Rejected probes are never backtracked; a load-reject returns
        # the clamp-initialised table whose interior is deliberately
        # inexact (see dp_vectorized's docstring), so only the
        # verdict is comparable.
        return
    # Accepted probes: every cell backtrack can visit (true OPT at or
    # below the clamp) must be exact in both fills.
    exact = dp_vectorized(counts, sizes, target).table
    final = exact <= machines
    for table in (dense.table, sparse.table):
        assert np.array_equal(table[final], exact[final])


# -- warm starts ---------------------------------------------------------------


@given(probe=probes(), delta=st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_warm_fill_equals_cold_fixpoint(probe, delta):
    # Seed the fill at target T+delta from the cached table at T: the
    # warm fixpoint must be bit-identical to the exact cold table.
    counts, sizes, target = probe
    cold_small = dp_vectorized(counts, sizes, target)
    big = target + delta
    cold_big = dp_vectorized(counts, sizes, big)
    warm = dp_vectorized(
        counts, sizes, big, warm_table=cold_small.table
    )
    assert np.array_equal(warm.table, cold_big.table)


@given(probe=probes(), delta=st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_warm_decision_fill_is_exact(probe, delta):
    counts, sizes, target = probe
    # Every size fitting the smaller budget rules out unreachable cells
    # and the O(1) load-reject shortcut (whose clamp-initialised tables
    # are deliberately inexact in the interior), so with a non-binding
    # clamp the warm decision fixpoint must equal the exact table.
    assume(max(sizes) <= target)
    machines = int(sum(counts)) + 1  # clamp never binds
    small = dp_vectorized(counts, sizes, target, machines=machines)
    warm = dp_vectorized(
        counts, sizes, target + delta, machines=machines,
        warm_table=small.table,
    )
    exact = dp_vectorized(counts, sizes, target + delta)
    assert np.array_equal(warm.table, exact.table)


@pytest.mark.parametrize("machines", [None, 3])
def test_sparse_fill_closes_a_non_closed_warm_seed(machines):
    # Any upper-bound seed is a valid warm table, closed or not.  Here
    # no box pass over the maximal configs {(2,1), (0,2)} improves the
    # seed in round one; only the closure sweeps fix (1,0), (0,1) and
    # (2,0), and only then can (1,2) and (2,2) be relaxed from them.
    counts, sizes, target = (2, 2), (3, 5), 12
    exact = dp_reference(counts, sizes, target).table
    seed = exact.copy()
    for cell in [(1, 0), (0, 1), (2, 0), (1, 2), (2, 2)]:
        seed[cell] = UNREACHABLE
    warm = dp_vectorized(
        counts, sizes, target, machines=machines, sparsify=True,
        warm_table=seed,
    )
    assert np.array_equal(warm.table, exact)


def test_seed_warm_table_caps_and_preserves_origin():
    counts, sizes, target = (2, 2), (2, 3), 7
    result = dp_vectorized(counts, sizes, target)
    table = np.full_like(result.table, 99)
    seeded = seed_warm_table(table, result.table, cap=3)
    assert int(seeded.reshape(-1)[0]) == 0
    assert seeded.max() <= 4  # cap + 1 sentinel ceiling
    assert seeded.shape == table.shape


# -- satellite 1: count_subconfigurations --------------------------------------


@given(probe=probes())
@settings(max_examples=40, deadline=None)
def test_count_subconfigurations_matches_python_reference(probe):
    counts, sizes, target = probe
    configs = enumerate_configurations(sizes, counts, target)
    rng = np.random.default_rng(7)
    cells = [np.asarray(counts)] + [
        rng.integers(0, np.asarray(counts) + 1) for _ in range(4)
    ]
    for cell in cells:
        expected = sum(
            1
            for row in configs.tolist()
            if all(int(r) <= int(c) for r, c in zip(row, cell))
        )
        assert count_subconfigurations(configs, cell) == expected


# -- satellite 2: stats robustness ---------------------------------------------


def test_hit_rate_is_zero_for_unseen_kinds():
    stats = CacheStats()
    # Unrecorded kinds must never KeyError.
    assert stats.hit_rate("warmstart") == 0.0
    stats.record("warmstart", True)
    stats.record("warmstart", False)
    assert stats.hit_rate("warmstart") == 0.5
    assert stats.hit_rate("never-recorded") == 0.0


# -- cache integration ---------------------------------------------------------


def test_probe_cache_registers_and_reuses_warm_tables():
    kernel = AutoKernel(plan_cache=PlanCache(), machines=3)
    cache = ProbeCache()
    # Drive the cache through its public dp() via the kernel protocol:
    # two probes in the same family at increasing budgets.
    from repro.core.instance import Instance
    from repro.core.ptas import probe_target

    inst = Instance(times=(9, 8, 7, 7, 3, 2), machines=3)
    probe_target(inst, 14, 0.3, dp_solver=kernel, cache=cache)
    first = dict(cache.stats.misses)
    probe_target(inst, 15, 0.3, dp_solver=kernel, cache=cache)
    attempts = cache.stats.hits.get("warmstart", 0) + cache.stats.misses.get(
        "warmstart", 0
    )
    assert attempts >= first.get("warmstart", 0)  # warm machinery engaged


def test_warm_and_cold_results_agree_end_to_end():
    from repro.core.instance import uniform_instance
    from repro.core.ptas import ptas_schedule

    inst = uniform_instance(18, 3, low=1, high=40, seed=11)
    warm = ptas_schedule(
        inst, eps=0.2, dp_solver=AutoKernel(plan_cache=PlanCache()),
        cache=ProbeCache(),
    )
    cold = ptas_schedule(
        inst, eps=0.2, dp_solver=AutoKernel(plan_cache=PlanCache()), cache=None
    )
    bare = ptas_schedule(inst, eps=0.2)
    assert warm.makespan == cold.makespan == bare.makespan
    assert warm.final_target == cold.final_target == bare.final_target


def test_plan_cache_seeds_level_schedule_across_same_shape():
    cache = PlanCache()
    counts, sizes = (2, 3), (4, 5)
    a = cache.plan(counts, sizes, 20)
    a.level_schedule  # materialise on the resident mate
    b = cache.plan(counts, sizes, 23)  # same shape, different budget
    assert b is not a
    assert "level_schedule" in b.__dict__  # inherited, not rebuilt
    assert b.__dict__["level_schedule"] is a.__dict__["level_schedule"]
    assert cache.stats.hits.get("warmstart", 0) >= 1
