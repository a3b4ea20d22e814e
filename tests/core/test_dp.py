"""Tests for the DP solvers: reference, vectorized, and their agreement.

The reference solver is the oracle (a literal transcription of
Equation 1); the vectorized solver must match it cell-for-cell, and
both must satisfy the recurrence's semantic characterisation: OPT(u) is
the minimum number of configurations from C summing componentwise to u.
"""


import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backtrack import extract_machine_configurations
from repro.core.configs import enumerate_configurations
from repro.core.dp_common import DPResult, UNREACHABLE, empty_dp_result
from repro.core.dp_reference import dp_reference, dp_reference_for
from repro.core.dp_vectorized import (
    MIN_BLOCK_CELLS,
    closure_views,
    dp_vectorized,
    dp_vectorized_for,
    run_closure_sweeps,
    shift_selectors,
)
from repro.errors import DPError


def min_cover_oracle(counts, configs, limit=6):
    """Exhaustive: least number of configs (with repetition) summing to N."""
    target = tuple(counts)
    frontier = {(0,) * len(counts)}
    for machines in range(1, limit + 1):
        nxt = set()
        for u in frontier:
            for c in configs:
                v = tuple(a + b for a, b in zip(u, c))
                if all(x <= t for x, t in zip(v, target)):
                    if v == target:
                        return machines
                    nxt.add(v)
        frontier = nxt
        if not frontier:
            break
    return None


class TestDPReference:
    def test_origin_is_zero(self):
        r = dp_reference([2, 2], [3, 5], 10)
        assert r.table[0, 0] == 0

    def test_single_class_exact(self):
        # sizes (4), budget 10 -> 2 jobs per machine; OPT(n) = ceil(n/2).
        r = dp_reference([5], [4], 10)
        assert r.table.tolist() == [0, 1, 1, 2, 2, 3]

    def test_matches_min_cover_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            counts = rng.integers(1, 4, size=d).tolist()
            sizes = rng.integers(2, 9, size=d).tolist()
            target = int(rng.integers(6, 25))
            r = dp_reference(counts, sizes, target)
            configs = [tuple(c) for c in r.configs.tolist()]
            oracle = min_cover_oracle(counts, configs, limit=sum(counts))
            if oracle is None:
                assert not r.feasible
            else:
                assert r.opt == oracle, (counts, sizes, target)

    def test_unreachable_when_job_too_large(self):
        r = dp_reference([1], [50], 10)
        assert not r.feasible
        assert r.opt >= UNREACHABLE

    def test_partial_reachability(self):
        # One class fits, the other does not.
        r = dp_reference([1, 1], [5, 50], 10)
        assert r.table[1, 0] == 1
        assert r.table[0, 1] >= UNREACHABLE
        assert not r.feasible

    def test_monotone_in_levels(self):
        # OPT never decreases when adding jobs componentwise.
        r = dp_reference([3, 2], [3, 7], 12)
        t = r.table
        for idx in np.ndindex(t.shape):
            for axis in range(t.ndim):
                if idx[axis] + 1 < t.shape[axis]:
                    nxt = list(idx)
                    nxt[axis] += 1
                    assert t[tuple(nxt)] >= t[idx]

    def test_empty_counts(self):
        r = dp_reference([], [], 10)
        assert r.opt == 0 and r.shape == ()

    def test_rejects_mismatched_arity(self):
        with pytest.raises(DPError):
            dp_reference([1, 2], [3], 10)


class TestDPVectorized:
    def test_equals_reference_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(12):
            d = int(rng.integers(1, 5))
            counts = rng.integers(1, 4, size=d).tolist()
            sizes = rng.integers(2, 10, size=d).tolist()
            target = int(rng.integers(5, 30))
            a = dp_reference(counts, sizes, target)
            b = dp_vectorized(counts, sizes, target)
            assert np.array_equal(a.table, b.table), (counts, sizes, target)

    def test_equals_reference_on_probe(self, medium_probe):
        a = dp_reference_for(medium_probe)
        b = dp_vectorized_for(medium_probe)
        assert np.array_equal(a.table, b.table)

    def test_no_configs_leaves_table_unreachable(self):
        r = dp_vectorized([2], [50], 10)
        assert r.table[0] == 0
        assert (r.table[1:] >= UNREACHABLE).all()

    def test_max_rounds_guard(self):
        with pytest.raises(DPError, match="converge"):
            dp_vectorized([5], [4], 10, max_rounds=0)

    def test_converges_within_default_rounds(self):
        # Defensive: the default cap (n' + 1) always suffices.
        r = dp_vectorized([6, 6], [3, 5], 11)
        assert r.feasible

    def test_empty_counts(self):
        assert dp_vectorized([], [], 5).opt == 0

    def test_shared_configs_reused(self, medium_probe):
        configs = enumerate_configurations(
            medium_probe.class_sizes, medium_probe.counts, medium_probe.target
        )
        r = dp_vectorized_for(medium_probe, configs)
        assert r.configs is configs

    def test_scratch_reuse_is_bit_identical(self):
        # The per-pass candidate buffer is now one preallocated scratch
        # array reused across every config pass of every round; the
        # aliasing-safe formulation must stay bit-identical to the
        # reference on a probe with many configs (many reuses per round).
        counts, sizes, target = [3, 3, 2, 2], [2, 3, 5, 7], 17
        reference = dp_reference(counts, sizes, target)
        first = dp_vectorized(counts, sizes, target)
        second = dp_vectorized(counts, sizes, target)
        assert first.table.dtype == np.int64
        assert np.array_equal(first.table, reference.table)
        assert np.array_equal(first.table, second.table)


def _trim(vector, cap):
    """Lower the largest entries of ``vector`` until ``prod(v + 1) <= cap``."""
    vector = list(vector)
    while math.prod(v + 1 for v in vector) > cap:
        vector[vector.index(max(vector))] -= 1
    return vector


@st.composite
def blocked_fills(draw):
    """A table shape, a downward-closed configuration set and its layout.

    The shapes sit on purpose on both sides of the block boundary:
    tables under :data:`MIN_BLOCK_CELLS` cells (every axis merges),
    tables whose last axis alone fills the block, and 6-12 axes of
    sizes 1-3 (several merged axes, and axes of size 1).  The
    configuration set is the downward closure of a few random
    generators (zero excluded), as every enumerated set is.
    """
    kind = draw(st.sampled_from(["all-merged", "one-merged-axis", "many-axes"]))
    if kind == "all-merged":
        counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=7))
        counts = _trim(counts, MIN_BLOCK_CELLS - 1)
    elif kind == "one-merged-axis":
        counts = draw(st.lists(st.integers(0, 1), max_size=3)) + [
            draw(st.integers(MIN_BLOCK_CELLS - 1, MIN_BLOCK_CELLS + 20))
        ]
    else:
        counts = _trim(draw(st.lists(st.integers(0, 2), min_size=6, max_size=12)), 700)
    generators = [
        _trim([draw(st.integers(0, c)) for c in counts], 24)
        for _ in range(draw(st.integers(1, 3)))
    ]
    shape = tuple(c + 1 for c in counts)
    cells = np.indices(shape).reshape(len(shape), -1).T
    closed = np.zeros(len(cells), dtype=bool)
    for g in generators:
        closed |= (cells <= np.asarray(g)).all(axis=1)
    closed &= cells.any(axis=1)
    return kind, counts, cells[closed]


class TestBlockedPasses:
    """The block-contiguous box passes and slab sweeps of ``dp_vectorized``."""

    @given(fill=blocked_fills(), spare=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_blocked_fills_match_the_reference(self, fill, spare):
        kind, counts, configs = fill
        shape = tuple(c + 1 for c in counts)
        order = np.argsort(-configs.sum(axis=1), kind="stable")
        blocked = shift_selectors(shape, configs, order).blocked_shape
        if kind == "all-merged":
            assert blocked == (math.prod(shape),)
        elif kind == "one-merged-axis":
            assert blocked == shape
        # Unit sizes and a target of sum(counts) keep the clamped fill's
        # load test from refusing a budget the configurations meet.
        sizes = (1,) * len(counts)
        target = max(1, sum(counts))
        ref = dp_reference(counts, sizes, target, configs=configs)
        opt = ref.opt
        # A warm seed comes from a subset of the set (its values are
        # upper bounds): the configurations of at most one job.
        few = configs[configs.sum(axis=1) <= 1]
        budgets = [None, 0, 1] + ([opt - 1, opt, opt + spare] if opt < UNREACHABLE else [])
        for m in budgets:
            if m is not None and m < 0:
                continue
            warm = dp_vectorized(counts, sizes, target, configs=few, machines=m).table
            for seed in (None, warm):
                case = (kind, counts, m, seed is not None)
                result = dp_vectorized(
                    counts, sizes, target, configs=configs, machines=m, warm_table=seed
                )
                if m is None:
                    assert np.array_equal(result.table, ref.table), case
                    continue
                assert result.decided_infeasible == (opt > m), case
                if opt <= m:
                    assert extract_machine_configurations(
                        result
                    ) == extract_machine_configurations(ref), case

    @pytest.mark.parametrize("seed", range(6))
    def test_slab_sweeps_equal_accumulated_suffix_minima(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 6, size=int(rng.integers(1, 6))).tolist())
        table = rng.integers(0, 50, size=shape).astype(np.int16)
        expected = table.copy()
        for axis in range(table.ndim):
            flipped = np.flip(expected, axis=axis)
            np.minimum.accumulate(flipped, axis=axis, out=flipped)
        run_closure_sweeps(closure_views(table))
        assert np.array_equal(table, expected), shape


class TestDPResult:
    def test_fits_predicate(self):
        r = dp_reference([5], [4], 10)
        assert r.fits(3) and not r.fits(2)  # OPT = 3

    def test_empty_result(self):
        r = empty_dp_result()
        assert r.opt == 0 and r.feasible and r.fits(0)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(DPError):
            DPResult(
                table=np.zeros((2, 2), dtype=np.int32),
                configs=np.zeros((0, 2), dtype=np.int64),
            )

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DPError):
            DPResult(
                table=np.zeros((2, 2), dtype=np.int64),
                configs=np.zeros((1, 3), dtype=np.int64),
            )
