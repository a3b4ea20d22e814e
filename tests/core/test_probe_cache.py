"""Tests for the cross-probe solver cache (:mod:`repro.core.probe_cache`).

The load-bearing property: a cached run is **bit-identical** to an
uncached run — same final target, same makespan, same job-to-machine
assignment — for both search strategies, over random instances.
Everything else (hit counting, key normalization, sharing) supports
that headline.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bisection import bisection_search
from repro.core.dp_reference import dp_reference
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance, uniform_instance
from repro.core.probe_cache import CacheStats, ProbeCache, normalized_probe_key
from repro.core.ptas import probe_target, ptas_schedule
from repro.core.quarter_split import quarter_split_search
from repro.core.rounding import round_instance

instances = st.builds(
    Instance,
    times=st.lists(st.integers(1, 60), min_size=4, max_size=18).map(tuple),
    machines=st.integers(2, 5),
)


class TestNormalizedKey:
    def test_same_probe_same_key(self, small_instance):
        r1 = round_instance(small_instance, 40, 0.3)
        r2 = round_instance(small_instance, 40, 0.3)
        assert normalized_probe_key(r1) == normalized_probe_key(r2)

    def test_scale_invariance_across_targets(self):
        # Two targets whose rounding yields the same class indices,
        # counts, and scaled budget must collide: T=160 and T=164 with
        # k=4 share unit-relative geometry for these times.
        inst = Instance(times=(100, 100, 90, 50), machines=2)
        keys = set()
        for target in (160, 164):
            rounded = round_instance(inst, target, 0.3)
            keys.add(normalized_probe_key(rounded))
        assert len(keys) == 1

    def test_key_feasibility_equivalence(self):
        # The scaled constraint must admit exactly the configurations
        # the absolute constraint admits: identical keys -> identical
        # enumerated sets (checked elementwise).
        inst = Instance(times=(100, 100, 90, 50), machines=2)
        cache = ProbeCache()
        r1 = round_instance(inst, 160, 0.3)
        r2 = round_instance(inst, 164, 0.3)
        assert normalized_probe_key(r1) == normalized_probe_key(r2)
        from repro.core.configs import configurations_for

        np.testing.assert_array_equal(configurations_for(r1), configurations_for(r2))


class TestProbeCacheUnits:
    def test_rounding_memoized(self, small_instance):
        cache = ProbeCache()
        a = cache.rounding(small_instance, 40, 0.3)
        b = cache.rounding(small_instance, 40, 0.3)
        assert a is b
        assert cache.stats.hits["rounding"] == 1
        assert cache.stats.misses["rounding"] == 1

    def test_configs_memoized_and_read_only(self, small_instance):
        cache = ProbeCache()
        rounded = cache.rounding(small_instance, 40, 0.3)
        a = cache.configurations(rounded)
        b = cache.configurations(rounded)
        assert a is b
        assert not a.flags.writeable
        assert cache.stats.hit_rate("configs") == 0.5

    def test_dp_memoized_across_solvers(self, small_instance):
        # A table cached under one solver serves another — all solvers
        # produce identical tables (the library's core invariant).
        cache = ProbeCache()
        rounded = cache.rounding(small_instance, 40, 0.3)
        a = cache.dp(rounded, dp_vectorized)
        b = cache.dp(rounded, dp_reference)
        assert a is b

    def test_share_dp_false_still_caches_configs(self, small_instance):
        calls = []

        def counting_solver(counts, class_sizes, target, configs=None):
            calls.append(target)
            assert configs is not None  # enumeration still cached
            return dp_vectorized(counts, class_sizes, target, configs)

        cache = ProbeCache(share_dp=False)
        rounded = cache.rounding(small_instance, 40, 0.3)
        cache.dp(rounded, counting_solver)
        cache.dp(rounded, counting_solver)
        assert len(calls) == 2  # solver ran both times
        assert cache.stats.hits["configs"] == 1
        assert "dp" not in cache.stats.hits  # nothing DP-cached

    def test_clear_drops_artifacts_keeps_stats(self, small_instance):
        cache = ProbeCache()
        cache.rounding(small_instance, 40, 0.3)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses["rounding"] == 1


class TestCacheStats:
    def test_hit_rate_empty_is_zero(self):
        assert CacheStats().hit_rate("dp") == 0.0

    def test_as_dict_shape(self):
        stats = CacheStats()
        stats.record("dp", True)
        stats.record("dp", False)
        assert stats.as_dict() == {
            "dp": {"hits": 1, "misses": 1, "hit_rate": 0.5}
        }
        assert stats.total_hits == 1
        assert stats.total_misses == 1


class TestCachedProbeEquivalence:
    def test_probe_identical_with_and_without_cache(self, medium_instance):
        from repro.core.bounds import makespan_bounds

        bounds = makespan_bounds(medium_instance)
        cache = ProbeCache()
        for target in range(bounds.lower, bounds.upper, max(1, bounds.width // 7)):
            plain = probe_target(medium_instance, target, 0.3)
            cached = probe_target(medium_instance, target, 0.3, cache=cache)
            assert cached.accepted == plain.accepted
            assert cached.machines_needed == plain.machines_needed
            np.testing.assert_array_equal(
                cached.dp_result.table, plain.dp_result.table
            )
            if plain.schedule is not None:
                assert cached.schedule.assignment == plain.schedule.assignment


class TestCachedSearchEquivalence:
    """The acceptance property: cached == uncached, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(inst=instances, eps=st.sampled_from([0.5, 0.3, 0.25]))
    def test_bisection_cached_equals_uncached(self, inst, eps):
        plain = bisection_search(inst, eps)
        cached = bisection_search(inst, eps, cache=ProbeCache())
        assert cached.final_target == plain.final_target
        assert cached.makespan == plain.makespan
        assert cached.schedule.assignment == plain.schedule.assignment
        assert cached.iterations == plain.iterations

    @settings(max_examples=25, deadline=None)
    @given(inst=instances, eps=st.sampled_from([0.5, 0.3, 0.25]))
    def test_quarter_cached_equals_uncached(self, inst, eps):
        plain = quarter_split_search(inst, eps)
        cached = quarter_split_search(inst, eps, cache=ProbeCache())
        assert cached.final_target == plain.final_target
        assert cached.makespan == plain.makespan
        assert cached.schedule.assignment == plain.schedule.assignment
        assert cached.iterations == plain.iterations

    @settings(max_examples=10, deadline=None)
    @given(inst=instances)
    def test_one_cache_shared_across_both_searches(self, inst):
        cache = ProbeCache()
        b = ptas_schedule(inst, eps=0.3, search="bisection", cache=cache)
        q = ptas_schedule(inst, eps=0.3, search="quarter", cache=cache)
        assert b.final_target == q.final_target
        assert b.final_target == ptas_schedule(inst, eps=0.3).final_target

    def test_cache_produces_hits_within_one_search(self):
        # The clean-up probe at the final UB re-visits a probed target,
        # so even a single bisection run hits the cache.
        inst = uniform_instance(30, 5, low=3, high=90, seed=5)
        cache = ProbeCache()
        bisection_search(inst, 0.3, cache=cache)
        assert cache.stats.total_hits > 0

    def test_probe_events_reflect_cache_outcomes(self):
        from repro.observability import TraceRecorder

        inst = uniform_instance(24, 4, low=5, high=70, seed=9)
        cache = ProbeCache()
        rec = TraceRecorder()
        result = ptas_schedule(
            inst, eps=0.3, search="quarter", cache=cache, trace=rec
        )
        assert len(rec.events) == len(result.probes)
        outcomes = [e.cache_events.get("dp") for e in rec.events]
        assert all(o in ("hit", "miss") for o in outcomes)
        assert outcomes.count("hit") == cache.stats.hits.get("dp", 0)


class TestLRUBounding:
    INSTANCE = uniform_instance(8, 2, low=5, high=70, seed=9)

    def _round(self, cache, target):
        return cache.rounding(self.INSTANCE, target, 0.3)

    def _fill_rounding(self, cache, n):
        for i in range(n):
            self._round(cache, 100 + i)

    def test_capacity_evicts_least_recently_used(self):
        cache = ProbeCache(capacity=3)
        self._fill_rounding(cache, 3)  # targets 100, 101, 102
        self._round(cache, 100)        # refresh the oldest entry
        self._round(cache, 199)        # evicts 101, not 100
        assert cache.stats.evictions.get("rounding") == 1
        self._round(cache, 100)        # still cached -> hit
        assert cache.stats.hits["rounding"] == 2
        self._round(cache, 101)        # evicted -> miss
        assert cache.stats.misses["rounding"] == 5

    def test_unbounded_cache_never_evicts(self):
        cache = ProbeCache(capacity=None)
        self._fill_rounding(cache, 50)
        assert len(cache) == 50
        assert cache.stats.total_evictions == 0

    def test_capacity_bounds_every_kind(self):
        inst = uniform_instance(24, 4, low=5, high=70, seed=9)
        cache = ProbeCache(capacity=2)
        ptas_schedule(inst, eps=0.3, cache=cache)
        # Each artifact store is individually bounded.
        assert len(cache._rounding) <= 2
        assert len(cache._configs) <= 2
        assert len(cache._dp) <= 2

    def test_bounded_cache_results_identical(self):
        inst = uniform_instance(24, 4, low=5, high=70, seed=9)
        unbounded = ptas_schedule(inst, eps=0.3, cache=ProbeCache())
        bounded = ptas_schedule(inst, eps=0.3, cache=ProbeCache(capacity=1))
        assert bounded.makespan == unbounded.makespan
        assert bounded.schedule.assignment == unbounded.schedule.assignment

    def test_eviction_appears_in_as_dict_only_when_nonzero(self):
        cache = ProbeCache(capacity=1)
        self._fill_rounding(cache, 3)
        spec = cache.stats.as_dict()["rounding"]
        assert spec["evictions"] == 2
        fresh = ProbeCache()
        self._round(fresh, 100)
        assert "evictions" not in fresh.stats.as_dict()["rounding"]

    def test_invalid_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ProbeCache(capacity=0)
