"""Tests for the cross-probe solver cache (:mod:`repro.core.probe_cache`).

The load-bearing property: a cached run is **bit-identical** to an
uncached run — same final target, same makespan, same job-to-machine
assignment — for both search strategies, over random instances.
Everything else (hit counting, key normalization, sharing) supports
that headline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bisection import bisection_search
from repro.core.dp_reference import dp_reference
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance, uniform_instance
from repro.core.probe_cache import CacheStats, ProbeCache, fill_key
from repro.core.ptas import probe_target, ptas_schedule
from repro.core.quarter_split import quarter_split_search
from repro.core.rounding import round_instance
from repro.models import lift_to_few_types, model_for
from repro.models.base import FillSpec

instances = st.builds(
    Instance,
    times=st.lists(st.integers(1, 60), min_size=4, max_size=18).map(tuple),
    machines=st.integers(2, 5),
)


class TestNormalizedKey:
    def test_same_probe_same_key(self, small_instance):
        r1 = round_instance(small_instance, 40, 0.3)
        r2 = round_instance(small_instance, 40, 0.3)
        assert fill_key(r1) == fill_key(r2)

    def test_none_is_the_identical_fill(self, small_instance):
        rounded = round_instance(small_instance, 40, 0.3)
        (fill,) = model_for(small_instance).fills(rounded)
        assert fill_key(rounded) == fill_key(rounded, fill)

    def test_scale_invariance_across_targets(self):
        # Two targets whose rounding yields the same class indices,
        # counts, and scaled budget must collide: T=160 and T=164 with
        # k=4 share unit-relative geometry for these times.
        inst = Instance(times=(100, 100, 90, 50), machines=2)
        keys = set()
        for target in (160, 164):
            rounded = round_instance(inst, target, 0.3)
            keys.add(fill_key(rounded))
        assert len(keys) == 1

    def test_key_feasibility_equivalence(self):
        # The scaled constraint must admit exactly the configurations
        # the absolute constraint admits: identical keys -> identical
        # enumerated sets (checked elementwise).
        inst = Instance(times=(100, 100, 90, 50), machines=2)
        cache = ProbeCache()
        r1 = round_instance(inst, 160, 0.3)
        r2 = round_instance(inst, 164, 0.3)
        assert fill_key(r1) == fill_key(r2)
        np.testing.assert_array_equal(
            cache.configurations(r1), cache.configurations(r2)
        )

    def test_budget_and_job_cap_separate_keys(self, small_instance):
        rounded = round_instance(small_instance, 40, 0.3)
        base = dict(counts=rounded.counts, class_sizes=rounded.class_sizes)
        keys = {
            fill_key(rounded, FillSpec(budget=rounded.target, **base)),
            fill_key(rounded, FillSpec(budget=2 * rounded.target, **base)),
            fill_key(rounded, FillSpec(budget=rounded.target, max_jobs=2, **base)),
        }
        assert len(keys) == 3

    def test_one_type_lift_shares_the_identical_entry(self, medium_instance):
        # A 1-type unit-speed few-types fill keys exactly like the
        # identical fill, so an exact solver serves the lift from the
        # identical probe's entry — the same table object.
        cache = ProbeCache()
        lifted = lift_to_few_types(medium_instance)
        plain = probe_target(medium_instance, 80, 0.3, dp_vectorized, cache=cache)
        assert cache.stats.misses["dp"] == 1
        again = probe_target(lifted, 80, 0.3, dp_vectorized, cache=cache)
        assert cache.stats.hits["dp"] == 1
        assert cache.last_events["dp"] == "hit"
        assert again.dp_result is plain.dp_result
        assert len(cache) == 1


class TestProbeCacheUnits:
    def test_rounding_and_configs_are_derived_fresh_per_call(self, small_instance):
        # Only DP-tables are memoized; every rounding/enumeration call
        # is a real derivation tallied as one miss.
        cache = ProbeCache()
        a = cache.rounding(small_instance, 40, 0.3)
        b = cache.rounding(small_instance, 40, 0.3)
        assert a == b
        first = cache.configurations(a)
        second = cache.configurations(a)
        assert first is not second
        np.testing.assert_array_equal(first, second)
        assert not first.flags.writeable
        assert cache.stats.misses == {"rounding": 2, "configs": 2}
        assert cache.stats.hits == {}
        assert len(cache) == 0

    def test_dp_memoized_across_solvers(self, small_instance):
        # A table cached under one solver serves another — all solvers
        # produce identical tables (the library's core invariant).
        cache = ProbeCache()
        rounded = cache.rounding(small_instance, 40, 0.3)
        a = cache.dp(rounded, dp_vectorized)
        b = cache.dp(rounded, dp_reference)
        assert a is b

    def test_dp_miss_enumerates_once_and_hit_not_at_all(self, small_instance):
        cache = ProbeCache()
        rounded = cache.rounding(small_instance, 40, 0.3)
        cache.dp(rounded, dp_vectorized)
        cache.dp(rounded, dp_vectorized)
        assert cache.stats.misses["configs"] == 1

    def test_clear_drops_artifacts_keeps_stats(self, small_instance):
        cache = ProbeCache()
        cache.dp(cache.rounding(small_instance, 40, 0.3), dp_vectorized)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses["dp"] == 1


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
    MODELS = (
        {},
        {
            "model": "unrelated-few-types",
            "type_speeds": (1, 2),
            "machines_per_type": (2, 2),
        },
        {"model": "time-restricted", "max_jobs_per_machine": 7},
    )

    def test_probe_identical_with_and_without_cache(self, medium_instance):
        for model_fields in self.MODELS:
            inst = Instance(
                times=medium_instance.times,
                machines=medium_instance.machines,
                **model_fields,
            )
            bounds = model_for(inst).bounds(inst)
            cache = ProbeCache()
            step = max(1, bounds.width // 7)
            for target in range(bounds.lower, bounds.upper, step):
                plain = probe_target(inst, target, 0.3)
                cached = probe_target(inst, target, 0.3, cache=cache)
                assert cached.accepted == plain.accepted
                assert cached.machines_needed == plain.machines_needed
                assert len(cached.dp_results) == len(plain.dp_results)
                for got, want in zip(cached.dp_results, plain.dp_results):
                    np.testing.assert_array_equal(got.table, want.table)
                if plain.schedule is not None:
                    assert cached.schedule.assignment == plain.schedule.assignment
            assert cache.stats.misses["dp"] > 0, inst.model


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
    ROUNDED = round_instance(uniform_instance(8, 2, low=5, high=70, seed=9), 100, 0.3)

    def _dp(self, cache, i):
        # Fill i: budget T + i units — one distinct key per i.
        r = self.ROUNDED
        fill = FillSpec(
            counts=r.counts, class_sizes=r.class_sizes, budget=r.target + i * r.unit
        )
        return cache.dp(r, dp_vectorized, fill=fill)

    def _fill_dp(self, cache, n):
        for i in range(n):
            self._dp(cache, i)

    def test_capacity_evicts_least_recently_used(self):
        cache = ProbeCache(capacity=3)
        self._fill_dp(cache, 3)  # fills 0, 1, 2
        self._dp(cache, 0)       # refresh the oldest entry
        self._dp(cache, 9)       # evicts 1, not 0
        assert cache.stats.evictions.get("dp") == 1
        self._dp(cache, 0)       # still cached -> hit
        assert cache.stats.hits["dp"] == 2
        self._dp(cache, 1)       # evicted -> miss
        assert cache.stats.misses["dp"] == 5

    def test_unbounded_cache_never_evicts(self):
        cache = ProbeCache(capacity=None)
        self._fill_dp(cache, 50)
        assert len(cache) == 50
        assert cache.stats.total_evictions == 0

    def test_capacity_bounds_every_kind(self):
        # DP results are the one memoized kind.
        inst = uniform_instance(24, 4, low=5, high=70, seed=9)
        cache = ProbeCache(capacity=1)
        ptas_schedule(inst, eps=0.3, cache=cache)
        assert cache.stats.evictions["dp"] >= 1
        assert len(cache) == 1

    def test_bounded_cache_results_identical(self):
        inst = uniform_instance(24, 4, low=5, high=70, seed=9)
        unbounded = ptas_schedule(inst, eps=0.3, cache=ProbeCache())
        bounded = ptas_schedule(inst, eps=0.3, cache=ProbeCache(capacity=1))
        assert bounded.makespan == unbounded.makespan
        assert bounded.schedule.assignment == unbounded.schedule.assignment

    def test_eviction_appears_in_as_dict_only_when_nonzero(self):
        cache = ProbeCache(capacity=1)
        self._fill_dp(cache, 3)
        spec = cache.stats.as_dict()["dp"]
        assert spec["evictions"] == 2
        fresh = ProbeCache()
        self._dp(fresh, 0)
        assert "evictions" not in fresh.stats.as_dict()["dp"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProbeCache(capacity=0)
