"""Tests for the batch scheduling service (``repro.service.batch``)."""

import pytest

from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import uniform_instance
from repro.core.probe_cache import ProbeCache
from repro.core.ptas import ptas_schedule
from repro.errors import BackendError, InvalidInstanceError
from repro.service import BatchReport, BatchRequest, BatchScheduler
from repro.service.pipeline import schedule_request


@pytest.fixture(scope="module")
def fleet():
    """Six instances with overlapping probe geometry (cache-friendly)."""
    return [
        uniform_instance(20 + 2 * i, 4, low=5, high=60, seed=100 + i)
        for i in range(6)
    ]


class TestDeterminism:
    def test_results_independent_of_worker_count(self, fleet):
        reports = [
            BatchScheduler(workers=w, cache=None).run(fleet)
            for w in (1, 2, 5)
        ]
        base = reports[0]
        for other in reports[1:]:
            assert other.makespans() == base.makespans()
            assert [r.result.final_target for r in other.results] == [
                r.result.final_target for r in base.results
            ]
            assert other.total_probes == base.total_probes
            # Everything but wall-clock tallies (``*_ms``) must match:
            # plan/DP *work* is deterministic, its duration is not.
            def counts(report):
                return {
                    k: v
                    for k, v in report.tracer.counters.items()
                    if not k.endswith("_ms")
                }

            assert counts(other) == counts(base)

    def test_matches_sequential_ptas_schedule(self, fleet):
        # The batch answers each request with schedule_request (certify
        # at LB, then the best polished schedule); a sequential call of
        # it must agree, and its certificate is never looser than the
        # paper's search.
        report = BatchScheduler(workers=3).run(fleet)
        for inst, req_result in zip(fleet, report.results):
            solo = schedule_request(inst, 0.3, dp_vectorized, "quarter")
            assert req_result.makespan == solo.makespan
            assert req_result.result.final_target == solo.final_target
            assert req_result.result.iterations == solo.iterations
            paper = ptas_schedule(inst, eps=0.3, search="quarter")
            assert solo.final_target <= paper.final_target

    def test_shared_cache_does_not_change_results(self, fleet):
        cached = BatchScheduler(workers=4).run(fleet)
        uncached = BatchScheduler(workers=4, cache=None).run(fleet)
        assert cached.makespans() == uncached.makespans()

    def test_results_in_request_order(self, fleet):
        report = BatchScheduler(workers=6).run(fleet)
        assert [r.name for r in report.results] == [
            f"request-{i}" for i in range(len(fleet))
        ]


class TestSharedCache:
    def test_cache_stats_aggregate_across_requests(self, fleet):
        # Each instance twice: a request certified by its one LB probe
        # shares no table with a different instance, but its repeat
        # must reuse everything.
        scheduler = BatchScheduler(workers=2)
        report = scheduler.run(fleet + fleet)
        stats = report.cache_stats
        assert stats is not None
        # Every DP fill of the batch goes through the shared cache, so
        # lookups must cover the batch's probes.
        dp_lookups = stats.hits.get("dp", 0) + stats.misses.get("dp", 0)
        assert dp_lookups >= report.total_probes
        # Overlapping requests must produce actual sharing — the
        # reason the service exists.
        assert stats.total_hits > 0

    def test_cache_disabled_reports_no_stats(self, fleet):
        report = BatchScheduler(workers=2, cache=None).run(fleet[:2])
        assert report.cache_stats is None

    def test_explicit_cache_is_reused_across_batches(self, fleet):
        cache = ProbeCache()
        scheduler = BatchScheduler(workers=2, cache=cache)
        scheduler.run(fleet[:3])
        first = cache.stats.hits.get("dp", 0)
        scheduler.run(fleet[:3])  # identical batch: all DP fills hit
        assert cache.stats.hits.get("dp", 0) > first


class TestSharedPlanCache:
    def test_plan_aware_backend_reports_plan_stats(self, fleet):
        # Probe caching off so every probe reaches the engine: with it
        # on, DP-table hits short-circuit the solver and the plan cache
        # only sees the residual misses.  Each instance runs twice, so
        # the batch's requests overlap even when one LB probe answers.
        scheduler = BatchScheduler(backend="serial", workers=2, cache=None)
        report = scheduler.run(fleet + fleet)
        stats = report.plan_cache_stats
        assert stats is not None
        assert stats.hits.get("plan", 0) > 0  # probes overlap across requests
        assert report.as_dict()["plan_cache"] == stats.as_dict()

    def test_pure_backend_reports_no_plan_stats(self, fleet):
        # "vectorized" is not plan-aware: the shared plan cache stays
        # untouched and the report says so.
        report = BatchScheduler(backend="vectorized", workers=2).run(fleet[:2])
        assert report.plan_cache_stats is None
        assert report.as_dict()["plan_cache"] == {}

    def test_plan_cache_persists_across_batches(self, fleet):
        scheduler = BatchScheduler(backend="serial", workers=2, cache=None)
        scheduler.run(fleet[:3])
        misses_after_first = scheduler.plan_cache.stats.misses.get("plan", 0)
        scheduler.run(fleet[:3])
        # The second identical batch resolves every plan from cache.
        assert (
            scheduler.plan_cache.stats.misses.get("plan", 0)
            == misses_after_first
        )

    def test_plan_sharing_does_not_change_results(self, fleet):
        shared = BatchScheduler(backend="serial", workers=3).run(fleet)
        for inst, req_result in zip(fleet, shared.results):
            solo = schedule_request(inst, 0.3, dp_vectorized, "quarter")
            assert req_result.makespan == solo.makespan
            assert req_result.result.final_target == solo.final_target
            paper = ptas_schedule(inst, eps=0.3, search="quarter")
            assert solo.final_target <= paper.final_target


class TestReport:
    def test_report_structure(self, fleet):
        report = BatchScheduler(workers=2, eps=0.2).run(fleet[:3])
        assert isinstance(report, BatchReport)
        assert report.workers == 2 and report.backend == "auto"
        assert report.total_iterations >= len(report.results)
        assert report.wall_s > 0
        for r in report.results:
            assert r.wall_s > 0 and r.simulated_s == 0.0
            assert r.request.eps == 0.2
        payload = report.as_dict()
        assert payload["total_probes"] == report.total_probes
        assert len(payload["requests"]) == 3
        assert payload["requests"][0]["makespan"] == report.results[0].makespan

    def test_merged_tracer_covers_every_probe(self, fleet):
        report = BatchScheduler(workers=3).run(fleet)
        assert len(report.tracer.probes) == report.total_probes

    def test_simulated_backend_accounting(self, fleet):
        report = BatchScheduler(backend="omp-16", workers=2, cache=None).run(
            fleet[:2]
        )
        assert report.total_simulated_s > 0
        for r in report.results:
            assert r.simulated_s > 0


class TestRequests:
    def test_explicit_requests_keep_overrides(self, fleet):
        requests = [
            BatchRequest(instance=fleet[0], eps=0.5, search="bisection", name="a"),
            BatchRequest(instance=fleet[1], backend="serial"),
        ]
        report = BatchScheduler(workers=2).run(requests)
        assert report.results[0].name == "a"
        assert report.results[0].request.search == "bisection"
        assert report.results[1].name == "request-1"
        assert report.results[1].simulated_s > 0  # serial engine charged

    def test_empty_batch_returns_empty_report(self):
        report = BatchScheduler().run([])
        assert isinstance(report, BatchReport)
        assert report.results == [] and report.total_probes == 0
        assert report.degraded_count == 0
        assert report.total_iterations == 0
        assert report.makespans() == {}
        # The empty report is still fully formed: serializable, with
        # the batch-level fields present and no special-casing needed
        # downstream.
        payload = report.as_dict()
        assert payload["requests"] == []
        assert payload["backend"] == "auto"
        assert report.wall_s >= 0


class TestFillFabricLifecycle:
    """Schedulers hold no process pool: closing one releases nothing."""

    def test_close_without_fill_workers_is_a_no_op(self, fleet):
        scheduler = BatchScheduler(workers=1)
        scheduler.close()
        scheduler.close()
        assert scheduler.run(fleet[:1]).degraded_count == 0
        with scheduler:
            assert scheduler.run(fleet[:1]).degraded_count == 0


class TestFabricHealthReporting:
    """Batch reports carry no fill-fabric snapshot."""

    def test_report_omits_fabric_without_fill_workers(self, fleet):
        report = BatchScheduler(workers=1).run(fleet[:1])
        assert not hasattr(report, "fabric")
        assert "fabric" not in report.as_dict()


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidInstanceError):
            BatchScheduler(workers=0)

    def test_rejects_unknown_backend_up_front(self):
        with pytest.raises(BackendError):
            BatchScheduler(backend="tpu-v5")

