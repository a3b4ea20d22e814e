"""Tests for the batch scheduling service (``repro.service.batch``)."""

import os
import subprocess
import sys

import pytest

from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import uniform_instance
from repro.core.probe_cache import ProbeCache
from repro.core.ptas import ptas_schedule
from repro.errors import (
    BackendError,
    InvalidInstanceError,
    TransientDPError,
    WorkerCrashError,
)
from repro.resilience import FaultInjector
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


def dp_lookups(stats):
    return stats.hits.get("dp", 0) + stats.misses.get("dp", 0)


class TestSharedCache:
    def test_cache_stats_aggregate_across_requests(self, fleet):
        # Each instance twice: a request certified by its one LB probe
        # shares no table with a different instance, but its repeat
        # must reuse everything.  In one process, that is; forked
        # workers keep their entries apart (next test).
        scheduler = BatchScheduler(workers=1)
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

    def test_worker_lookups_all_reach_the_report(self, fleet):
        # Workers start from the same cache and keep their own entries,
        # so which repeats hit depends on which worker ran them; but
        # every lookup any worker made is added to the scheduler's
        # tallies: as many DP lookups as one process makes.
        report = BatchScheduler(workers=2).run(fleet + fleet)
        solo = BatchScheduler(workers=1).run(fleet + fleet)
        assert dp_lookups(report.cache_stats) == dp_lookups(solo.cache_stats)
        assert dp_lookups(report.cache_stats) >= report.total_probes

    def test_cache_disabled_reports_no_stats(self, fleet):
        report = BatchScheduler(workers=2, cache=None).run(fleet[:2])
        assert report.cache_stats is None

    def test_explicit_cache_is_reused_across_batches(self, fleet):
        cache = ProbeCache()
        scheduler = BatchScheduler(workers=1, cache=cache)
        scheduler.run(fleet[:3])
        first = cache.stats.hits.get("dp", 0)
        scheduler.run(fleet[:3])  # identical batch: all DP fills hit
        assert cache.stats.hits.get("dp", 0) > first

    def test_workers_start_from_the_cache_as_it_stands(self, fleet):
        cache = ProbeCache()
        BatchScheduler(workers=1, cache=cache).run(fleet[:3])
        entries, misses = len(cache), cache.stats.misses.get("dp", 0)
        hits = cache.stats.hits.get("dp", 0)
        report = BatchScheduler(workers=2, cache=cache).run(fleet[:3])
        # Every DP lookup of the repeat batch hits the inherited entries.
        assert cache.stats.misses.get("dp", 0) == misses
        assert cache.stats.hits.get("dp", 0) - hits >= report.total_probes
        # Entries a worker adds stay in the worker.
        fresh = ProbeCache()
        BatchScheduler(workers=2, cache=fresh).run(fleet[:3])
        assert len(fresh) == 0 and len(cache) == entries
        assert dp_lookups(fresh.stats) > 0


class TestSharedPlanCache:
    def test_plan_aware_backend_reports_plan_stats(self, fleet):
        # Probe caching off so every probe reaches the engine: with it
        # on, DP-table hits short-circuit the solver and the plan cache
        # only sees the residual misses.  Each instance runs twice, so
        # the batch's requests overlap even when one LB probe answers.
        scheduler = BatchScheduler(backend="serial", workers=1, cache=None)
        report = scheduler.run(fleet + fleet)
        stats = report.plan_cache_stats
        assert stats is not None
        assert stats.hits.get("plan", 0) > 0  # probes overlap across requests
        assert report.as_dict()["plan_cache"] == stats.as_dict()

    def test_worker_plan_lookups_are_reported(self, fleet):
        # The parent's plan cache stays empty after a forked batch; the
        # report still carries every plan lookup the workers made.
        def lookups(stats):
            return stats.hits.get("plan", 0) + stats.misses.get("plan", 0)

        scheduler = BatchScheduler(backend="serial", workers=2, cache=None)
        report = scheduler.run(fleet + fleet)
        solo = BatchScheduler(backend="serial", workers=1, cache=None).run(
            fleet + fleet
        )
        stats = report.plan_cache_stats
        assert stats is not None and len(scheduler.plan_cache) == 0
        assert lookups(stats) == lookups(solo.plan_cache_stats) > 0
        assert report.as_dict()["plan_cache"] == stats.as_dict()

    def test_pure_backend_reports_no_plan_stats(self, fleet):
        # "vectorized" is not plan-aware: the shared plan cache stays
        # untouched and the report says so.
        report = BatchScheduler(backend="vectorized", workers=2).run(fleet[:2])
        assert report.plan_cache_stats is None
        assert report.as_dict()["plan_cache"] == {}

    def test_plan_cache_persists_across_batches(self, fleet):
        scheduler = BatchScheduler(backend="serial", workers=1, cache=None)
        scheduler.run(fleet[:3])
        misses_after_first = scheduler.plan_cache.stats.misses.get("plan", 0)
        scheduler.run(fleet[:3])
        # The second identical batch resolves every plan from cache.
        assert (
            scheduler.plan_cache.stats.misses.get("plan", 0)
            == misses_after_first
        )

    def test_workers_start_from_the_plan_cache_as_it_stands(self, fleet):
        scheduler = BatchScheduler(backend="serial", workers=1, cache=None)
        scheduler.run(fleet[:3])
        plans = len(scheduler.plan_cache)
        misses = scheduler.plan_cache.stats.misses.get("plan", 0)
        hits = scheduler.plan_cache.stats.hits.get("plan", 0)
        scheduler.workers = 2
        scheduler.run(fleet[:3])
        # Every plan the forked repeat looks up was inherited at fork.
        stats = scheduler.plan_cache.stats
        assert stats.misses.get("plan", 0) == misses
        assert stats.hits.get("plan", 0) > hits
        assert len(scheduler.plan_cache) == plans

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


class TestWorkerProcesses:
    """``workers >= 2`` runs each batch on a pool of forked processes."""

    def test_merged_counters_match_one_process(self, fleet):
        # Distinct instances share no cache entry, so every counted
        # event happens alike in one process and in two workers.
        def counts(report):
            return {
                k: v
                for k, v in report.tracer.counters.items()
                if not k.endswith("_ms")
            }

        one = BatchScheduler(workers=1).run(fleet)
        two = BatchScheduler(workers=2).run(fleet)
        assert counts(two) == counts(one)
        assert two.tracer.timer.entries == one.tracer.timer.entries

    def test_dead_worker_is_retried(self, fleet, tmp_path):
        scheduler = BatchScheduler(workers=2)
        run = scheduler.pipeline.run
        marker = tmp_path / "died"

        def dies_once(request):
            # The fork inherits this replacement; the file outlives it.
            if request.name == "request-2" and not marker.exists():
                marker.touch()
                os._exit(1)
            return run(request)

        scheduler.pipeline.run = dies_once
        report = scheduler.run(fleet)
        assert marker.exists() and report.degraded_count == 0
        assert report.makespans() == BatchScheduler(workers=1).run(fleet).makespans()

    def test_request_that_kills_every_worker_is_degraded(self, fleet):
        scheduler = BatchScheduler(workers=2)
        run = scheduler.pipeline.run

        def dies(request):
            if request.name == "request-2":
                os._exit(1)
            return run(request)

        scheduler.pipeline.run = dies
        report = scheduler.run(fleet)
        assert [r.name for r in report.results] == [
            f"request-{i}" for i in range(len(fleet))
        ]
        assert [r.degraded for r in report.results] == [
            i == 2 for i in range(len(fleet))
        ]
        victim = report.results[2]
        assert victim.error.startswith("WorkerCrashError")
        assert victim.fault_chain == (victim.error,)
        assert report.tracer.counters["resilience.degraded"] == 1
        solo = BatchScheduler(workers=1).run(fleet).makespans()
        for name, makespan in report.makespans().items():
            if name != "request-2":
                assert makespan == solo[name]

        scheduler.pipeline.degrade = False
        with pytest.raises(WorkerCrashError):
            scheduler.run(fleet)

    @pytest.mark.parametrize("kind, raised", [
        ("dperror", TransientDPError), ("oom", MemoryError),
    ])
    def test_degrade_false_raises_the_worker_exception_type(
        self, fleet, kind, raised
    ):
        def raise_for(workers):
            scheduler = BatchScheduler(
                backend="fallback", workers=workers, degrade=False,
                faults=FaultInjector(
                    seed=1, rate=1.0, kinds=(kind,),
                    sites=("dp.auto", "dp.sweep", "dp.vectorized"),
                    max_failures=10**9,
                    match=lambda site, inst, target: (
                        inst is not None and inst.n_jobs == 24
                    ),
                ),
            )
            with pytest.raises(raised) as caught:
                scheduler.run(fleet)
            return caught.value

        one, two = raise_for(1), raise_for(2)
        assert type(two) is type(one) and str(two) == str(one)
        assert getattr(two, "fault_chain", None) == getattr(one, "fault_chain", None)

    def test_injected_faults_come_home(self, fleet):
        def chaos():
            return FaultInjector(
                seed=5, rate=0.4, kinds=("dperror", "crash"),
                sites=("dp", "probe"), max_failures=1,
            )

        one = BatchScheduler(workers=1, cache=None, faults=chaos())
        two = BatchScheduler(workers=2, cache=None, faults=chaos())
        for _ in range(2):
            # The second pass checks that the per-key caps came home
            # too: it may fire nothing the first pass already spent.
            assert two.run(fleet).makespans() == one.run(fleet).makespans()
            assert two.faults.replay_signature() == one.faults.replay_signature()
        assert one.faults.events

    def test_importing_the_service_leaves_multiprocessing_out(self):
        # The pool's modules load inside run(): the batch and daemon
        # set-up paths never pay their ~20 ms import.
        code = (
            "import sys\n"
            "import repro.service\n"
            "from repro.service import BatchScheduler\n"
            "BatchScheduler(workers=2)\n"
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=dict(os.environ),
        ).stdout
        assert out.strip() == "[]"


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidInstanceError):
            BatchScheduler(workers=0)

    def test_rejects_unknown_backend_up_front(self):
        with pytest.raises(BackendError):
            BatchScheduler(backend="tpu-v5")

    @pytest.mark.parametrize(
        "options", [{"search": "bisect"}, {"eps": 0}, {"eps": 1.5}]
    )
    def test_rejects_bad_eps_or_search_up_front(self, fleet, options):
        # Neither the scheduler nor a request may exist with an eps or
        # search name no backend can run: such a batch would otherwise
        # be served as degraded answers blaming the backend.
        with pytest.raises(InvalidInstanceError):
            BatchScheduler(**options)
        with pytest.raises(InvalidInstanceError):
            BatchRequest(instance=fleet[0], **options)

    @pytest.mark.parametrize("backend", ["nosuch", "fallback:auto,nosuch"])
    def test_rejects_bad_request_backend_up_front(self, fleet, backend):
        # Checked when run() resolved it, a bad override raised out of
        # the batch and took every other request's answer with it.
        with pytest.raises(BackendError):
            BatchRequest(instance=fleet[0], backend=backend)
