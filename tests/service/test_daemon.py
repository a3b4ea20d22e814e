"""Tests for the always-on scheduling daemon (``repro.service.daemon``).

Coalescing has its own module (``test_coalescing.py``); this one covers
the rest of the service contract: bound-first streaming, priority
dispatch, tenant quotas, lifecycle (clean and dirty shutdown), result
determinism against the one-shot front-ends, and the introspection
snapshot.  No pytest-asyncio here — each test owns its loop via
``asyncio.run``.
"""

import asyncio
import threading

import pytest

from repro.core.baselines import lpt_schedule, multifit_schedule
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import uniform_instance
from repro.core.ptas import ptas_schedule
from repro.errors import (
    InvalidInstanceError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.resilience import TenantQuota
from repro.service import (
    BoundResult,
    Priority,
    SchedulingService,
)
from repro.service.pipeline import schedule_request


@pytest.fixture(scope="module")
def fleet():
    return [
        uniform_instance(18 + 2 * i, 4, low=5, high=60, seed=300 + i)
        for i in range(4)
    ]


class GatedPipeline:
    """Wrap a service's pipeline so runs block until the gate opens.

    Lets a test hold the single worker busy (to queue work behind it,
    to exercise quotas, or to force a shutdown timeout) while recording
    the order requests actually executed in.
    """

    def __init__(self, service: SchedulingService) -> None:
        self.gate = threading.Event()
        self.order = []
        self._run = service.pipeline.run
        service.pipeline.run = self

    def __call__(self, request):
        assert self.gate.wait(timeout=10), "test gate never opened"
        self.order.append(request.name)
        return self._run(request)


class TestStreaming:
    def test_bound_resolves_before_submit_returns(self, fleet):
        async def scenario():
            async with SchedulingService(workers=2) as svc:
                handle = await svc.submit(fleet[0])
                assert handle.bound.done()  # before any pipeline work
                assert not handle.refined.done()
                bound = handle.bound.result()
                await handle.result()
            return bound

        bound = asyncio.run(scenario())
        assert isinstance(bound, BoundResult)
        assert bound.served_by in ("lpt", "multifit")

    def test_stream_yields_bound_then_refined(self, fleet):
        async def scenario():
            async with SchedulingService(workers=2) as svc:
                handle = await svc.submit(fleet[0])
                return [stage async for stage, _ in handle.stream()]

        assert asyncio.run(scenario()) == ["bound", "refined"]

    def test_bound_is_best_baseline_with_honest_ratio(self, fleet):
        inst = fleet[1]

        async def scenario():
            async with SchedulingService(workers=1) as svc:
                handle = await svc.submit(inst)
                bound = handle.bound.result()
                refined = await handle.result()
            return bound, refined

        bound, refined = asyncio.run(scenario())
        best = min(lpt_schedule(inst).makespan, multifit_schedule(inst).makespan)
        assert bound.makespan == best
        assert bound.bound > 1.0  # a proven ratio, not a guess
        # The refined stage is the PTAS answer with its own (1+eps)
        # guarantee, served as the better of it and the baseline, so
        # it never loses to the bound stage.
        assert not refined.degraded and refined.result is not None
        assert refined.makespan <= refined.result.guarantee_bound()
        assert refined.makespan <= bound.makespan


class TestDeterminism:
    def test_matches_sequential_ptas(self, fleet):
        async def scenario():
            async with SchedulingService(workers=3) as svc:
                handles = [await svc.submit(inst) for inst in fleet]
                return [await h.result() for h in handles]

        results = asyncio.run(scenario())
        for inst, res in zip(fleet, results):
            solo = schedule_request(inst, 0.3, dp_vectorized, "quarter")
            assert res.makespan == solo.makespan
            assert res.result.final_target == solo.final_target
            assert res.result.iterations == solo.iterations
            paper = ptas_schedule(inst, eps=0.3, search="quarter")
            assert solo.final_target <= paper.final_target

    def test_request_overrides_respected(self, fleet):
        async def scenario():
            async with SchedulingService(workers=1) as svc:
                handle = await svc.submit(
                    fleet[0], eps=0.5, search="bisection", name="custom"
                )
                return await handle.result()

        res = asyncio.run(scenario())
        assert res.name == "custom"
        assert res.request.search == "bisection"
        solo = schedule_request(fleet[0], 0.5, dp_vectorized, "bisection")
        assert res.makespan == solo.makespan
        assert res.result.final_target == solo.final_target
        paper = ptas_schedule(fleet[0], eps=0.5, search="bisection")
        assert solo.final_target <= paper.final_target


class TestPriorities:
    def test_high_runs_before_earlier_low(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            gated = GatedPipeline(svc)
            async with svc:
                blocker = await svc.submit(fleet[0], name="blocker")
                # Let the worker dequeue the blocker and park on the
                # gate before anything else is queued behind it.
                await asyncio.sleep(0.02)
                # While the worker is held, LOW arrives before HIGH...
                low = await svc.submit(fleet[1], priority=Priority.LOW, name="low")
                high = await svc.submit(
                    fleet[2], priority=Priority.HIGH, name="high"
                )
                gated.gate.set()
                await asyncio.gather(
                    blocker.result(), low.result(), high.result()
                )
            return gated.order

        order = asyncio.run(scenario())
        # ...but the priority queue dispatches HIGH first.
        assert order == ["blocker", "high", "low"]

    def test_fifo_within_priority_class(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            gated = GatedPipeline(svc)
            async with svc:
                handles = [
                    await svc.submit(inst, name=f"r{i}")
                    for i, inst in enumerate(fleet)
                ]
                gated.gate.set()
                await asyncio.gather(*(h.result() for h in handles))
            return gated.order

        assert asyncio.run(scenario()) == [f"r{i}" for i in range(len(fleet))]


class TestQuota:
    def test_over_quota_rejected_then_admitted_after_release(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1, quota=TenantQuota(1))
            gated = GatedPipeline(svc)
            async with svc:
                first = await svc.submit(fleet[0], tenant="acme")
                with pytest.raises(QuotaExceededError):
                    await svc.submit(fleet[1], tenant="acme")
                # Another tenant is unaffected by acme's quota.
                other = await svc.submit(fleet[1], tenant="globex")
                gated.gate.set()
                await asyncio.gather(first.result(), other.result())
                # Slots released on completion: acme may submit again.
                retry = await svc.submit(fleet[2], tenant="acme")
                await retry.result()
                return svc.stats()

        stats = asyncio.run(scenario())
        assert stats["counters"]["rejected.quota"] == 1
        assert stats["tenants"] == {}  # all slots released

    def test_rejected_submission_holds_no_state(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1, quota=TenantQuota(1))
            gated = GatedPipeline(svc)
            async with svc:
                admitted = await svc.submit(fleet[0], tenant="acme")
                with pytest.raises(QuotaExceededError):
                    await svc.submit(fleet[1], tenant="acme")
                rejected_stats = svc.stats()
                gated.gate.set()
                await admitted.result()
            return rejected_stats

        stats = asyncio.run(scenario())
        # Only the admitted request left any footprint: the rejection
        # consumed no quota slot, no queue entry, no "submitted" count.
        assert stats["counters"]["submitted"] == 1
        assert stats["counters"]["rejected.quota"] == 1
        assert stats["tenants"] == {"acme": 1}
        assert stats["active_requests"] == 1


class TestLifecycle:
    def test_submit_before_start_raises(self, fleet):
        async def scenario():
            svc = SchedulingService()
            with pytest.raises(ServiceClosedError, match="not started"):
                await svc.submit(fleet[0])

        asyncio.run(scenario())

    def test_submit_after_shutdown_raises(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            await svc.start()
            clean = await svc.shutdown()
            with pytest.raises(ServiceClosedError, match="shutting down"):
                await svc.submit(fleet[0])
            return clean

        assert asyncio.run(scenario()) is True

    def test_drain_completes_queued_work(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            await svc.start()
            handles = [await svc.submit(inst) for inst in fleet]
            clean = await svc.shutdown(drain=True)
            return clean, [h.refined.result() for h in handles], svc.stats()

        clean, results, stats = asyncio.run(scenario())
        assert clean is True
        assert len(results) == len(fleet)
        assert stats["counters"]["shutdown.clean"] == 1

    def test_dirty_shutdown_times_out_and_cancels(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            gated = GatedPipeline(svc)
            async with svc:
                stuck = await svc.submit(fleet[0])
                clean = await svc.shutdown(timeout_s=0.05)
                gated.gate.set()  # release the executor thread
                return clean, stuck.refined.cancelled(), svc.stats()

        clean, cancelled, stats = asyncio.run(scenario())
        assert clean is False
        assert cancelled
        assert stats["counters"]["shutdown.timeout"] == 1
        assert stats["active_requests"] == 0

    def test_no_drain_abandons_queued_entries(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            gated = GatedPipeline(svc)
            async with svc:
                running = await svc.submit(fleet[0])
                queued = await svc.submit(fleet[1])
                shutdown = asyncio.ensure_future(svc.shutdown(drain=False))
                await asyncio.sleep(0.02)  # let the flush run
                gated.gate.set()
                clean = await shutdown
                return (
                    clean,
                    running.refined.cancelled(),
                    queued.refined.cancelled(),
                )

        clean, running_cancelled, queued_cancelled = asyncio.run(scenario())
        assert clean is True
        assert not running_cancelled  # already-running work completes
        assert queued_cancelled  # queued-only work is abandoned

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            SchedulingService(workers=0)

    def test_rejects_bad_eps_or_search(self, fleet):
        for options in ({"search": "bisect"}, {"eps": 0}):
            with pytest.raises(InvalidInstanceError):
                SchedulingService(**options)

        async def scenario():
            async with SchedulingService(workers=1) as svc:
                for options in ({"search": "bisect"}, {"eps": 0}):
                    with pytest.raises(InvalidInstanceError):
                        await svc.submit(fleet[0], **options)
                return svc.metrics.get("submitted")

        assert asyncio.run(scenario()) == 0


class TestStats:
    def test_snapshot_shape_and_counters(self, fleet):
        async def scenario():
            async with SchedulingService(workers=2) as svc:
                handles = [await svc.submit(inst) for inst in fleet]
                await asyncio.gather(*(h.result() for h in handles))
                return svc.stats()

        stats = asyncio.run(scenario())
        for key in (
            "backend", "workers", "accepting", "queue_depth",
            "inflight_keys", "active_requests", "tenants",
            "coalescing_hit_rate", "counters", "latency", "cache",
            "plan_cache", "tracer_counters",
        ):
            assert key in stats, key
        assert stats["counters"]["submitted"] == len(fleet)
        assert stats["counters"]["pipeline.runs"] == len(fleet)
        assert stats["counters"]["bound.served"] == len(fleet)
        assert stats["latency"]["bound"]["count"] == len(fleet)
        assert stats["latency"]["refined"]["count"] == len(fleet)
        for summary in stats["latency"].values():
            assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        # Per-request tracers merged into the service-wide aggregate.
        assert stats["tracer_counters"].get("probe.count", 0) > 0

    def test_fabric_stats_empty_without_fill_workers(self, fleet):
        # The service holds no fill fabric, so stats() has no key for one.
        async def scenario():
            async with SchedulingService(workers=1) as svc:
                await (await svc.submit(fleet[0])).result()
                return svc.stats()

        assert "fabric" not in asyncio.run(scenario())

    def test_accepting_flag_tracks_lifecycle(self, fleet):
        async def scenario():
            svc = SchedulingService(workers=1)
            before = svc.stats()["accepting"]
            await svc.start()
            during = svc.stats()["accepting"]
            await svc.shutdown()
            after = svc.stats()["accepting"]
            return before, during, after

        assert asyncio.run(scenario()) == (False, True, False)
