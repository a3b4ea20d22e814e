"""The service layer under the three machine models.

Covers the satellites of the model refactor that live above the core:
the daemon's coalescing key separates models structurally, degraded
mode serves each model its *own* certified baseline (the LPT/MULTIFIT
ratios are identical-machines theorems and must never be quoted for
the other models), and batch/serve runs carry mixed-model workloads
end to end with feasible schedules.
"""

import asyncio

from repro.core.instance import uniform_instance
from repro.core.probe_cache import normalized_request_key
from repro.models import lift_to_few_types, lift_to_time_restricted, with_model
from repro.resilience import FaultInjector
from repro.service import SchedulingService
from repro.service.batch import BatchScheduler
from repro.service.loadgen import LoadProfile, generate_arrivals


def fleet():
    base = uniform_instance(16, 3, low=5, high=60, seed=71)
    return [
        base,
        with_model(
            uniform_instance(14, 3, low=5, high=60, seed=72),
            "unrelated-few-types",
            type_speeds=(1, 2),
            machines_per_type=(2, 1),
        ),
        with_model(
            uniform_instance(12, 3, low=5, high=60, seed=73),
            "time-restricted",
            max_jobs_per_machine=5,
        ),
    ]


class TestCoalescingKey:
    def test_model_leads_the_key_and_separates_equal_job_arrays(self):
        inst = uniform_instance(12, 3, low=5, high=40, seed=9)
        keys = {
            normalized_request_key(i, 0.3, "quarter", "auto")
            for i in (inst, lift_to_few_types(inst), lift_to_time_restricted(inst))
        }
        assert len(keys) == 3
        for key in keys:
            assert key[0] in {
                "identical",
                "unrelated-few-types",
                "time-restricted",
            }

    def test_daemon_never_coalesces_across_models(self):
        inst = uniform_instance(12, 3, low=5, high=40, seed=10)
        lifted = lift_to_few_types(inst)

        async def scenario():
            async with SchedulingService(workers=1) as svc:
                a = await svc.submit(inst, eps=0.3, name="identical")
                b = await svc.submit(lifted, eps=0.3, name="lifted")
                results = [await a.result(), await b.result()]
            return svc, [a, b], results

        svc, handles, results = asyncio.run(scenario())
        assert not svc.metrics.get("coalesced")
        assert [h.coalesced for h in handles] == [False, False]
        # The 1-type lift is search-identical, so the *answers* agree
        # even though the runs were (correctly) kept separate.
        assert results[0].makespan == results[1].makespan


class TestDegradedModeIsModelAware:
    #: poisons every member of the fallback chain, every request.
    POISON = dict(
        seed=1,
        rate=1.0,
        kinds=("oom",),
        sites=("dp.auto", "dp.sweep", "dp.vectorized"),
        max_failures=10**9,
    )

    def test_each_model_degrades_to_its_own_baseline(self):
        scheduler = BatchScheduler(
            backend="fallback", workers=2, faults=FaultInjector(**self.POISON)
        )
        report = scheduler.run(fleet())
        assert len(report.results) == 3
        by_model = {
            r.request.instance.model: r for r in report.results
        }
        assert all(r.degraded for r in report.results)
        assert by_model["identical"].degraded_by in ("lpt", "multifit")
        assert by_model["unrelated-few-types"].degraded_by == "speed-list"
        assert by_model["time-restricted"].degraded_by == "capped-lpt"
        for r in report.results:
            from repro.models import verify_schedule

            verify_schedule(r.degraded_schedule)
            assert r.degraded_bound >= 1.0


class TestMixedModelBatch:
    def test_batch_carries_all_three_models_end_to_end(self):
        from repro.models import verify_schedule

        report = BatchScheduler(workers=2).run(fleet())
        assert len(report.results) == 3
        for r in report.results:
            assert not r.degraded, r.error
            verify_schedule(r.result.schedule)

    def test_batch_results_independent_of_worker_count(self):
        instances = fleet()
        one = BatchScheduler(workers=1).run(instances)
        many = BatchScheduler(workers=3).run(instances)
        for a, b in zip(one.results, many.results):
            assert a.result.makespan == b.result.makespan
            assert a.result.schedule.assignment == b.result.schedule.assignment


class TestModelledLoadProfiles:
    def test_generated_arrivals_declare_the_profile_model(self):
        profile = LoadProfile(
            requests=6,
            jobs=10,
            machines=3,
            seed=5,
            model="time-restricted",
            max_jobs_per_machine=6,
        )
        for arrival in generate_arrivals(profile):
            assert arrival.instance.model == "time-restricted"
            assert arrival.instance.max_jobs_per_machine == 6

    def test_daemon_serves_a_modelled_workload(self):
        inst = with_model(
            uniform_instance(12, 3, low=5, high=40, seed=11),
            "unrelated-few-types",
            type_speeds=(1, 2),
            machines_per_type=(2, 1),
        )

        async def scenario():
            async with SchedulingService(workers=2) as svc:
                handle = await svc.submit(inst, eps=0.3, name="typed")
                bound = await handle.bound
                refined = await handle.result()
            return bound, refined

        bound, refined = asyncio.run(scenario())
        from repro.models import verify_schedule

        # Bound-first contract under the model: the immediate answer is
        # the model's own baseline, never worse than the refinement.
        assert bound.makespan >= refined.makespan
        verify_schedule(refined.result.schedule)
