"""Time-restricted scheduling: identical machines, at most B jobs each.

Jaykrishnan–Levin's B-parameter becomes the instance field
``max_jobs_per_machine``.  The probe is the identical model's with two
twists: machine configurations carry at most ``B`` long jobs
(``enumerate_configurations(..., max_jobs=B)``), and the greedy short
placement only uses machines with free job slots.  The filtered
configuration set travels with the plan-cache token ``("maxjobs", B)``
so it can never alias the identical model's unfiltered plans.

Greedy slot-aware short placement is not an exact feasibility oracle
(unlike the identical model's, which certifies ``OPT > T`` on failure),
so a failed placement falls back to capped LPT: if that schedule's
makespan meets the target outright the probe still accepts — in
particular the probe at the search's initial upper bound (at least the
capped-LPT makespan) always accepts, which is the invariant
the search epilogue of :mod:`repro.core.quarter_split` relies on.  The
fallback takes no ``(1 + 1/k)`` slack on purpose: LPT's makespan is
never below the optimum, so with a non-binding cap it cannot accept a
target the identical model's probe rejects, and the ``B >= n`` lift
keeps the identical acceptance predicate exactly.  A rejection
certifies "neither construction fits", not ``OPT > T``;
docs/MODELS.md spells out the weakened guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.backtrack import extract_machine_configurations
from repro.core.bounds import MakespanBounds
from repro.errors import InvalidScheduleError
from repro.models.base import FillSpec, MachineModel, ProbeOutcome

if TYPE_CHECKING:
    from repro.core.dp_common import DPResult
    from repro.core.instance import Instance
    from repro.core.rounding import RoundedInstance
    from repro.core.schedule import Schedule
    from repro.observability.timers import PhaseTimer


class TimeRestrictedModel(MachineModel):
    """Identical machines with a per-machine job-count cap B."""

    name = "time-restricted"

    # -- instance-level ------------------------------------------------------

    def lower_bound(self, instance: "Instance") -> int:
        lb = max(instance.area_bound, instance.max_time)
        if instance.max_jobs_per_machine < instance.n_jobs:
            # Only when the cap actually binds: some machine runs at
            # least ceil(n/m) jobs, so its load is at least the sum of
            # the q smallest times.  With a non-binding cap we keep the
            # identical model's exact formula so the B >= n lift probes
            # the identical search interval bit-for-bit.
            q = -(-instance.n_jobs // instance.machines)
            lb = max(lb, int(sum(sorted(instance.times)[:q])))
        return lb

    def bounds(self, instance: "Instance") -> MakespanBounds:
        # ``area_bound + max_time`` keeps the interval aligned with the
        # identical model whenever capped LPT is at least as good (it
        # always is for B >= n, where capped LPT *is* LPT) — the same
        # alignment trick as the few-types model, and the reason the
        # non-binding lift is search-identical.
        lb = self.lower_bound(instance)
        if instance.max_jobs_per_machine >= instance.n_jobs:
            # Non-binding cap: capped LPT *is* LPT, whose makespan list
            # scheduling bounds by area + max — the structural term
            # already dominates, so skip building the schedule.
            return MakespanBounds(
                lower=lb, upper=max(lb, instance.area_bound + instance.max_time)
            )
        ub = max(
            lb,
            self._capped_lpt(instance).makespan,
            instance.area_bound + instance.max_time,
        )
        return MakespanBounds(lower=lb, upper=ub)

    def baseline(self, instance: "Instance") -> tuple:
        schedule = self._capped_lpt(instance)
        bound = schedule.makespan / self.lower_bound(instance)
        return schedule, "capped-lpt", bound

    def _capped_lpt(self, instance: "Instance") -> "Schedule":
        """LPT restricted to machines with a free job slot.

        Always feasible because ``n <= m * B`` (validated on the
        instance); deterministic tie-breaks by machine index.
        """
        from repro.core.schedule import Schedule

        cap = instance.max_jobs_per_machine
        loads = [0] * instance.machines
        counts = [0] * instance.machines
        machine_jobs: list[list[int]] = [[] for _ in range(instance.machines)]
        for j in instance.sorted_indices_desc():
            j = int(j)
            t = instance.times[j]
            best = min(
                (i for i in range(instance.machines) if counts[i] < cap),
                key=lambda i: (loads[i] + t, i),
            )
            loads[best] += t
            counts[best] += 1
            machine_jobs[best].append(j)
        return Schedule.from_machine_lists(instance, machine_jobs)

    # -- probe-level ---------------------------------------------------------

    def fills(self, rounded: "RoundedInstance") -> Tuple[FillSpec, ...]:
        instance = rounded.instance
        cap = instance.max_jobs_per_machine
        return (
            FillSpec(
                counts=rounded.counts,
                class_sizes=rounded.class_sizes,
                budget=rounded.target,
                max_jobs=cap,
                machine_clamp=instance.machines,
                token=("maxjobs", cap),
            ),
        )

    def assemble(
        self,
        rounded: "RoundedInstance",
        fills: Tuple[FillSpec, ...],
        dp_results: Tuple["DPResult", ...],
        timer: "PhaseTimer",
    ) -> ProbeOutcome:
        from repro.core.ptas import _place_long_jobs

        instance = rounded.instance
        m = instance.machines
        dp_result = dp_results[0]
        if not dp_result.feasible or dp_result.decided_infeasible:
            # With the B-filtered configuration set, infeasibility of the
            # long jobs alone certifies OPT > T exactly as for identical
            # machines (an optimal machine's long jobs are a <= B config).
            return ProbeOutcome(machines_needed=m + 1)

        with timer.phase("extract"):
            machine_configs = extract_machine_configurations(dp_result)
        with timer.phase("place_long"):
            machine_jobs = _place_long_jobs(rounded, machine_configs)
        with timer.phase("short_jobs"):
            machine_jobs = self._add_short_jobs(
                instance, rounded.target, machine_jobs, rounded.short_indices
            )

        needed = len(machine_jobs)
        if needed <= m:
            return ProbeOutcome(
                machines_needed=max(needed, len(machine_configs)),
                machine_jobs=machine_jobs,
            )
        # Greedy slot packing overflowed; capped LPT may still meet the
        # target outright — accept on its schedule if so.  The bound is
        # deliberately ``<= target`` with no (1 + 1/k) slack: LPT's
        # makespan is >= OPT, so for a non-binding cap the fallback can
        # never flip a probe the identical model would reject (greedy
        # overflow implies OPT > T implies LPT > T), keeping the B >= n
        # lift's acceptance predicate exactly the identical model's.
        # That same argument makes the fallback provably futile when the
        # cap cannot bind, so the lift skips building it.
        if instance.max_jobs_per_machine < instance.n_jobs:
            fallback = self._capped_lpt(instance)
            if fallback.makespan <= rounded.target:
                jobs = [list(fallback.jobs_on(i)) for i in range(m)]
                return ProbeOutcome(machines_needed=m, machine_jobs=jobs)
        return ProbeOutcome(machines_needed=max(needed, len(machine_configs)))

    def _add_short_jobs(
        self,
        instance: "Instance",
        target: int,
        machine_jobs: list,
        short_indices,
    ) -> list:
        """Identical-model greedy placement, skipping machines out of slots.

        With ``B >= n`` no slot ever binds and this is step-for-step
        :func:`repro.core.ptas._add_short_jobs` (same least-loaded
        choice, same open-new-machine rule) — the degenerate-case tests
        assert the schedules match exactly.
        """
        import heapq

        cap = instance.max_jobs_per_machine
        if cap >= instance.n_jobs:
            from repro.core.ptas import _add_short_jobs as _unconstrained

            return _unconstrained(instance, target, machine_jobs, short_indices)
        loads = [sum(instance.times[j] for j in jobs) for jobs in machine_jobs]
        counts = [len(jobs) for jobs in machine_jobs]
        heap = [(load, i) for i, load in enumerate(loads)]
        heapq.heapify(heap)
        shorts = sorted(short_indices, key=lambda j: -instance.times[j])
        for j in shorts:
            placed: Optional[int] = None
            while heap and heap[0][0] < target:
                load, i = heapq.heappop(heap)
                if counts[i] < cap:
                    placed = i
                    break
                # A full machine never regains slots; drop it for good.
            if placed is None:
                placed = len(machine_jobs)
                machine_jobs.append([])
                loads.append(0)
                counts.append(0)
                load = 0
            machine_jobs[placed].append(j)
            loads[placed] = load + instance.times[j]
            counts[placed] += 1
            heapq.heappush(heap, (loads[placed], placed))
        return machine_jobs

    # -- schedule-level ------------------------------------------------------

    def check_schedule(self, schedule: "Schedule") -> None:
        cap = schedule.instance.max_jobs_per_machine
        per_machine = [0] * schedule.instance.machines
        for machine in schedule.assignment:
            per_machine[machine] += 1
        for i, count in enumerate(per_machine):
            if count > cap:
                raise InvalidScheduleError(
                    f"machine {i} runs {count} jobs, model caps at {cap}"
                )
