"""Unrelated machines of few different types (Bonifaci–Wiese).

Machines come in ``K`` *types*; type ``t`` has ``machines_per_type[t]``
machines of integer speed ``type_speeds[t] >= 1``, and a machine of
speed ``s`` finishes total load ``L`` at time ``ceil(L / s)``.  Machines
are laid out type 0 first, so machine index determines type.

One probe at target ``T`` reuses the identical model's rounding and
runs the *same* configuration DP once per type, with type ``t``'s
per-machine capacity ``s_t * T`` as the fill budget — the unchanged
engines and kernels never learn about types.  The per-type tables
compose through a boolean lattice convolution::

    cover_t[v] = (OPT_t(v) <= m_t)          # type t can host vector v
    feas_t[w]  = exists v <= w with cover_t[v] and feas_{t-1}[w - v]

A probe accepts iff ``feas_{K-1}[N]``; a witness split backtracks each
type's share through the standard per-cell backtrack
(:func:`repro.core.backtrack.extract_configurations_at`).  The
composition runs as whole-array operations: one reversed AND per
witness step; only the intermediate lattices of ``K >= 3`` fleets keep
a box pass per cover cell — see :meth:`FewTypesModel._compose`.  Short jobs go
greedily to the machine with the smallest completion time whose load is
still below ``s * T``, opening idle machines fastest-first — for a
1-type speed-1 fleet this is step-for-step the identical model's
placement, which is what makes the lift bit-identical.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.backtrack import extract_configurations_at
from repro.core.bounds import MakespanBounds
from repro.errors import DPError, InvalidScheduleError
from repro.models.base import FillSpec, MachineModel, ProbeOutcome

if TYPE_CHECKING:
    from repro.core.dp_common import DPResult
    from repro.core.instance import Instance
    from repro.core.rounding import RoundedInstance
    from repro.core.schedule import Schedule
    from repro.observability.timers import PhaseTimer


@lru_cache(maxsize=512)
def _machine_speeds(
    type_speeds: Tuple[int, ...], machines_per_type: Tuple[int, ...]
) -> np.ndarray:
    speeds = np.repeat(
        np.asarray(type_speeds, dtype=np.int64),
        np.asarray(machines_per_type, dtype=np.int64),
    )
    speeds.setflags(write=False)  # cached: callers share one array
    return speeds


def machine_speeds(instance: "Instance") -> np.ndarray:
    """Per-machine speed array (length ``m``), type 0's machines first."""
    return _machine_speeds(instance.type_speeds, instance.machines_per_type)


#: Allowance for what :meth:`FewTypesModel._compose` allocates beyond
#: its boolean lattices and cell indices, whatever the table size (index
#: tuples, views, scalars).  Measured, not derived: the peak
#: ``tracemalloc`` sees during ``_compose`` minus ``K * sigma`` stays
#: below it in ``test_admission_extra_bytes_covers_the_composition_peak``.
_COMPOSE_OVERHEAD_BYTES = 64 * 1024


class FewTypesModel(MachineModel):
    """Uniform-speed machine types behind the identical probe skeleton."""

    name = "unrelated-few-types"

    # -- instance-level ------------------------------------------------------

    def completion_times(self, instance: "Instance", loads: np.ndarray) -> np.ndarray:
        if set(instance.type_speeds) == {1}:
            # Unit speed everywhere: completion == load (the lift's case).
            return np.asarray(loads)
        speeds = machine_speeds(instance)
        return -(-loads // speeds)

    def lower_bound(self, instance: "Instance") -> int:
        if set(instance.type_speeds) == {1}:
            # Unit speed everywhere: capacity is the machine count and
            # per-job stretch is the raw time — the identical formula.
            return max(instance.area_bound, instance.max_time, 1)
        s_max = max(instance.type_speeds)
        capacity = sum(
            m * s for m, s in zip(instance.machines_per_type, instance.type_speeds)
        )
        volume = -(-instance.total_time // capacity)
        single = max(-(-t // s_max) for t in instance.times)
        return max(volume, single, 1)

    def bounds(self, instance: "Instance") -> MakespanBounds:
        # The upper bound folds in ``volume + longest`` — the typed
        # analogue of the identical model's ``area_bound + max_time`` —
        # so a 1-type unit-speed fleet searches the *exact* interval the
        # identical model would.  That alignment is what makes the lift
        # bit-identical end to end (same probed targets, same accepted
        # set, same best schedule), which the agreement suite asserts.
        # Taking the max with an actual schedule's makespan keeps the
        # bound valid whenever the structural term is the smaller one.
        lb = self.lower_bound(instance)
        if instance.type_speeds == (1,):
            # Unit-speed 1-type fleet (the lift): list scheduling proves
            # OPT <= area + max = stretch, so the greedy schedule can
            # never raise the bound — skip building it.
            return MakespanBounds(
                lower=lb, upper=max(lb, instance.area_bound + instance.max_time)
            )
        s_max = max(instance.type_speeds)
        capacity = sum(
            m * s for m, s in zip(instance.machines_per_type, instance.type_speeds)
        )
        stretch = -(-instance.total_time // capacity) + max(
            -(-t // s_max) for t in instance.times
        )
        ub = max(lb, self._greedy_schedule(instance).makespan, stretch)
        return MakespanBounds(lower=lb, upper=ub)

    def baseline(self, instance: "Instance") -> tuple:
        schedule = self._greedy_schedule(instance)
        bound = schedule.makespan / self.lower_bound(instance)
        return schedule, "speed-list", bound

    def _greedy_schedule(self, instance: "Instance") -> "Schedule":
        """Speed-aware LPT: longest job first, to the machine finishing it soonest.

        Deterministic integer tie-breaks (resulting completion, then
        resulting load, then machine index) make it reproducible across
        platforms; its makespan is the search's UB, so probe acceptance
        at UB is guaranteed by the volume argument in :meth:`assemble`.
        """
        import heapq

        from repro.core.schedule import Schedule

        speeds = [int(s) for s in machine_speeds(instance)]
        machine_jobs: list[list[int]] = [[] for _ in range(instance.machines)]
        if len(set(speeds)) == 1:
            # Uniform speed: load order refines completion order, so a
            # (load, index) heap picks the same machines in O(n log m).
            heap = [(0, i) for i in range(instance.machines)]
            for j in instance.sorted_indices_desc():
                j = int(j)
                load, i = heapq.heappop(heap)
                machine_jobs[i].append(j)
                heapq.heappush(heap, (load + instance.times[j], i))
            return Schedule.from_machine_lists(instance, machine_jobs)
        loads = [0] * instance.machines
        for j in instance.sorted_indices_desc():
            j = int(j)
            t = instance.times[j]
            best = min(
                range(instance.machines),
                key=lambda i: (-(-(loads[i] + t) // speeds[i]), loads[i] + t, i),
            )
            loads[best] += t
            machine_jobs[best].append(j)
        return Schedule.from_machine_lists(instance, machine_jobs)

    # -- probe-level ---------------------------------------------------------

    def fills(self, rounded: "RoundedInstance") -> Tuple[FillSpec, ...]:
        instance = rounded.instance
        # Tables that compose across types must be exact (no decision
        # clamp: composition reads every cell).  A single-type fleet
        # composes with nothing — only the root cell and its backtrack
        # are read, exactly the identical model's access pattern — so
        # it may clamp, which keeps the 1-type lift on the identical
        # path's fast decision-capable kernels (benchmarked: the lift
        # overhead gate in benchmarks/test_bench_models.py).
        single = len(instance.type_speeds) == 1
        return tuple(
            FillSpec(
                counts=rounded.counts,
                class_sizes=rounded.class_sizes,
                budget=int(speed) * rounded.target,
                machine_clamp=instance.machines if single else None,
                label=f"type{t}",
            )
            for t, speed in enumerate(instance.type_speeds)
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
        per_type = instance.machines_per_type

        if len(per_type) == 1 and (
            not dp_results[0].feasible or dp_results[0].decided_infeasible
        ):
            # The single-type fill may run clamped/decision-mode (see
            # :meth:`fills`), whose early exit leaves no trustworthy
            # root cell to compose from; the flags certify OPT > T.
            return ProbeOutcome(machines_needed=m + 1)

        with timer.phase("extract"):
            split = self._compose(rounded, dp_results, per_type)
            if split is None:
                return ProbeOutcome(machines_needed=m + 1)
            flat_configs: list[tuple[int, ...]] = []
            type_counts: list[int] = []
            for t, cell in enumerate(split):
                configs_t = extract_configurations_at(dp_results[t], cell)
                if len(configs_t) > per_type[t]:
                    raise DPError(
                        f"type {t} witness needs {len(configs_t)} machines "
                        f"but only {per_type[t]} exist"
                    )
                type_counts.append(len(configs_t))
                flat_configs.extend(configs_t)

        if len(per_type) == 1:
            # One type: machine index order is open order, so the
            # identical model's placement applies verbatim with the
            # speed-scaled budget ``s * T`` — the lift runs the exact
            # identical code path (and tie-breaks) end to end.
            from repro.core.ptas import _add_short_jobs as _uniform_place

            speed = int(instance.type_speeds[0])
            with timer.phase("place_long"):
                machine_jobs = _place_long_jobs(rounded, flat_configs)
            with timer.phase("short_jobs"):
                machine_jobs = _uniform_place(
                    instance, speed * rounded.target, machine_jobs, rounded.short_indices
                )
            needed = len(machine_jobs)
            if needed > m:
                return ProbeOutcome(machines_needed=needed)
            machine_jobs.extend([] for _ in range(m - needed))
            return ProbeOutcome(
                machines_needed=max(needed, len(flat_configs)),
                machine_jobs=machine_jobs,
            )

        with timer.phase("place_long"):
            packed = _place_long_jobs(rounded, flat_configs)
            # Spread the packed machines to their global indices: type t's
            # configs occupy the first slots of its machine range.
            machine_jobs: list[list[int]] = [[] for _ in range(m)]
            opened = [False] * m
            offset = 0
            pos = 0
            for t, used in enumerate(type_counts):
                for i in range(used):
                    machine_jobs[offset + i] = packed[pos]
                    opened[offset + i] = True
                    pos += 1
                offset += per_type[t]

        with timer.phase("short_jobs"):
            accepted = self._add_short_jobs(
                instance, rounded.target, machine_jobs, opened, rounded.short_indices
            )
        if not accepted:
            return ProbeOutcome(machines_needed=m + 1)
        machines_needed = sum(1 for flag in opened if flag)
        return ProbeOutcome(
            machines_needed=max(machines_needed, len(flat_configs)),
            machine_jobs=machine_jobs,
        )

    def _compose(
        self,
        rounded: "RoundedInstance",
        dp_results: Tuple["DPResult", ...],
        per_type: Tuple[int, ...],
    ) -> Optional[list]:
        """Split the full job vector across types, or ``None`` if impossible.

        The witness walks types last to first: at type ``t`` with
        remaining vector ``w`` it takes the first cell ``v <= w`` (C
        order) with ``cover_t[v]`` and ``feas_{t-1}[w - v]`` — one
        reversed AND over the sub-box ``[0, w]``, since C order over a
        sub-box keeps the whole table's C order.  At the last type the
        AND is also the root test.  Only the intermediate lattices
        ``feas_1 .. feas_{K-2}`` (``K >= 3``) are materialised, one box
        pass ``feas_t[v:] |= feas_{t-1}[:shape - v]`` per cover cell.
        """
        K = len(per_type)
        if rounded.dims == 0:
            return [() for _ in range(K)]
        shape = rounded.table_shape
        full = tuple(s - 1 for s in shape)
        if K == 1:
            # One type composes with nothing: only the root cell matters,
            # so skip materialising the whole-table cover lattice (the
            # identical model reads exactly this one cell too).
            return [full] if int(dp_results[0].table[full]) <= per_type[0] else None
        feas = [dp_results[0].table <= int(per_type[0])]
        for t in range(1, K - 1):
            nxt = np.zeros(shape, dtype=bool)
            for flat in np.flatnonzero(dp_results[t].table <= int(per_type[t])):
                v = np.unravel_index(flat, shape)
                dst = tuple(slice(int(x), None) for x in v)
                src = tuple(slice(None, s - int(x)) for s, x in zip(shape, v))
                np.logical_or(nxt[dst], feas[t - 1][src], out=nxt[dst])
            feas.append(nxt)

        cells: list = [None] * K
        w = full
        for t in range(K - 1, 0, -1):
            hit = dp_results[t].table[tuple(slice(None, x + 1) for x in w)] <= int(per_type[t])
            np.logical_and(hit, feas[t - 1][tuple(slice(x, None, -1) for x in w)], out=hit)
            first = int(hit.argmax())
            if not hit.flat[first]:
                if t == K - 1:
                    return None
                raise DPError(  # pragma: no cover - feas guarantees a witness
                    "type composition claims feasibility but has no witness"
                )
            v = tuple(int(x) for x in np.unravel_index(first, hit.shape))
            del hit  # freed before the next step's (admission_extra_bytes)
            cells[t] = v
            w = tuple(a - b for a, b in zip(w, v))
        if not bool(feas[0][w]):  # pragma: no cover
            raise DPError("type composition witness does not cover type 0")
        cells[0] = w
        return cells

    def _add_short_jobs(
        self,
        instance: "Instance",
        target: int,
        machine_jobs: list,
        opened: list,
        short_indices,
    ) -> bool:
        """Greedy short placement over the typed fleet.

        Mirrors the identical model: each short goes to the *earliest
        finishing* open machine whose load is still below its capacity
        ``s * T``; when none qualifies, the fastest idle machine opens.
        Fails (returns False) only when all ``m`` machines are at
        capacity — impossible while total work fits ``sum m_t s_t T``.
        """
        import heapq

        loads = [sum(instance.times[j] for j in jobs) for jobs in machine_jobs]
        shorts = sorted(short_indices, key=lambda j: -instance.times[j])
        if len(set(instance.type_speeds)) == 1:
            # Uniform speed: load order refines completion order, so the
            # identical model's (load, index) heap picks the same
            # machines in O(n log m) — for a 1-type unit-speed fleet
            # this is step-for-step repro.core.ptas._add_short_jobs,
            # which is what keeps the lift bit-identical.  Equal speeds
            # also make fastest-first idle opening plain index order.
            idle = [i for i in range(instance.machines) if not opened[i]]
            cap = int(instance.type_speeds[0]) * target
            heap = [(loads[i], i) for i in range(instance.machines) if opened[i]]
            heapq.heapify(heap)
            for j in shorts:
                if heap and heap[0][0] < cap:
                    load, i = heapq.heappop(heap)
                elif idle:
                    i = idle.pop(0)
                    opened[i] = True
                    load = loads[i]
                else:
                    return False
                machine_jobs[i].append(j)
                loads[i] = load + instance.times[j]
                heapq.heappush(heap, (loads[i], i))
            return True
        speeds = [int(s) for s in machine_speeds(instance)]
        # Idle machines open fastest-first; ties by index.
        idle = sorted(
            (i for i in range(instance.machines) if not opened[i]),
            key=lambda i: (-speeds[i], i),
        )
        for j in shorts:
            candidates = [
                i
                for i in range(instance.machines)
                if opened[i] and loads[i] < speeds[i] * target
            ]
            if candidates:
                i = min(candidates, key=lambda i: (-(-loads[i] // speeds[i]), i))
            elif idle:
                i = idle.pop(0)
                opened[i] = True
            else:
                return False
            machine_jobs[i].append(j)
            loads[i] += instance.times[j]
        return True

    # -- schedule-level ------------------------------------------------------

    def check_schedule(self, schedule: "Schedule") -> None:
        # Any assignment is structurally feasible; completion times are
        # the objective, not a constraint.  Validate the fleet shape.
        instance = schedule.instance
        if len(machine_speeds(instance)) != instance.machines:
            raise InvalidScheduleError("machine layout does not match the fleet")

    def admission_extra_bytes(self, rounded: "RoundedInstance") -> int:
        # The peak of :meth:`_compose`: ``K - 1`` boolean feasibility
        # lattices plus one scratch lattice (the witness's hit array, or
        # the cover of the lattice being built), and for ``K >= 3`` that
        # cover's flat cell indices, 8 bytes each.  One type composes
        # nothing.
        K = len(rounded.instance.type_speeds)
        if K == 1:
            return 0
        sigma = rounded.table_size
        extra = K * sigma + _COMPOSE_OVERHEAD_BYTES
        if K >= 3:
            extra += 8 * sigma
        return extra
