"""Local-search polish for schedules (move and swap neighbourhoods).

The PTAS's guarantee is about the worst case; its schedules often leave
easy local gains on the table (rounding groups jobs coarsely).  This
module implements the standard polish: repeatedly move a job off a
critical (maximum-load) machine, or swap a pair of jobs across
machines, whenever that strictly reduces the makespan — terminating at
a local optimum.  The result is never worse than the input (tested),
so ``ptas_schedule(...)`` followed by :func:`improve_schedule` keeps
the ``(1+eps)`` guarantee while usually tightening the realised
makespan toward what LPT/MULTIFIT achieve.

This is deliberately not part of the paper's algorithm — it is the
kind of practical addition a downstream user wants, kept separate so
the reproduction stays faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError


@dataclass(frozen=True)
class ImprovementResult:
    """A polished schedule plus what the search did."""

    schedule: Schedule
    initial_makespan: int
    moves: int
    swaps: int
    rounds: int

    @property
    def improvement(self) -> int:
        """Makespan reduction achieved (>= 0)."""
        return self.initial_makespan - self.schedule.makespan


def improve_schedule(schedule: Schedule, max_rounds: int = 100) -> ImprovementResult:
    """Polish ``schedule`` with first-improvement move/swap local search.

    Each round looks at the critical (maximum-load) machine: first it
    tries to *move* one of its jobs to the least-loaded other machine,
    then to *swap* one of its jobs with a smaller job elsewhere, taking
    the first strict gain in job-index order.  A tie for the maximum
    load admits no strict gain (the other critical machine keeps the
    makespan), so the search stops there, at a local optimum, or after
    ``max_rounds`` rounds.  Each round is whole-array: every move off
    the critical machine is tested as one vector and every swap as one
    (its jobs x the other jobs) matrix.

    Identical machines only: the neighbourhood reasons about raw loads,
    which are completion times only on identical machines, and it
    ignores job-count caps.  Other models raise
    :class:`~repro.errors.InvalidInstanceError`.
    """
    if max_rounds < 1:
        raise InvalidInstanceError(f"max_rounds must be >= 1, got {max_rounds}")
    inst = schedule.instance
    if inst.model != "identical":
        raise InvalidInstanceError(
            f"improve_schedule polishes identical machines only, got model "
            f"{inst.model!r}: its loads are not that model's completion times"
        )
    times = inst.times_array()
    assignment = np.asarray(schedule.assignment, dtype=np.int64)
    loads = schedule.loads()

    moves = swaps = rounds = 0
    initial = int(loads.max())

    for _ in range(max_rounds):
        rounds += 1
        makespan = int(loads.max())
        critical = np.flatnonzero(loads == makespan)
        if critical.size != 1 or inst.machines == 1:
            break
        machine = int(critical[0])
        # rest[k]: the highest load apart from ``machine`` and ``k``
        # (at least 0) -- the peak a move or swap onto ``k`` leaves.
        others = loads.copy()
        others[machine] = 0
        top = int(np.argmax(others))
        rest = np.full(inst.machines, others[top])
        others[top] = 0
        rest[top] = others.max()

        on_machine = assignment == machine
        here = np.flatnonzero(on_machine)
        t_here = times[here]
        # Move: the least-loaded machine (never the unique critical
        # one) is every job's best home.
        dest = int(np.argmin(loads))
        peak = np.maximum(
            loads[dest] + t_here, np.maximum(makespan - t_here, rest[dest])
        )
        hits = np.flatnonzero(peak < makespan)
        if hits.size:
            j, t = int(here[hits[0]]), int(t_here[hits[0]])
            assignment[j] = dest
            loads[machine] -= t
            loads[dest] += t
            moves += 1
            continue
        # Swap: one critical job against a smaller job elsewhere.
        there = np.flatnonzero(~on_machine)
        to_machine = assignment[there]
        delta = t_here[:, None] - times[there][None, :]
        new_here = makespan - delta
        new_there = loads[to_machine][None, :] + delta
        peak = np.maximum(np.maximum(new_here, new_there), rest[to_machine][None, :])
        hit = (delta > 0) & (peak < makespan)
        if not hit.any():
            break
        row, col = divmod(int(np.argmax(hit)), there.size)
        j, o, other = int(here[row]), int(there[col]), int(to_machine[col])
        assignment[j] = other
        assignment[o] = machine
        loads[machine] = new_here[row, col]
        loads[other] = new_there[row, col]
        swaps += 1

    polished = Schedule(inst, tuple(assignment.tolist()))
    if polished.makespan > initial:
        raise InvalidInstanceError("internal error: local search made things worse")
    return ImprovementResult(
        schedule=polished,
        initial_makespan=initial,
        moves=moves,
        swaps=swaps,
        rounds=rounds,
    )
