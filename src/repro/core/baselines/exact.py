"""Exact branch-and-bound for small ``P || Cmax`` instances.

Used by the test suite as the ground-truth optimum against which the
PTAS's ``(1 + eps)`` guarantee is property-checked, and by the examples
to report true optimality gaps.  Exponential in the worst case — keep
``n`` below ~20 for interactive use.

The search assigns jobs largest-first (strong early pruning), bounds
with the volume bound ``ceil(remaining / m)`` plus the current maximum
load, starts from the LPT makespan as the incumbent, and breaks machine
symmetry by never opening more than one empty machine per node.

:func:`brute_force_typed_optimal` is the ground truth for tiny
``unrelated-few-types`` fleets, where a machine of speed ``s``
completes load ``L`` at ``ceil(L / s)``: it enumerates assignments
outright (``n <= 8``, ``m <= 4``), so it shares no pruning argument with
the solver it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines.lpt import lpt_schedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError


@dataclass(frozen=True)
class ExactResult:
    """Optimal schedule plus search statistics."""

    schedule: Schedule
    nodes_explored: int

    @property
    def makespan(self) -> int:
        """The optimal makespan ``C*max``."""
        return self.schedule.makespan


def branch_and_bound_optimal(instance: Instance, node_limit: int = 5_000_000) -> ExactResult:
    """Compute an optimal schedule by depth-first branch and bound.

    Raises :class:`InvalidInstanceError` when ``node_limit`` nodes are
    expanded without proving optimality (a guard against accidentally
    feeding the exact solver a large instance).
    """
    m = instance.machines
    order = [int(j) for j in instance.sorted_indices_desc()]
    times = [instance.times[j] for j in order]
    n = len(times)

    incumbent = lpt_schedule(instance)
    best_makespan = incumbent.makespan
    best_assignment = list(incumbent.assignment)

    # Remaining work after position i (inclusive), for the volume bound.
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + times[i]

    loads = [0] * m
    assignment = [-1] * n  # in `order` positions
    nodes = 0

    def lower_bound(pos: int) -> int:
        current_max = max(loads)
        volume = (sum(loads) + suffix[pos] + m - 1) // m
        # The next (largest remaining) job must land somewhere.
        next_job = times[pos] + min(loads) if pos < n else 0
        return max(current_max, volume, next_job)

    def dfs(pos: int) -> None:
        nonlocal nodes, best_makespan, best_assignment
        nodes += 1
        if nodes > node_limit:
            raise InvalidInstanceError(
                f"branch and bound exceeded {node_limit} nodes; instance too large"
            )
        if pos == n:
            span = max(loads)
            if span < best_makespan:
                best_makespan = span
                final = [0] * n
                for p, machine in enumerate(assignment):
                    final[order[p]] = machine
                best_assignment = final
            return
        if lower_bound(pos) >= best_makespan:
            return
        t = times[pos]
        tried: set[int] = set()  # skip machines with identical load (symmetry)
        opened_empty = False
        for machine in range(m):
            load = loads[machine]
            if load in tried:
                continue
            if load == 0:
                if opened_empty:
                    continue
                opened_empty = True
            tried.add(load)
            if load + t >= best_makespan:
                continue
            loads[machine] += t
            assignment[pos] = machine
            dfs(pos + 1)
            loads[machine] -= t
            assignment[pos] = -1

    dfs(0)
    return ExactResult(
        schedule=Schedule(instance, tuple(best_assignment)),
        nodes_explored=nodes,
    )


#: Size limits of :func:`brute_force_typed_optimal` (``m ** n`` leaves).
TYPED_MAX_JOBS = 8
TYPED_MAX_MACHINES = 4


def brute_force_typed_optimal(instance: Instance) -> ExactResult:
    """Optimal schedule of a tiny typed fleet by full enumeration.

    Tries every assignment of ``n <= 8`` jobs to ``m <= 4`` machines
    (at most ``4 ** 8 = 65536``) and keeps the first one, in
    lexicographic assignment order, of least makespan; a machine of
    speed ``s`` completes load ``L`` at ``ceil(L / s)``.  Raises
    :class:`InvalidInstanceError` for larger instances and for models
    other than ``unrelated-few-types``.
    """
    from itertools import product

    from repro.models.few_types import machine_speeds

    n, m = instance.n_jobs, instance.machines
    if n > TYPED_MAX_JOBS or m > TYPED_MAX_MACHINES:
        raise InvalidInstanceError(
            f"brute force needs n <= {TYPED_MAX_JOBS} and m <= "
            f"{TYPED_MAX_MACHINES}, got n={n}, m={m}"
        )
    if instance.model != "unrelated-few-types":
        raise InvalidInstanceError(
            f"brute force covers typed fleets only, got {instance.model!r}"
        )
    speeds = [int(s) for s in machine_speeds(instance)]
    best_makespan = None
    best_assignment: tuple = ()
    leaves = 0
    for assignment in product(range(m), repeat=n):
        leaves += 1
        loads = [0] * m
        for job, machine in enumerate(assignment):
            loads[machine] += instance.times[job]
        span = max(-(-load // speed) for load, speed in zip(loads, speeds))
        if best_makespan is None or span < best_makespan:
            best_makespan, best_assignment = span, assignment
    return ExactResult(
        schedule=Schedule(instance, tuple(best_assignment)),
        nodes_explored=leaves,
    )
