"""The Hochbaum–Shmoys PTAS driver (Algorithm 1).

The PTAS is a *dual approximation*: for a target makespan ``T`` the
probe either produces a schedule with makespan at most ``(1 + eps) T``
or certifies that the optimum exceeds ``T``.  Bisecting ``T`` over
``[LB, UB]`` (:mod:`repro.core.bounds`) then yields a schedule within
``(1 + eps)`` of optimal.

One probe (:func:`probe_target`) does:

1. Split jobs into short/long and round the long ones
   (:mod:`repro.core.rounding`).
2. Solve the high-dimensional DP for ``OPT(N)`` — the minimum number of
   machines packing the rounded long jobs within ``T`` (pluggable
   solver; the default is the vectorized one, the simulator engines
   substitute their own instrumented solvers).
3. Extract one configuration per machine
   (:mod:`repro.core.backtrack`) and place the *actual* long jobs.
4. Greedily add short jobs to any machine with load still below ``T``,
   opening further machines only when every open machine is at ``T`` or
   more.  If that needs more than ``m`` machines, total work exceeds
   ``m*T`` and the probe certifies ``OPT > T``.

The accepted schedule's makespan is at most ``T + T/k <= (1 + eps) T``:
long-job rounding loses less than ``k * floor(T/k^2) <= T/k`` per
machine, and a short job (``t <= T/k``) is only ever added to a machine
whose load is below ``T``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, Union

import numpy as np

from repro.core.dp_common import DPResult, empty_dp_result
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance
from repro.core.rounding import RoundedInstance
from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError
from repro.observability import context as obs
from repro.observability.timers import PhaseTimer
from repro.observability.trace import ProbeTrace, TraceSink

if TYPE_CHECKING:  # import cycle: probe_cache imports nothing from here,
    # but keeping the runtime import lazy keeps repro.core.ptas a light
    # dependency for the DP-only users.
    from repro.core.executor import ProbeExecutor
    from repro.core.probe_cache import NullProbeCache, ProbeCache

    ProbeCacheLike = Union[ProbeCache, NullProbeCache]


class DPSolver(Protocol):
    """Signature every DP backend implements (engines included)."""

    def __call__(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
    ) -> DPResult: ...


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one target-makespan probe.

    ``machines_needed`` counts the machines the dual-approximation
    procedure used (possibly exceeding ``m``); ``schedule`` is present
    only when ``machines_needed <= m``.  ``dp_result`` is kept so
    engines and tests can inspect the table that was filled; models
    needing several fills per probe (``unrelated-few-types``) append
    the full tuple as ``dp_results`` (``dp_result`` is its first
    entry).
    """

    target: int
    rounded: RoundedInstance
    dp_result: DPResult
    machines_needed: int
    schedule: Optional[Schedule]
    dp_results: tuple = ()

    @property
    def accepted(self) -> bool:
        """Whether the probe certified feasibility at this target."""
        return self.schedule is not None


def _place_long_jobs(
    rounded: RoundedInstance, machine_configs: list[tuple[int, ...]]
) -> list[list[int]]:
    """Turn per-machine class counts into per-machine real job lists.

    Jobs within a class are interchangeable under rounding, so each
    machine simply pops the next ``s_i`` jobs from class ``i``'s queue.
    """
    queues = [list(idx) for idx in rounded.long_indices]
    machines: list[list[int]] = []
    for cfg in machine_configs:
        jobs: list[int] = []
        for cls, count in enumerate(cfg):
            take, queues[cls] = queues[cls][:count], queues[cls][count:]
            if len(take) != count:
                raise InvalidInstanceError(
                    "internal error: configuration demands more jobs than the class holds"
                )
            jobs.extend(take)
        machines.append(jobs)
    if any(queues[cls] for cls in range(len(queues))):
        raise InvalidInstanceError("internal error: long jobs left unassigned")
    return machines


def _add_short_jobs(
    instance: Instance,
    target: int,
    machine_jobs: list[list[int]],
    short_indices: Sequence[int],
) -> list[list[int]]:
    """Greedy short-job placement of the dual-approximation argument.

    Each short job goes to the *least-loaded* machine whose load is
    still below ``target`` (least-loaded keeps the final makespan as
    flat as possible); a new machine opens only when every open machine
    has reached ``target``.  A heap keyed by load gives O(n log m).
    """
    loads = [sum(instance.times[j] for j in jobs) for jobs in machine_jobs]
    heap = [(load, i) for i, load in enumerate(loads)]
    heapq.heapify(heap)
    # Sorting shorts longest-first tightens the resulting makespan a
    # little (classic LPT effect) at no asymptotic cost.
    shorts = sorted(short_indices, key=lambda j: -instance.times[j])
    for j in shorts:
        if heap and heap[0][0] < target:
            load, i = heapq.heappop(heap)
        else:
            i = len(machine_jobs)
            machine_jobs.append([])
            load = 0
        machine_jobs[i].append(j)
        heapq.heappush(heap, (load + instance.times[j], i))
    return machine_jobs


def _emit_probe_trace(
    timer: PhaseTimer,
    rounded: RoundedInstance,
    num_configs: int,
    machines_needed: int,
    accepted: bool,
    cache: "ProbeCacheLike",
) -> None:
    """Merge this probe's timings into the ambient tracer and emit one event."""
    tracer = obs.current_tracer()
    if tracer is None:
        return
    tracer.count("probe.count")
    tracer.count("probe.cells", rounded.table_size)
    tracer.count("probe.configs", num_configs)
    for name, seconds in timer.seconds.items():
        tracer.timer.add(f"probe.{name}", seconds)
    tracer.record_probe(
        ProbeTrace(
            target=rounded.target,
            accepted=accepted,
            machines_needed=machines_needed,
            k=rounded.k,
            dims=rounded.dims,
            n_long=rounded.n_long,
            table_size=rounded.table_size,
            num_configs=num_configs,
            phase_seconds=timer.as_dict(),
            cache_events=dict(cache.last_events),
        )
    )


def probe_target(
    instance: Instance,
    target: int,
    eps: float,
    dp_solver: DPSolver = dp_vectorized,
    cache: Optional["ProbeCache"] = None,
) -> ProbeResult:
    """Run one dual-approximation probe at makespan target ``target``.

    The probe is model-driven: the instance's
    :class:`~repro.models.base.MachineModel` declares which dense DP
    fills the target needs (one for identical machines, one per type
    for ``unrelated-few-types``), the generic driver below runs them
    through the solver and cache, and the model assembles the tables
    into machines.  The identical path is bit-identical to the
    pre-model library (tested).

    ``cache`` (a :class:`~repro.core.probe_cache.ProbeCache`) reuses
    DP-tables across probes (and across models whose fills coincide);
    the probe's outcome is bit-identical with or without it (tested).
    Warm-capable solvers may seed from a cached table at a nearby
    smaller target, which preserves the feasibility verdict and the
    extracted schedule.
    Phase timings and one :class:`~repro.observability.trace.ProbeTrace`
    flow to the ambient tracer when one is active
    (:mod:`repro.observability`).
    """
    # A single code path regardless of caching: ``cache=None`` becomes a
    # pass-through NullProbeCache that performs every derivation fresh.
    from repro.core.probe_cache import as_cache
    from repro.models import model_for

    model = model_for(instance)
    cache = as_cache(cache)
    timer = PhaseTimer()
    cache.begin_probe()
    with timer.phase("rounding"):
        rounded = cache.rounding(instance, target, eps)
    fills = model.fills(rounded)
    dp_results: list[DPResult] = []
    with timer.phase("dp"):
        for spec in fills:
            # Decision-capable solvers (the clamped kernels) need the
            # machine budget, which is not part of the DPSolver call
            # signature; bind it per fill.  The bound copy carries a
            # dp_cache_token so the probe cache never serves its
            # budget-dependent tables to another budget.  Fills whose
            # tables compose across machines clamp nothing
            # (machine_clamp=None) and run exact.
            solver = dp_solver
            bind = getattr(dp_solver, "bind_machines", None)
            if bind is not None:
                solver = bind(spec.machine_clamp)
            dp_results.append(cache.dp(rounded, solver, fill=spec))

    outcome = model.assemble(rounded, fills, tuple(dp_results), timer)
    num_configs = sum(int(r.configs.shape[0]) for r in dp_results)

    schedule: Optional[Schedule] = None
    if outcome.machine_jobs is not None:
        machine_jobs = outcome.machine_jobs
        # Pad to exactly m machines (empty machines are legal).
        schedule = Schedule.from_machine_lists(
            instance,
            machine_jobs + [[] for _ in range(instance.machines - len(machine_jobs))],
        )
    _emit_probe_trace(
        timer, rounded, num_configs, outcome.machines_needed, schedule is not None, cache
    )
    return ProbeResult(
        target=target,
        rounded=rounded,
        dp_result=dp_results[0] if dp_results else empty_dp_result(),
        machines_needed=outcome.machines_needed,
        schedule=schedule,
        dp_results=tuple(dp_results),
    )


@dataclass
class PtasResult:
    """Everything a PTAS run produced, for the harness and the tests.

    Attributes
    ----------
    schedule: the final schedule (makespan <= (1+eps) * optimum).
    eps: the accuracy the run was asked for.
    iterations: number of bisection iterations executed.
    probes: every probe performed, in execution order (the quarter
        split performs several per iteration).
    final_target: the ``T`` whose probe produced ``schedule``.
    """

    schedule: Schedule
    eps: float
    iterations: int
    probes: list[ProbeResult] = field(default_factory=list)
    final_target: int = 0

    @property
    def makespan(self) -> int:
        """Makespan of the returned schedule."""
        return self.schedule.makespan

    @property
    def dp_table_sizes(self) -> list[int]:
        """Size ``sigma`` of every DP-table filled during the search."""
        return [p.rounded.table_size for p in self.probes]

    def guarantee_bound(self) -> float:
        """The proven upper bound ``(1 + eps) * final_target``.

        ``final_target`` is itself at most the optimal makespan, so the
        schedule is within ``1 + eps`` of optimal.
        """
        return (1.0 + self.eps) * self.final_target


#: Interval segments one search round probes, by ``search`` name.  Plain
#: bisection (Algorithm 1) is the one-segment quarter split (Algorithm 3).
SEARCH_SEGMENTS = {"bisection": 1, "quarter": 4}


def search_segments(search: str) -> int:
    """The segment count of a search name (:data:`SEARCH_SEGMENTS`).

    Raises :class:`~repro.errors.InvalidInstanceError` for any other
    name.
    """
    try:
        return SEARCH_SEGMENTS[search]
    except (KeyError, TypeError):
        raise InvalidInstanceError(f"unknown search strategy {search!r}") from None


def ptas_schedule(
    instance: Instance,
    eps: float = 0.3,
    dp_solver: DPSolver = dp_vectorized,
    search: str = "bisection",
    cache: Optional["ProbeCache"] = None,
    trace: Optional[Union["obs.Tracer", TraceSink]] = None,
    executor: Optional["ProbeExecutor"] = None,
) -> PtasResult:
    """Schedule ``instance`` within ``(1 + eps)`` of the optimal makespan.

    ``search`` selects the target-search strategy: ``"bisection"``
    (Algorithm 1) or ``"quarter"`` (the paper's quarter split,
    Algorithm 3).  Both return identical final makespans (tested); the
    quarter split needs fewer iterations, which is what Table VII
    measures.

    ``cache`` is an optional
    :class:`~repro.core.probe_cache.ProbeCache` shared across the
    run's probes (and, if you pass the same object again, across
    runs); results are bit-identical with or without it.

    ``trace`` is an optional
    :class:`~repro.observability.Tracer` (its phases/counters are
    filled in place) or bare
    :class:`~repro.observability.TraceSink` (receives one
    :class:`~repro.observability.ProbeTrace` per probe).  See
    ``docs/PERFORMANCE.md``.

    ``executor`` is an optional
    :class:`~repro.core.executor.ProbeExecutor` that runs each search
    round's probes and accounts their simulated time (sequential vs
    concurrent-device); the default is a fresh
    :class:`~repro.core.executor.SequentialExecutor`.  Executors never
    change the result, only the time accounting.
    """
    # Imported here to avoid a circular import (the search module calls
    # probe_target from this module).
    from repro.core.quarter_split import quarter_split_search

    return quarter_split_search(
        instance,
        eps,
        dp_solver,
        segments=search_segments(search),
        cache=cache,
        trace=trace,
        executor=executor,
    )
