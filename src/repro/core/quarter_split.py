"""The paper's quarter-split target search (Algorithm 3).

Instead of probing one midpoint per iteration, the interval ``[LB, UB]``
is divided into four contiguous segments; each segment contributes its
own midpoint target ``T_p`` and all four are probed *concurrently* (on
the GPU via four Hyper-Q process queues — here the
:class:`~repro.core.executor.ConcurrentDeviceExecutor` models that
concurrency for the simulated engines, while the pure host kernels
probe the four targets back to back; the search logic below is
hardware-agnostic).

With four probe outcomes the new interval falls into one of five
sections (Algorithm 3, lines 13–25):

* all accepted                    → ``UB = T_0``
* all rejected                    → ``LB = T_3 + 1``
* rejected at ``T_i``, accepted at ``T_{i+1}`` → ``LB = T_i + 1``, ``UB = T_{i+1}``

so the interval shrinks by ~4–8x per iteration instead of 2x, which is
what cuts the iteration counts in Table VII.  Both searches converge to
the same smallest accepted target (tested); the returned schedules can
differ slightly because each search keeps the best schedule among *its
own* accepted probes, and the quarter split probes more targets.

The update rule is implemented in the slightly more general
"smallest accepted / largest rejected" form, which coincides with the
paper's rule whenever acceptance is monotone in ``T`` (the normal case)
and remains sound even if a probe behaves non-monotonically.

Each iteration's segment targets are submitted as **one round** to the
:class:`~repro.core.executor.ProbeExecutor`, so a device executor
charges the round as concurrent work while a sequential executor sums
it — the same search loop serves Table VII's GPU timing and the plain
host run.

With ``segments=1`` the round is the single midpoint ``(LB + UB) // 2``
and the update rule is bisection's, so this loop is also plain
bisection (Algorithm 1, :func:`repro.core.bisection.bisection_search`):
there is one search loop in the library, with one epilogue.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Union

from repro.core.bounds import MakespanBounds, makespan_bounds
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance
from repro.core.ptas import SEARCH_SEGMENTS, DPSolver, ProbeResult, PtasResult
from repro.errors import ReproError
from repro.observability import Tracer, TraceSink, as_tracer
from repro.observability import context as obs

if TYPE_CHECKING:
    from repro.core.executor import ProbeExecutor
    from repro.core.probe_cache import ProbeCache

#: Number of concurrent interval segments.  The paper fixes this at 4
#: ("quarter split") to match the 4 Hyper-Q process queues it uses.
DEFAULT_SEGMENTS = SEARCH_SEGMENTS["quarter"]


def segment_targets(lb: int, ub: int, segments: int = DEFAULT_SEGMENTS) -> list[int]:
    """The probe targets ``T_p`` for the current interval.

    Each segment ``[LB_p, UB_p]`` (tiling ``[lb, ub]``) contributes its
    midpoint.  Degenerate segments collapse to their single point;
    duplicate targets (possible when the interval is narrower than the
    segment count) are dropped while preserving ascending order, so no
    DP probe is wasted on a repeated target.

    The ascending order also matters for table-delta warm starts
    (:class:`~repro.core.probe_cache.ProbeCache`): a sequential
    executor runs the round smallest target first, so each later probe
    of the round finds a cached table at a strictly smaller budget to
    seed from when its rounding key matches.
    """
    pieces = MakespanBounds(lb, ub).quarter_points(segments)
    targets: list[int] = []
    for seg_lb, seg_ub in pieces:
        t = (seg_lb + seg_ub) // 2
        if not targets or t > targets[-1]:
            targets.append(t)
    return targets


def quarter_split_search(
    instance: Instance,
    eps: float = 0.3,
    dp_solver: DPSolver = dp_vectorized,
    segments: int = DEFAULT_SEGMENTS,
    cache: Optional["ProbeCache"] = None,
    trace: Optional[Union[Tracer, TraceSink]] = None,
    executor: Optional["ProbeExecutor"] = None,
) -> PtasResult:
    """Run the PTAS with the quarter-split search; see module docstring.

    ``cache`` and ``trace`` are the cross-probe cache and observability
    hooks of :func:`repro.core.ptas.ptas_schedule`; ``executor`` runs
    each iteration's segment probes as one round (default
    :class:`~repro.core.executor.SequentialExecutor`; pass a
    :class:`~repro.core.executor.ConcurrentDeviceExecutor` to charge
    them as concurrent device work).  None of the three changes the
    result.  One cache serves all ``segments`` concurrent probes of an
    iteration — nearby targets frequently normalize to the same rounded
    geometry, so segment probes feed each other's lookups.
    """
    tracer = as_tracer(trace)
    with tracer.activate() if tracer is not None else nullcontext():
        return _quarter_split_search(
            instance, eps, dp_solver, segments, cache, executor
        )


def _quarter_split_search(
    instance: Instance,
    eps: float,
    dp_solver: DPSolver,
    segments: int,
    cache: Optional["ProbeCache"],
    executor: Optional["ProbeExecutor"],
) -> PtasResult:
    from repro.core.executor import SequentialExecutor

    executor = executor if executor is not None else SequentialExecutor()
    bounds = makespan_bounds(instance)
    lb, ub = bounds.lower, bounds.upper

    probes: list[ProbeResult] = []
    best_accept: Optional[ProbeResult] = None
    iterations = 0

    while lb < ub:
        iterations += 1
        obs.count("search.iterations")
        targets = segment_targets(lb, ub, segments)
        round_probes = executor.run_round(instance, targets, eps, dp_solver, cache=cache)
        probes.extend(round_probes)

        accepted = [p for p in round_probes if p.accepted]
        rejected = [p for p in round_probes if not p.accepted]

        if accepted:
            lowest = min(accepted, key=lambda p: p.target)
            ub = lowest.target
            if best_accept is None or lowest.target <= best_accept.target:
                best_accept = lowest
        rejected_below = [p for p in rejected if p.target < ub]
        if rejected_below:
            lb = max(p.target for p in rejected_below) + 1
        elif not accepted:
            # All probes rejected: the answer lies above the largest target.
            lb = max(p.target for p in round_probes) + 1
        if not accepted and not rejected:
            raise ReproError("quarter split produced no probes")  # unreachable

    if best_accept is None or best_accept.target != ub:
        # Either the interval started degenerate, or the last accepted
        # probe was at a larger T than the final UB (possible when LB
        # catches up from below).  One final probe at UB settles it; the
        # initial UB (Graham bound) is always feasible, so this accepts.
        # With a cache this re-probe is (almost) free: its target was
        # usually probed inside the loop already.
        probe = executor.run_round(instance, [ub], eps, dp_solver, cache=cache)[0]
        probes.append(probe)
        if not probe.accepted:
            raise ReproError(f"search invariant violated: final target {ub} rejected")
        best_accept = probe

    # The (1+eps) guarantee flows from the lowest accepted target, but
    # an accepted probe at a higher T can happen to build a *better*
    # schedule (its greedy short-job packing had more slack).  Return
    # the best schedule seen; it is at most the guaranteed bound.
    best_schedule = min(
        (p.schedule for p in probes if p.schedule is not None),
        key=lambda s: s.makespan,
    )
    return PtasResult(
        schedule=best_schedule,
        eps=eps,
        iterations=iterations,
        probes=probes,
        final_target=best_accept.target,
    )
