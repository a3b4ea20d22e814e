"""The probe pipeline: one scheduling request, end to end.

All three front doors — CLI ``schedule``, the one-shot
:class:`~repro.service.batch.BatchScheduler` and the always-on
:class:`~repro.service.daemon.SchedulingService` — execute requests
exactly the same way: resolve a fresh solver from the registry, wire
it to the shared probe/plan caches and the resilience policy, run
:func:`schedule_request` under a per-request tracer, and (for the two
services) degrade to a bounded LPT/MULTIFIT baseline when every
backend fails.  :class:`ProbePipeline` is that shared engine-room, so
the front doors cannot drift: a request coalesced by the daemon, the
same request in a batch and the same instance on the command line
produce bit-identical results because they literally run the same
code.

The pipeline is synchronous and thread-safe — the daemon calls it
from ``run_in_executor`` workers, and the batch scheduler from forked
worker processes that each inherit a copy of it.  All cross-request
state (probe cache, plan cache, fault injector bookkeeping) is owned
by the pipeline and already safe for concurrent callers.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.backends import get_spec, resolve
from repro.core.baselines import best_baseline
from repro.core.bounds import makespan_bounds
from repro.core.executor import ProbeExecutor, SequentialExecutor, default_executor
from repro.core.improve import improve_schedule
from repro.core.instance import Instance
from repro.core.probe_cache import PlanCache, ProbeCache
from repro.core.ptas import DPSolver, PtasResult, ptas_schedule, search_segments
from repro.core.rounding import accuracy_k
from repro.errors import ReproError
from repro.observability import Tracer, TraceSink, as_tracer
from repro.observability import context as obs
from repro.resilience import (
    AdmissionController,
    FaultInjector,
    ResiliencePolicy,
    RetryPolicy,
)

if TYPE_CHECKING:
    from repro.service.batch import BatchRequest, BatchRequestResult


def schedule_request(
    instance: Instance,
    eps: float,
    dp_solver: DPSolver,
    search: str,
    cache: Optional[ProbeCache] = None,
    trace: Optional[Union[Tracer, TraceSink]] = None,
    executor: Optional[ProbeExecutor] = None,
) -> PtasResult:
    """Answer one scheduling request: certify at ``LB`` first, then polish.

    The request paths' version of
    :func:`~repro.core.ptas.ptas_schedule` (which stays the paper's
    Algorithms 1 and 3 verbatim).  One probe at the lower bound ``LB``
    runs first, through the caller's executor, cache and tracer:

    * if it accepts, it is the whole search: ``final_target = LB`` and
      the schedule is within ``(1 + eps) * LB <= (1 + eps) * OPT``;
    * if it rejects, the configured ``search`` runs unchanged over
      ``[LB, UB]`` and the rejected probe is put in front of its
      probes.

    Either way the served schedule is the better of the PTAS schedule
    and :func:`~repro.core.baselines.best_baseline` (ties keep the
    PTAS one), polished by
    :func:`~repro.core.improve.improve_schedule` on identical machines.
    It is never worse than the PTAS schedule, so it stays within
    ``guarantee_bound()``.
    """
    search_segments(search)  # fail fast on unknown names, before any probe
    tracer = as_tracer(trace)
    executor = executor if executor is not None else SequentialExecutor()
    lower = makespan_bounds(instance).lower
    with tracer.activate() if tracer is not None else nullcontext():
        obs.count("search.iterations")
        probe = executor.run_round(instance, [lower], eps, dp_solver, cache=cache)[0]
    if probe.accepted:
        result = PtasResult(
            schedule=probe.schedule,
            eps=eps,
            iterations=1,
            probes=[probe],
            final_target=lower,
        )
    else:
        # Through this module's own name, so a patched search (the
        # benchmark's traced run) sees the call.
        result = ptas_schedule(
            instance,
            eps=eps,
            dp_solver=dp_solver,
            search=search,
            cache=cache,
            trace=tracer,
            executor=executor,
        )
        result.iterations += 1
        result.probes.insert(0, probe)
    baseline = best_baseline(instance)[0]
    if baseline.makespan < result.schedule.makespan:
        result.schedule = baseline
    if instance.model == "identical":
        result.schedule = improve_schedule(result.schedule).schedule
    return result


def check_request_options(eps: float, search: str) -> None:
    """Reject an ``eps`` or ``search`` name no request can run.

    Raises :class:`~repro.errors.InvalidInstanceError`, so the front
    ends refuse such a request (or a front end built with it) up front
    instead of serving a degraded answer for a failure no backend can
    avoid.
    """
    accuracy_k(eps)
    search_segments(search)


def build_resilience(
    faults: Optional[FaultInjector] = None,
    retry: Optional[RetryPolicy] = None,
    deadline_s: Optional[float] = None,
    memory_budget_bytes: Optional[int] = None,
) -> Tuple[Optional[ResiliencePolicy], Optional[FaultInjector]]:
    """The resilience policy both service front-ends construct.

    An armed fault injector with no explicit retry policy still gets
    bounded retries — that is the configuration the chaos tests run,
    and retrying transient faults is what makes them invisible in the
    results (``docs/RELIABILITY.md``).  Returns ``(policy, faults)``;
    the policy is ``None`` when every knob is off.
    """
    if faults is not None and retry is None:
        retry = RetryPolicy()
    admission = (
        AdmissionController(memory_budget_bytes)
        if memory_budget_bytes is not None
        else None
    )
    if (
        faults is None
        and retry is None
        and deadline_s is None
        and admission is None
    ):
        return None, faults
    return (
        ResiliencePolicy(
            faults=faults, retry=retry, deadline_s=deadline_s, admission=admission
        ),
        faults,
    )


@dataclass
class ProbePipeline:
    """Execute scheduling requests against shared caches and one backend.

    Parameters mirror the service front-ends (see
    :class:`~repro.service.batch.BatchScheduler` for the full
    semantics): ``backend`` is the default registry name (requests may
    override it), ``cache``/``plan_cache`` are the cross-request reuse
    layers, ``resilience``/``faults`` the reliability knobs, and
    ``degrade`` selects bounded-baseline answers over raised failures
    (CLI ``schedule`` turns it off and maps the failure to an exit
    code).
    """

    backend: str = "auto"
    cache: Optional[ProbeCache] = None
    plan_cache: PlanCache = field(default_factory=PlanCache)
    resilience: Optional[ResiliencePolicy] = None
    faults: Optional[FaultInjector] = None
    degrade: bool = True

    def __post_init__(self) -> None:
        get_spec(self.backend)  # fail fast on unknown names, before any work

    def run(self, request: "BatchRequest") -> Tuple["BatchRequestResult", Tracer]:
        """Execute one request with a fresh solver, executor, and tracer.

        Plan-aware backends receive the pipeline's shared
        :class:`~repro.core.probe_cache.PlanCache`, so requests whose
        probes round to the same structure reuse one probe plan.
        Returns the result (possibly degraded) and the request's own
        tracer; the front-end merges tracers in its preferred order.
        """
        from repro.service.batch import BatchRequestResult

        name = request.backend or self.backend
        spec = get_spec(name)
        kwargs: Dict[str, object] = {}
        if spec.plan_aware:
            kwargs["plan_cache"] = self.plan_cache
        if self.faults is not None and (
            name == "fallback" or name.startswith("fallback:")
        ):
            # Chains check each member at site "dp.<member>", letting
            # chaos tests poison one named member of the chain.
            kwargs["faults"] = self.faults
        solver = resolve(name, **kwargs)
        executor = default_executor(solver, resilience=self.resilience)
        tracer = Tracer()
        start = time.perf_counter()
        try:
            result = schedule_request(
                request.instance,
                eps=request.eps,
                dp_solver=solver,
                search=request.search,
                cache=self.cache,
                trace=tracer,
                executor=executor,
            )
        except (ReproError, MemoryError) as exc:
            if not self.degrade:
                raise
            wall = time.perf_counter() - start
            return (
                self.degraded_result(request, exc, executor.elapsed_s, wall, tracer),
                tracer,
            )
        wall = time.perf_counter() - start
        return (
            BatchRequestResult(
                name=request.name,
                request=request,
                result=result,
                simulated_s=executor.elapsed_s,
                wall_s=wall,
            ),
            tracer,
        )

    def degraded_result(
        self,
        request: "BatchRequest",
        exc: BaseException,
        simulated_s: float,
        wall_s: float,
        tracer: Tracer,
    ) -> "BatchRequestResult":
        """A bounded baseline answer for a request whose backends all failed.

        For identical machines
        :func:`~repro.core.baselines.best_baseline` guarantees
        ``4/3 - 1/(3m)`` (LPT) or ``13/11`` (MULTIFIT) times the
        optimal makespan.  Those ratios are identical-machines theorems
        — for the other models ``best_baseline`` dispatches to the
        model's own heuristic, whose reported bound is the a-posteriori
        ratio against the model's makespan lower bound (always true,
        usually looser).  Every model's baseline is cheap enough to
        never fail on a valid instance, so N requests still produce N
        results, tagged ``degraded=True`` with the error (and any
        fallback chain log) that forced it.
        """
        from repro.service.batch import BatchRequestResult

        schedule, by, bound = best_baseline(request.instance)
        chain = tuple(getattr(exc, "fault_chain", ()))
        chain = chain + (f"{type(exc).__name__}: {exc}",)
        tracer.count("resilience.degraded")
        return BatchRequestResult(
            name=request.name,
            request=request,
            result=None,
            simulated_s=simulated_s,
            wall_s=wall_s,
            degraded=True,
            error=f"{type(exc).__name__}: {exc}",
            fault_chain=chain,
            degraded_schedule=schedule,
            degraded_by=by,
            degraded_bound=bound,
        )
