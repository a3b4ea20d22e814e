"""The batch scheduling service: many instances, one shared cache.

``P || Cmax`` rarely arrives one instance at a time in production — a
nightly cluster batch, a what-if sweep over accuracies, or a fleet of
tenant workloads all want *many* PTAS runs whose probes overlap
heavily.  :class:`BatchScheduler` is the engineering layer for that
workload (cf. Berndt et al., *"Load Balancing: The Long Road from
Theory to Practice"*):

* requests run across a **thread pool** (the DP fills are numpy-heavy,
  so threads overlap usefully despite the GIL, and a thread pool keeps
  one shared in-process cache — processes would not);
* one :class:`~repro.core.probe_cache.ProbeCache` is **shared across
  the whole batch**: probes from different requests that round to the
  same normalized geometry reuse each other's configuration sets and
  DP-tables (scale-invariance makes such collisions common — see the
  cache module docstring);
* one :class:`~repro.core.probe_cache.PlanCache` is likewise shared:
  plan-aware backends (``BackendSpec.plan_aware``) reuse probe *plans*
  — level schedules, work profiles, block partitions — across every
  request of the batch, which is sound even when DP sharing is off
  (plans are pure structure);
* each request records into its own
  :class:`~repro.observability.Tracer`; after the fan-out they are
  **merged in request order** into one aggregate tracer, so the
  report is deterministic even though execution interleaves;
* backends come from the **registry** (:mod:`repro.backends`): each
  request resolves a *fresh* solver instance, because the simulator
  engines are stateful accumulators that must not be shared across
  concurrent requests.

Determinism: a request's result depends only on its instance, ``eps``,
search, and backend — never on worker count or the cache (cache hits
are bit-identical to recomputation, property-tested).  The test suite
asserts batch results equal sequential :func:`~repro.core.ptas.ptas_schedule`
runs exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.instance import Instance
from repro.core.probe_cache import CacheStats, PlanCache, ProbeCache
from repro.core.ptas import PtasResult
from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError
from repro.observability import Tracer
from repro.resilience import FaultInjector, RetryPolicy
from repro.service.pipeline import ProbePipeline, build_resilience


@dataclass(frozen=True)
class BatchRequest:
    """One scheduling request of a batch.

    ``name`` identifies the request in the report (defaults to its
    position); ``backend`` overrides the scheduler-level backend for
    this request only.
    """

    instance: Instance
    eps: float = 0.3
    search: str = "quarter"
    name: str = ""
    backend: Optional[str] = None


@dataclass(frozen=True)
class BatchRequestResult:
    """Outcome of one request: the PTAS result (or a degraded answer).

    N requests always yield N of these.  When every backend failed and
    the scheduler degrades (the default), ``result`` is ``None`` and
    the ``degraded_*`` fields carry a bounded baseline answer instead —
    LPT or MULTIFIT, whichever is better for the instance — plus the
    failure that forced the step-down (``error``, ``fault_chain``).
    """

    name: str
    request: BatchRequest
    result: Optional[PtasResult]
    #: simulated hardware seconds charged by the request's executor
    #: (0.0 for pure, non-simulated backends).
    simulated_s: float
    #: real wall seconds the request took inside the pool.
    wall_s: float
    #: True when the PTAS failed and a baseline answer was substituted.
    degraded: bool = False
    #: ``"ExcType: message"`` of the failure that triggered degradation.
    error: Optional[str] = None
    #: per-backend failure log (a fallback chain's step-downs plus the
    #: final error), most-preferred member first.
    fault_chain: tuple = ()
    #: the baseline schedule served instead of the PTAS one.
    degraded_schedule: Optional[Schedule] = None
    #: which baseline produced it (``"lpt"``/``"multifit"`` for
    #: identical machines; model-specific heuristics otherwise, e.g.
    #: ``"speed-list"`` or ``"capped-lpt"``).
    degraded_by: Optional[str] = None
    #: that baseline's proven approximation ratio vs. OPT.
    degraded_bound: Optional[float] = None

    @property
    def makespan(self) -> int:
        """Makespan served to the caller (PTAS or degraded baseline)."""
        if self.result is not None:
            return self.result.makespan
        assert self.degraded_schedule is not None
        return self.degraded_schedule.makespan

    @property
    def schedule(self) -> Schedule:
        """Schedule served to the caller (PTAS or degraded baseline)."""
        if self.result is not None:
            return self.result.schedule
        assert self.degraded_schedule is not None
        return self.degraded_schedule


@dataclass
class BatchReport:
    """Everything one batch run produced.

    ``results`` is in request order regardless of completion order.
    ``tracer`` is the merged per-request tracer (phases, counters, one
    probe event per DP probe of the whole batch); ``cache_stats`` is a
    snapshot of the shared cache's tallies after the batch.
    """

    backend: str
    workers: int
    results: List[BatchRequestResult] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    cache_stats: Optional[CacheStats] = None
    #: tallies of the batch's shared plan cache (``None`` when the
    #: batch's backend is not plan-aware).
    plan_cache_stats: Optional[CacheStats] = None
    wall_s: float = 0.0

    @property
    def total_probes(self) -> int:
        """DP probes across every request (degraded requests ran none)."""
        return sum(
            len(r.result.probes) for r in self.results if r.result is not None
        )

    @property
    def total_iterations(self) -> int:
        """Search iterations across every request."""
        return sum(
            r.result.iterations for r in self.results if r.result is not None
        )

    @property
    def degraded_count(self) -> int:
        """Requests served by a baseline instead of the PTAS."""
        return sum(1 for r in self.results if r.degraded)

    @property
    def total_simulated_s(self) -> float:
        """Simulated hardware seconds across every request."""
        return float(sum(r.simulated_s for r in self.results))

    def makespans(self) -> Dict[str, int]:
        """``{request name: makespan}`` in request order."""
        return {r.name: r.makespan for r in self.results}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (no schedules — those live on results)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "requests": [
                {
                    "name": r.name,
                    "makespan": r.makespan,
                    "final_target": (
                        r.result.final_target if r.result is not None else None
                    ),
                    "iterations": (
                        r.result.iterations if r.result is not None else 0
                    ),
                    "probes": len(r.result.probes) if r.result is not None else 0,
                    "eps": r.request.eps,
                    "search": r.request.search,
                    "simulated_s": r.simulated_s,
                    "wall_s": r.wall_s,
                    **(
                        {
                            "degraded": True,
                            "degraded_by": r.degraded_by,
                            "degraded_bound": r.degraded_bound,
                            "error": r.error,
                            "fault_chain": list(r.fault_chain),
                        }
                        if r.degraded
                        else {}
                    ),
                }
                for r in self.results
            ],
            "total_probes": self.total_probes,
            "total_iterations": self.total_iterations,
            "degraded_requests": self.degraded_count,
            "counters": dict(self.tracer.counters),
            # The two headline perf-opt tallies, surfaced by name so
            # dashboards need not know the counter namespace: configs
            # dropped by dominance pruning and DP cells answered by a
            # warm-started fill without recomputation.
            "perf": {
                "sparsify_dropped": int(
                    self.tracer.counters.get("sparsify.dropped", 0)
                ),
                "warmstart_cells_reused": int(
                    self.tracer.counters.get("warmstart.cells_reused", 0)
                ),
            },
            "cache": self.cache_stats.as_dict() if self.cache_stats else {},
            "plan_cache": (
                self.plan_cache_stats.as_dict() if self.plan_cache_stats else {}
            ),
            "wall_s": self.wall_s,
        }


class BatchScheduler:
    """Schedule many instances concurrently against one backend.

    Parameters
    ----------
    backend:
        Registry name resolved *fresh per request* (engines are
        stateful).  Individual requests may override it.  Defaults to
        ``"auto"`` — the cost-model kernel selector of
        :mod:`repro.core.kernels`, which routes each probe to the
        cheapest kernel for its shape and budget.  Decision-only
        backends are rejected here: the service's whole point is
        producing schedules.
    workers:
        Thread-pool size; results are independent of it (tested).
    cache:
        The shared :class:`~repro.core.probe_cache.ProbeCache`; pass
        ``None`` to disable cross-request reuse entirely.
    search / eps:
        Defaults for requests that do not specify their own.
    faults / retry / deadline_s / memory_budget_bytes:
        The resilience knobs (see ``docs/RELIABILITY.md``): a
        deterministic :class:`~repro.resilience.FaultInjector` for
        chaos testing, a :class:`~repro.resilience.RetryPolicy` for
        transient failures (defaulted to ``RetryPolicy()`` whenever
        ``faults`` is armed), a per-probe deadline in wall seconds,
        and a per-probe admission budget in bytes.  All default off.
    degrade:
        When ``True`` (default) a request whose backends all fail is
        served a bounded LPT/MULTIFIT baseline answer tagged
        ``degraded=True`` instead of aborting the batch — N requests
        always produce N results.  ``False`` re-raises the failure.
    sparsify:
        Configuration-sparsification override (see
        :mod:`repro.core.sparsify`): ``None`` (default) keeps each
        backend's own default, ``True``/``False`` forces the knob on
        every sparsify-aware solver the batch resolves.  ``False``
        also disables the probe cache's warm starts so the batch
        replays dense fills exactly (the CLI's ``--no-sparsify``).

    Example::

        from repro.service import BatchScheduler
        scheduler = BatchScheduler(workers=4)      # backend="auto"
        report = scheduler.run([inst_a, inst_b, inst_c])
        report.makespans()          # deterministic, order-preserving
        report.cache_stats          # shared-cache tallies for the batch
    """

    def __init__(
        self,
        backend: str = "auto",
        workers: int = 4,
        cache: Optional[ProbeCache] = ...,  # type: ignore[assignment]
        search: str = "quarter",
        eps: float = 0.3,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
        degrade: bool = True,
        sparsify: Optional[bool] = None,
    ) -> None:
        if workers < 1:
            raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = int(workers)
        # The request-execution machinery is shared with the always-on
        # daemon (repro.service.daemon): both front-ends drive the same
        # ProbePipeline, which owns the resilience policy, the shared
        # plan cache (plans are pure structure, so sharing is always
        # sound — even when the probe cache is off or share_dp=False
        # keeps simulated timing honest), and degradation.
        resilience, faults = build_resilience(
            faults=faults,
            retry=retry,
            deadline_s=deadline_s,
            memory_budget_bytes=memory_budget_bytes,
        )
        self.pipeline = ProbePipeline(
            backend=backend,
            cache=ProbeCache() if cache is ... else cache,
            resilience=resilience,
            faults=faults,
            degrade=bool(degrade),
            sparsify=sparsify,
        )
        self.search = search
        self.eps = eps

    def close(self) -> None:
        """Release the scheduler (a no-op, kept for explicit callers).

        Every fill runs in-process on the batch's threads, so the
        scheduler holds no pool or shared segment between batches; the
        method and the context manager remain so code that closes its
        scheduler keeps working.
        """

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Historical accessors: the caches, knobs, and policy now live on
    # the shared pipeline; these properties keep the original surface.

    @property
    def cache(self) -> Optional[ProbeCache]:
        """The shared probe cache (``None`` when reuse is disabled)."""
        return self.pipeline.cache

    @property
    def plan_cache(self) -> PlanCache:
        """The shared plan cache every plan-aware request reuses."""
        return self.pipeline.plan_cache

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The armed fault injector, if any."""
        return self.pipeline.faults

    @property
    def resilience(self):
        """The pipeline's :class:`~repro.resilience.ResiliencePolicy`."""
        return self.pipeline.resilience

    @property
    def degrade(self) -> bool:
        """Whether failed requests are served bounded baseline answers."""
        return self.pipeline.degrade

    # -- request execution --------------------------------------------------

    def _as_request(
        self, item: Union[BatchRequest, Instance], index: int
    ) -> BatchRequest:
        """Normalize an item: bare instances get the scheduler defaults."""
        if isinstance(item, BatchRequest):
            if item.name:
                return item
            return BatchRequest(
                instance=item.instance,
                eps=item.eps,
                search=item.search,
                name=f"request-{index}",
                backend=item.backend,
            )
        return BatchRequest(
            instance=item,
            eps=self.eps,
            search=self.search,
            name=f"request-{index}",
        )

    def _run_one(self, request: BatchRequest) -> tuple[BatchRequestResult, Tracer]:
        """Execute one request on the shared :class:`ProbePipeline`."""
        return self.pipeline.run(request)

    def run(
        self, items: Sequence[Union[BatchRequest, Instance]]
    ) -> BatchReport:
        """Run the whole batch; returns a deterministic :class:`BatchReport`.

        Requests execute across the pool in submission order; results
        and the merged tracer are assembled in request order, so two
        runs of the same batch produce identical reports (up to wall
        timings) at any worker count.  A zero-request batch is a valid
        batch: it returns an empty report (no thread pool is spun up,
        and ``as_dict()`` is fully formed) rather than asking callers
        to special-case it.
        """
        requests = [self._as_request(item, i) for i, item in enumerate(items)]
        start = time.perf_counter()
        if not requests:
            outcomes: list[tuple[BatchRequestResult, Tracer]] = []
        elif self.workers == 1:
            outcomes = [self._run_one(r) for r in requests]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(pool.map(self._run_one, requests))
        report = BatchReport(
            backend=self.backend,
            workers=self.workers,
            cache_stats=self.cache.stats if self.cache is not None else None,
            plan_cache_stats=(
                self.plan_cache.stats if len(self.plan_cache) else None
            ),
        )
        for item_result, tracer in outcomes:
            report.results.append(item_result)
            report.tracer.merge(tracer)
        report.wall_s = time.perf_counter() - start
        return report
