"""The batch scheduling service: many instances, one process per request.

``P || Cmax`` rarely arrives one instance at a time in production — a
nightly cluster batch, a what-if sweep over accuracies, or a fleet of
tenant workloads all want *many* PTAS runs.  :class:`BatchScheduler`
is the engineering layer for that workload (cf. Berndt et al.,
*"Load Balancing: The Long Road from Theory to Practice"*):

* requests run in **forked worker processes**, one batch-long pool of
  ``workers`` processes per :meth:`BatchScheduler.run`.  The DP fills
  are interpreter-bound, so threads serialized on the GIL; a whole
  request (tens of milliseconds) is a grain worth shipping to a
  process, where a fill wave (a few milliseconds) was not.
  ``workers=1`` and one-request batches run in-process;
* every worker starts from the scheduler's
  :class:`~repro.core.probe_cache.ProbeCache` and
  :class:`~repro.core.probe_cache.PlanCache` as they stand when the
  batch begins (inherited at fork) and keeps its own entries for the
  rest of the batch.  Those entries are dropped when the batch ends;
  the hit/miss tallies come home and are added to the scheduler's
  caches, so ``BatchReport`` counts every lookup of the batch.  The
  hits that matter are within a request (bisection probes warm-start
  each other), so little is lost — see ``docs/PERFORMANCE.md``;
* each request records into its own
  :class:`~repro.observability.Tracer`, which the worker sends back;
  the tracers are **merged in request order** into one aggregate
  tracer, so the report is deterministic even though execution
  interleaves.  Faults an armed injector fires in a worker are folded
  back into the scheduler's :class:`~repro.resilience.FaultInjector`;
* a worker that dies fails the requests still in its pool; each is
  run again once in a fresh process, and a request that kills that one
  too is served a degraded baseline answer (or raises with
  ``degrade=False``), so N requests still give N results;
* backends come from the **registry** (:mod:`repro.backends`): each
  request resolves a *fresh* solver instance, because the simulator
  engines are stateful accumulators.

Determinism: a request's result depends only on its instance, ``eps``,
search, and backend — never on worker count or the cache (cache hits
are bit-identical to recomputation, property-tested).  The test suite
asserts batch results equal sequential
:func:`~repro.service.pipeline.schedule_request` runs exactly.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.instance import Instance
from repro.core.probe_cache import CacheStats, PlanCache, ProbeCache
from repro.core.ptas import PtasResult
from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError, WorkerCrashError
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
    probe event per DP probe of the whole batch); ``cache_stats`` is the
    scheduler's probe-cache tallies after the batch, every worker's
    lookups included.
    """

    backend: str
    workers: int
    results: List[BatchRequestResult] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    cache_stats: Optional[CacheStats] = None
    #: tallies of the scheduler's plan cache (``None`` until a
    #: plan-aware backend has looked a plan up).
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
        cheapest kernel for its shape and budget.
    workers:
        Worker processes per batch (at most one per request); results
        are independent of it (tested).  ``1`` runs every request in
        this process.
    cache:
        The :class:`~repro.core.probe_cache.ProbeCache` every request
        starts from; pass ``None`` to disable reuse entirely.
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

    Example::

        from repro.service import BatchScheduler
        scheduler = BatchScheduler(workers=4)      # backend="auto"
        report = scheduler.run([inst_a, inst_b, inst_c])
        report.makespans()          # deterministic, order-preserving
        report.cache_stats          # cache tallies, every worker's lookups
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
    ) -> None:
        if workers < 1:
            raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = int(workers)
        # The request-execution machinery is shared with the always-on
        # daemon (repro.service.daemon): both front-ends drive the same
        # ProbePipeline, which owns the resilience policy, the shared
        # plan cache (plans are pure structure, so sharing is always
        # sound — even when the probe cache is off to keep simulated
        # timing honest), and degradation.
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
        )
        self.search = search
        self.eps = eps

    def close(self) -> None:
        """Release the scheduler (a no-op, kept for explicit callers).

        Each batch's worker pool lives only inside :meth:`run`, so the
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
        """The probe cache every request starts from (``None``: no reuse)."""
        return self.pipeline.cache

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache every plan-aware request starts from."""
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

    def run(
        self, items: Sequence[Union[BatchRequest, Instance]]
    ) -> BatchReport:
        """Run the whole batch; returns a deterministic :class:`BatchReport`.

        With ``workers >= 2`` and two or more requests, the requests
        run on a pool of forked processes that lives for this call;
        each free worker takes the next request in submission order.
        Results and the merged tracer are assembled in request order,
        so two runs of the same batch produce identical reports (up to
        wall timings) at any worker count.  A zero-request batch is a
        valid batch: it returns an empty report (``as_dict()`` is fully
        formed) rather than asking callers to special-case it.
        """
        requests = [self._as_request(item, i) for i, item in enumerate(items)]
        start = time.perf_counter()
        if self.workers == 1 or len(requests) < 2:
            outcomes = [self.pipeline.run(r) for r in requests]
        else:
            outcomes = self._run_forked(requests)
        plans = self.plan_cache.stats
        report = BatchReport(
            backend=self.backend,
            workers=self.workers,
            cache_stats=self.cache.stats if self.cache is not None else None,
            plan_cache_stats=(
                plans if plans.hits.get("plan") or plans.misses.get("plan") else None
            ),
        )
        for item_result, tracer in outcomes:
            report.results.append(item_result)
            report.tracer.merge(tracer)
        report.wall_s = time.perf_counter() - start
        return report

    def _run_forked(
        self, requests: List[BatchRequest]
    ) -> List[Tuple[BatchRequestResult, Tracer]]:
        """Run the batch in forked workers, re-running what a dead one lost.

        A worker's death fails every request still in its pool.  Each
        of those runs again once, in a fresh one-process pool: the
        first request such a pool loses is the one that killed it, and
        it is answered by :meth:`_lost`; the rest go on in the next
        fresh pool.
        """
        outcomes: List[Optional[Tuple[BatchRequestResult, Tracer]]] = [None] * len(
            requests
        )
        left = self._fork(requests, range(len(requests)), outcomes, self.workers)
        while left:
            start = time.perf_counter()
            left = self._fork(requests, left, outcomes, 1)
            if left:
                culprit, left = left[0], left[1:]
                outcomes[culprit] = self._lost(
                    requests[culprit], time.perf_counter() - start
                )
        return outcomes  # type: ignore[return-value]

    def _fork(
        self,
        requests: List[BatchRequest],
        indexes: Sequence[int],
        outcomes: List[Optional[Tuple[BatchRequestResult, Tracer]]],
        workers: int,
    ) -> List[int]:
        """Run ``requests[i]`` for each index on one pool of forked processes.

        Fills ``outcomes`` in place and returns the indexes the pool
        lost to a dead worker.
        """
        # Imported here: multiprocessing costs ~20 ms to import, and
        # the daemon and CLI, which share this package, never fork.
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        indexes = list(indexes)
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(indexes)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(self.pipeline,),
        )
        futures = []
        try:
            # The first submit forks every worker.  Frozen objects are
            # left out of the children's collections, so they do not
            # copy the parent's whole heap just to scan it.
            gc.freeze()
            try:
                for i in indexes:
                    futures.append(pool.submit(_run_in_worker, requests[i]))
            except BrokenProcessPool:
                pass  # a worker died already; the rest count as lost
            finally:
                gc.unfreeze()
            lost = indexes[len(futures):]
            for i, future in zip(indexes, futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    lost.append(i)
                    continue
                outcomes[i] = self._fold(*outcome)
        finally:
            pool.shutdown(cancel_futures=True)
        return sorted(lost)

    def _fold(
        self,
        result: BatchRequestResult,
        tracer: Tracer,
        stats: Tuple[Optional[CacheStats], CacheStats],
        injections: Optional[tuple],
    ) -> Tuple[BatchRequestResult, Tracer]:
        """Add a worker's cache tallies and injected faults to this scheduler's."""
        probe_stats, plan_stats = stats
        if probe_stats is not None:
            self.cache.stats.merge(probe_stats)
        self.plan_cache.stats.merge(plan_stats)
        if injections is not None:
            self.faults.fold(injections)
        return result, tracer

    def _lost(
        self, request: BatchRequest, wall_s: float
    ) -> Tuple[BatchRequestResult, Tracer]:
        """The answer for a request whose worker died twice."""
        exc = WorkerCrashError(
            f"batch worker process died running request {request.name!r}"
        )
        if not self.degrade:
            raise exc
        tracer = Tracer()
        return self.pipeline.degraded_result(request, exc, 0.0, wall_s, tracer), tracer


#: the pipeline a forked batch worker runs its requests on (set only
#: in worker processes, by the pool initializer).
_WORKER_PIPELINE: Optional[ProbePipeline] = None


def _adopt(pipeline: ProbePipeline) -> None:
    """Pool initializer: the pipeline arrives with the fork, unpickled.

    Fork, not spawn, because the pipeline cannot be pickled: it holds
    locks, caches and whatever callables a caller installed (a fault
    injector's ``match``, a wrapped ``run``).  The price is the usual
    one of fork: no other thread may hold one of its locks while
    :meth:`BatchScheduler.run` starts the pool.
    """
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _run_in_worker(request: BatchRequest) -> tuple:
    """Run one request in a worker; return what the parent folds back.

    That is the result, the request's tracer, the tallies the request
    added to the probe and plan caches, and the faults it injected.
    """
    pipeline = _WORKER_PIPELINE
    assert pipeline is not None
    # Fresh tallies per request: what they hold afterwards is its share.
    if pipeline.cache is not None:
        pipeline.cache.stats = CacheStats()
    pipeline.plan_cache.stats = CacheStats()
    mark = pipeline.faults.mark() if pipeline.faults is not None else None
    result, tracer = pipeline.run(request)
    return (
        result,
        tracer,
        (
            pipeline.cache.stats if pipeline.cache is not None else None,
            pipeline.plan_cache.stats,
        ),
        pipeline.faults.since(mark) if mark is not None else None,
    )
