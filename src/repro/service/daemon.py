"""The always-on scheduling daemon: a continuous request stream, served.

:class:`~repro.service.batch.BatchScheduler` answers "here are N
instances, schedule them"; a deployment facing millions of users needs
the dual shape — a **long-lived service** that requests flow *through*.
:class:`SchedulingService` is that front door, an asyncio daemon over
the same :class:`~repro.service.pipeline.ProbePipeline` the batch
scheduler drives (so a request served here is bit-identical to the
same request in a batch).  Four mechanisms, in request order:

1. **Admission** — per-tenant in-flight quotas
   (:class:`~repro.resilience.TenantQuota`) refuse a flooding tenant
   before any queue slot exists, the same refuse-before-allocating
   discipline as the byte-budget
   :class:`~repro.resilience.AdmissionController` (which the pipeline
   still applies per probe).
2. **Bound-first streaming** — every admitted request immediately
   receives a proven-ratio answer (the better of LPT and MULTIFIT,
   via :func:`~repro.core.baselines.best_baseline` — the same
   primitive the degradation path serves) on the handle's ``bound``
   future, *before* the request ever queues.  The PTAS refinement
   follows on ``refined``; :meth:`ServiceHandle.stream` yields the two
   stages strictly in that order.
3. **Coalescing** — requests whose
   :func:`~repro.core.probe_cache.normalized_request_key` matches an
   in-flight request attach to its pipeline run instead of starting
   their own: one PTAS execution, N deliveries.  The key collapses
   ``eps`` to the accuracy parameter ``k = ceil(1/eps)`` (the only
   way ``eps`` enters the scheduling path), so each waiter's result is
   re-stamped with its own ``eps`` for an honest
   ``guarantee_bound()``.  Waiter futures are *mirrors*: cancelling
   one waiter never cancels the shared run while others still wait.
4. **Priority dispatch** — admitted work queues on an
   ``asyncio.PriorityQueue`` ordered by (:class:`Priority`, submission
   sequence); ties preserve FIFO.  ``workers`` event-loop tasks drain
   the queue, running the blocking pipeline in a thread executor
   (numpy releases the GIL in the DP hot loops, so worker threads
   genuinely overlap).

Introspection is live: :meth:`SchedulingService.stats` snapshots queue
depths, per-tenant occupancy, coalescing hit rate, latency percentiles
(:class:`~repro.observability.ServiceMetrics`), the shared cache
tallies, and the merged tracer counters — the payload a metrics
endpoint would export.  The load-test harness
(:mod:`repro.service.loadgen`, ``python -m repro serve``,
``benchmarks/test_bench_service.py``) drives exactly this surface.

Lifecycle::

    service = SchedulingService(workers=4, backend="auto")
    async with service:                       # start() ... shutdown()
        handle = await service.submit(inst, eps=0.3, tenant="acme",
                                      priority=Priority.HIGH)
        async for stage, result in handle.stream():
            ...                               # ("bound", ...) then ("refined", ...)

``shutdown(drain=True)`` stops admissions (further ``submit`` raises
:class:`~repro.errors.ServiceClosedError`), finishes queued and
in-flight work, and returns ``True`` on a clean drain — ``False`` when
the optional timeout expired with work still in flight (the CLI maps
that to exit code 7; see ``docs/RELIABILITY.md``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import itertools
import time
from dataclasses import dataclass
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.core.baselines import best_baseline
from repro.core.instance import Instance
from repro.core.probe_cache import (
    ProbeCache,
    RequestKey,
    normalized_request_key,
)
from repro.core.schedule import Schedule
from repro.errors import (
    InvalidInstanceError,
    ServiceClosedError,
)
from repro.observability import ServiceMetrics, Tracer
from repro.resilience import FaultInjector, RetryPolicy, TenantQuota
from repro.service.batch import BatchRequest, BatchRequestResult
from repro.service.pipeline import (
    ProbePipeline,
    build_resilience,
    check_request_options,
)


class Priority(enum.IntEnum):
    """Dispatch priority of a service request (lower value runs first)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclass(frozen=True)
class BoundResult:
    """The immediate, proven-ratio answer served before the PTAS runs.

    ``schedule`` is a complete feasible schedule; ``bound`` is the
    serving heuristic's proven approximation ratio versus the optimal
    makespan (``13/11`` for MULTIFIT, ``4/3 - 1/(3m)`` for LPT) —
    the same guarantees the degradation path relies on.
    """

    schedule: Schedule
    served_by: str
    bound: float

    @property
    def makespan(self) -> int:
        """Makespan of the bound-stage schedule."""
        return self.schedule.makespan


class ServiceHandle:
    """One caller's view of one submitted request.

    Exposes two awaitables — :attr:`bound` (resolved at admission with
    a :class:`BoundResult`) and :attr:`refined` (resolved when the
    PTAS pipeline finishes, with a
    :class:`~repro.service.batch.BatchRequestResult`) — plus
    :meth:`stream`, which yields both stages in guaranteed
    bound-before-refined order.  ``coalesced`` is ``True`` when this
    handle attached to another request's in-flight pipeline.

    Handles of coalesced requests hold *mirror* futures: cancelling
    one (:meth:`cancel`) abandons only that caller's delivery; the
    shared pipeline run — and every other waiter — continues.
    """

    def __init__(
        self,
        name: str,
        request: BatchRequest,
        tenant: str,
        priority: Priority,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.name = name
        self.request = request
        self.tenant = tenant
        self.priority = priority
        self.coalesced = False
        #: wall-clock timestamps for the latency accounting.
        self.submitted_at = time.perf_counter()
        self.bound: "asyncio.Future[BoundResult]" = loop.create_future()
        self.refined: "asyncio.Future[BatchRequestResult]" = loop.create_future()

    async def stream(
        self,
    ) -> AsyncIterator[Tuple[str, object]]:
        """Yield ``("bound", BoundResult)`` then ``("refined", result)``.

        The bound stage is resolved at admission — strictly before any
        pipeline work — so the first yield never waits on the PTAS.
        """
        yield "bound", await asyncio.shield(self.bound)
        yield "refined", await asyncio.shield(self.refined)

    async def result(self) -> BatchRequestResult:
        """The refined (PTAS or degraded) result; awaits completion."""
        return await asyncio.shield(self.refined)

    def cancel(self) -> None:
        """Abandon this caller's deliveries (the shared run continues)."""
        if not self.bound.done():
            self.bound.cancel()
        if not self.refined.done():
            self.refined.cancel()

    @property
    def done(self) -> bool:
        """Whether the refined stage has been delivered (or cancelled)."""
        return self.refined.done()


class _Inflight:
    """One in-flight pipeline run and the handles awaiting it."""

    def __init__(self, primary: ServiceHandle) -> None:
        self.primary = primary
        self.waiters: List[ServiceHandle] = [primary]
        self.bound_result: Optional[BoundResult] = None


class SchedulingService:
    """Long-lived asyncio scheduling service over the probe pipeline.

    Parameters
    ----------
    backend / search / eps:
        Defaults for requests that do not specify their own — identical
        semantics to :class:`~repro.service.batch.BatchScheduler`.
    workers:
        Number of concurrent pipeline executions.  Each worker is an
        event-loop task that runs the blocking pipeline in the default
        thread executor.
    cache:
        Shared :class:`~repro.core.probe_cache.ProbeCache` (pass
        ``None`` to disable cross-request reuse; default: a fresh
        bounded cache, as for batches).
    quota:
        A :class:`~repro.resilience.TenantQuota`, or ``None`` for
        unlimited admission.  Over-quota submissions raise
        :class:`~repro.errors.QuotaExceededError`.
    faults / retry / deadline_s / memory_budget_bytes / degrade:
        The resilience knobs, forwarded to the shared pipeline (see
        ``docs/RELIABILITY.md``).
    max_queue:
        Optional bound on the dispatch queue; at capacity, ``submit``
        back-pressures (awaits space) rather than rejecting.
    """

    def __init__(
        self,
        backend: str = "auto",
        workers: int = 4,
        cache: Optional[ProbeCache] = ...,  # type: ignore[assignment]
        search: str = "quarter",
        eps: float = 0.3,
        quota: Optional[TenantQuota] = None,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
        degrade: bool = True,
        max_queue: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
        check_request_options(eps, search)
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
        self.backend = backend
        self.workers = int(workers)
        self.search = search
        self.eps = eps
        self.quota = quota
        self.metrics = ServiceMetrics()
        #: merged per-request tracers, in completion order (the stream
        #: has no batch to order by; counters are order-independent).
        self.tracer = Tracer()
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, Optional[_Inflight]]]" = (
            asyncio.PriorityQueue(maxsize=max_queue or 0)
        )
        self._inflight: Dict[RequestKey, _Inflight] = {}
        self._seq = itertools.count()
        self._workers: List[asyncio.Task] = []
        self._started = False
        self._closing = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._active = 0  # queued + running pipeline entries

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._workers = [
            loop.create_task(self._worker(i), name=f"repro-service-worker-{i}")
            for i in range(self.workers)
        ]

    async def __aenter__(self) -> "SchedulingService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def shutdown(
        self, drain: bool = True, timeout_s: Optional[float] = None
    ) -> bool:
        """Stop the service; returns ``True`` on a clean shutdown.

        With ``drain=True`` (default) admissions stop immediately
        (``submit`` raises :class:`~repro.errors.ServiceClosedError`)
        but queued and in-flight requests complete; ``drain=False``
        additionally abandons queued entries (their waiters' futures
        are cancelled) and only waits out requests already running.
        ``timeout_s`` caps the wait: on expiry the workers are
        cancelled, every unresolved waiter future is cancelled, and
        the method returns ``False`` — the "dirty shutdown" the CLI
        reports as exit code 7.
        """
        self._closing = True
        if not self._started:
            return True
        if not drain:
            self._flush_queue()
        clean = True
        if self._active:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
            except asyncio.TimeoutError:
                clean = False
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._started = False
        if not clean:
            self._abandon_inflight()
        self.metrics.count("shutdown.clean" if clean else "shutdown.timeout")
        return clean

    def _flush_queue(self) -> None:
        """Drop every queued (not yet running) entry, cancelling waiters."""
        while True:
            try:
                _, _, entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._queue.task_done()
            if entry is None:
                continue
            for waiter in entry.waiters:
                if not waiter.refined.done():
                    waiter.refined.cancel()
            self._finish_entry(entry, abandoned=True)

    def _abandon_inflight(self) -> None:
        """Cancel unresolved futures after a timed-out shutdown."""
        for entry in list(self._inflight.values()):
            for waiter in entry.waiters:
                if not waiter.refined.done():
                    waiter.refined.cancel()
        self._inflight.clear()
        self._active = 0
        self._idle.set()

    # -- admission ----------------------------------------------------------

    async def submit(
        self,
        instance: Instance,
        eps: Optional[float] = None,
        search: Optional[str] = None,
        backend: Optional[str] = None,
        tenant: str = "default",
        priority: Priority = Priority.NORMAL,
        name: str = "",
    ) -> ServiceHandle:
        """Admit one request; returns its :class:`ServiceHandle`.

        Admission order: the service must be accepting
        (:class:`~repro.errors.ServiceClosedError` otherwise), the
        tenant must be under quota
        (:class:`~repro.errors.QuotaExceededError`), then the bound
        stage is computed and delivered, and the request either
        coalesces onto an in-flight twin or queues for dispatch.  An
        ``eps`` or ``search`` no request can run raises
        :class:`~repro.errors.InvalidInstanceError` before any of that.
        """
        if self._closing or not self._started:
            raise ServiceClosedError(
                "service is not accepting requests "
                + ("(shutting down)" if self._closing else "(not started)")
            )
        seq = next(self._seq)
        eps = self.eps if eps is None else eps
        search = self.search if search is None else search
        request = BatchRequest(
            instance=instance,
            eps=eps,
            search=search,
            name=name or f"request-{seq}",
            backend=backend,
        )
        handle = ServiceHandle(
            request.name, request, tenant, Priority(priority),
            asyncio.get_running_loop(),
        )
        if self.quota is not None:
            try:
                self.quota.acquire(tenant)
            except Exception:
                self.metrics.count("rejected.quota")
                raise
        self.metrics.count("submitted")
        self.metrics.count(f"submitted.priority.{Priority(priority).name.lower()}")

        key = normalized_request_key(
            instance, eps, search, backend or self.backend
        )
        entry = self._inflight.get(key)
        if entry is not None:
            # Coalesce: attach to the in-flight run.  The bound stage
            # is shared too — it depends only on the instance.
            handle.coalesced = True
            entry.waiters.append(handle)
            self.metrics.count("coalesced")
            self._deliver_bound(handle, entry.bound_result)
            return handle

        entry = _Inflight(handle)
        entry.bound_result = self._compute_bound(instance)
        self._deliver_bound(handle, entry.bound_result)
        self._inflight[key] = entry
        self._active += 1
        self._idle.clear()
        # PriorityQueue orders by the tuple: priority class first, then
        # submission sequence — FIFO within a class.
        await self._queue.put((int(priority), seq, entry))
        self.metrics.count("enqueued")
        return handle

    def _compute_bound(self, instance: Instance) -> BoundResult:
        """The bound-first answer (cheap: LPT + MULTIFIT, O(n log n))."""
        schedule, by, bound = best_baseline(instance)
        self.metrics.count("bound.served")
        self.metrics.count(f"bound.by.{by}")
        return BoundResult(schedule=schedule, served_by=by, bound=bound)

    def _deliver_bound(
        self, handle: ServiceHandle, bound: Optional[BoundResult]
    ) -> None:
        if bound is not None and not handle.bound.done():
            handle.bound.set_result(bound)
            self.metrics.record_latency(
                "bound", time.perf_counter() - handle.submitted_at
            )

    # -- dispatch -----------------------------------------------------------

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _, _, entry = await self._queue.get()
            try:
                if entry is None:
                    continue
                await self._execute(loop, entry)
            finally:
                self._queue.task_done()

    async def _execute(
        self, loop: asyncio.AbstractEventLoop, entry: _Inflight
    ) -> None:
        """Run one pipeline entry and deliver to every waiter."""
        request = entry.primary.request
        self.metrics.count("pipeline.runs")
        try:
            result, tracer = await loop.run_in_executor(
                None, self.pipeline.run, request
            )
        except asyncio.CancelledError:
            # Worker cancelled mid-run (timed-out shutdown): abandon
            # the waiters and let the cancellation propagate.
            self._finish_entry(entry)
            for waiter in entry.waiters:
                if not waiter.refined.done():
                    waiter.refined.cancel()
            raise
        except BaseException as exc:  # degrade=False, or a true bug
            self.metrics.count("pipeline.errors")
            self._finish_entry(entry)
            for waiter in entry.waiters:
                if not waiter.refined.done():
                    waiter.refined.set_exception(exc)
            return
        self.tracer.merge(tracer)
        if result.degraded:
            self.metrics.count("completed.degraded")
        self.metrics.count("completed.refined", len(entry.waiters))
        self._finish_entry(entry)
        now = time.perf_counter()
        for waiter in entry.waiters:
            if waiter.refined.done():  # cancelled by its caller
                self.metrics.count("delivery.skipped.cancelled")
                continue
            waiter.refined.set_result(self._stamp(result, waiter))
            self.metrics.record_latency("refined", now - waiter.submitted_at)

    def _stamp(
        self, result: BatchRequestResult, waiter: ServiceHandle
    ) -> BatchRequestResult:
        """Re-label a shared result for one waiter.

        Coalesced waiters may have asked with a different name or a
        different ``eps`` of equal accuracy ``k``; the schedule is
        bit-identical (that is what the coalescing key guarantees) but
        the delivered record carries the waiter's own name, request,
        and — inside the PTAS result — its own ``eps`` so
        ``guarantee_bound()`` reflects what *this* caller was promised.
        """
        if waiter.request is result.request and waiter.name == result.name:
            return result
        ptas = result.result
        if ptas is not None and ptas.eps != waiter.request.eps:
            ptas = dataclasses.replace(ptas, eps=waiter.request.eps)
        return dataclasses.replace(
            result, name=waiter.name, request=waiter.request, result=ptas
        )

    def _finish_entry(self, entry: _Inflight, abandoned: bool = False) -> None:
        """Retire an entry: in-flight table, quota slots, idle latch."""
        key = normalized_request_key(
            entry.primary.request.instance,
            entry.primary.request.eps,
            entry.primary.request.search,
            entry.primary.request.backend or self.backend,
        )
        current = self._inflight.get(key)
        if current is entry:
            del self._inflight[key]
        if self.quota is not None:
            for waiter in entry.waiters:
                self.quota.release(waiter.tenant)
        if abandoned:
            self.metrics.count("abandoned")
        self._active -= 1
        if self._active <= 0:
            self._active = 0
            self._idle.set()

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Live JSON-ready snapshot — the introspection endpoint payload.

        Contains the service metrics (counters + latency percentiles),
        queue depth and in-flight/coalescing state, per-tenant quota
        occupancy, the shared probe/plan cache tallies, and the merged
        tracer counters of every completed request.
        """
        snapshot = self.metrics.snapshot()
        coalescing_rate = self.metrics.ratio("coalesced", "submitted")
        cache = self.pipeline.cache
        return {
            "backend": self.backend,
            "workers": self.workers,
            "accepting": self._started and not self._closing,
            "queue_depth": self._queue.qsize(),
            "inflight_keys": len(self._inflight),
            "active_requests": self._active,
            "tenants": (
                self.quota.snapshot() if self.quota is not None else {}
            ),
            "coalescing_hit_rate": (
                round(coalescing_rate, 4) if coalescing_rate is not None else None
            ),
            **snapshot,
            "cache": cache.stats.as_dict() if cache is not None else {},
            "plan_cache": (
                self.pipeline.plan_cache.stats.as_dict()
                if len(self.pipeline.plan_cache)
                else {}
            ),
            "tracer_counters": dict(self.tracer.counters),
            # Headline perf-opt tallies by name (the same pair the
            # batch report surfaces): configs dropped by dominance
            # pruning, DP cells a warm-started fill did not recompute.
            "perf": {
                "sparsify_dropped": int(
                    self.tracer.counters.get("sparsify.dropped", 0)
                ),
                "warmstart_cells_reused": int(
                    self.tracer.counters.get("warmstart.cells_reused", 0)
                ),
            },
        }

    async def join(self) -> None:
        """Wait until every admitted request has been delivered."""
        await self._idle.wait()
