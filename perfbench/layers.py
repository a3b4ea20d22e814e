"""Outside-in layer tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own code around calls into the
program's layers, never inside it:

* ``request`` — :meth:`ProbePipeline.run` (replaced on the pipeline
  instance the front end owns);
* ``search`` — ``ptas_schedule`` as the pipeline module calls it;
* ``rounding`` / ``lookup`` / ``configs`` — a :class:`ProbeCache`
  subclass handed to the front end through its public ``cache=``;
* ``fill`` — a wrapper around the solver the probe cache receives,
  tagged with the kernel :func:`choose_kernel` picks for it;
* ``plan`` — a :class:`PlanCache` subclass installed as
  ``pipeline.plan_cache``;
* ``assemble`` / ``compose`` — the machine models' ``assemble`` (and
  the few-types lattice composition), plus ``place.*`` children taken
  from the probe timer's own ``extract`` / ``place_long`` /
  ``short_jobs`` phases;
* ``bound`` — ``best_baseline`` as the daemon calls it.

A span's self time is its duration minus its direct children's; the
request root's self time is the ``unattributed`` remainder, so the
parts of a request always add up to its wall time.
"""

from __future__ import annotations

import itertools
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

import repro.service.daemon as daemon_module
import repro.service.pipeline as pipeline_module
from repro.core.backtrack import extract_machine_configurations
from repro.core.dp_vectorized import dp_vectorized
from repro.core.kernels.auto import HOSTPAR_MIN_WORK, AutoKernel, choose_kernel
from repro.core.probe_cache import PlanCache, ProbeCache
from repro.models import FewTypesModel, IdenticalModel, TimeRestrictedModel

from harness import OUT

_clock = time.perf_counter

#: span name -> the layer its self time is charged to.
PARTS = {
    "serve.request": "unattributed",
    "request": "unattributed",
    "late": "loadgen.late",
    "admission": "daemon.admission",
    "bound": "baselines.bound",
    "queue": "daemon.queue",
    "delivery": "daemon.delivery",
    "search": "search",
    "rounding": "rounding",
    "lookup": "probe_cache",
    "configs": "configs",
    "plan": "plan",
    "fill": "fill",
    "assemble": "models",
    "compose": "models",
    "place.extract": "place.extract",
    "place.long": "place.long",
    "place.short": "place.short",
}

PART_NAMES = tuple(dict.fromkeys(PARTS.values()))


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request: Optional[str]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "start": self.start, "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class SpanRecorder:
    """Thread-aware in-memory span store (one stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.totals = defaultdict(float)
        return stack

    def thread_total(self, name: str) -> float:
        """Seconds this thread has spent in spans called ``name``."""
        self._stack()
        return self._local.totals[name]

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids), name, parent.id if parent else None, request,
            _clock(), attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = _clock()
            stack.pop()
            self._local.totals[name] += span.seconds
            with self._lock:
                self.spans.append(span)

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int] = None, request: Optional[str] = None, **attrs,
    ) -> Span:
        """Record a span measured elsewhere (e.g. from timestamps)."""
        span = Span(next(self._ids), name, parent, request, start, end, attrs)
        with self._lock:
            self.spans.append(span)
        return span


@dataclass
class FillInput:
    """One distinct fill the traced run made, kept for the side table."""

    counts: tuple
    class_sizes: tuple
    target: int
    configs: np.ndarray
    machines: Optional[int]
    kwargs: Dict[str, object]

    @property
    def cells(self) -> int:
        return int(np.prod([c + 1 for c in self.counts]))

    @property
    def work(self) -> int:
        return self.cells * (int(self.configs.shape[0]) + 1)


class TimedSolver:
    """Forwards to the probe's solver, recording a ``fill`` span."""

    def __init__(self, inner, trace: "LayerTrace") -> None:
        self._inner = inner
        self._trace = trace

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __call__(self, counts, class_sizes, target, configs=None, **kwargs):
        inner = self._inner
        machines = getattr(inner, "machines", None)
        counts = tuple(int(c) for c in counts)
        cells = int(np.prod([c + 1 for c in counts])) if counts else 1
        kernel = type(inner).__name__
        if isinstance(inner, AutoKernel) and counts:
            kernel = choose_kernel(
                counts, class_sizes, target,
                num_configs=int(configs.shape[0]) if configs is not None else 0,
                machines=machines,
                memory_budget_bytes=inner.memory_budget_bytes,
                fill_workers=(
                    inner.fill_fabric.workers if inner.fill_fabric is not None else None
                ),
            ).kernel
        warm = kwargs.get("warm_table") is not None
        with self._trace.recorder.span("fill", kernel=kernel, cells=cells, warm=warm) as span:
            result = inner(counts, class_sizes, target, configs=configs, **kwargs)
        span.attrs["early_reject"] = bool(result.decided_infeasible)
        if counts and configs is not None:
            self._trace.note_fill(
                FillInput(
                    counts=counts,
                    class_sizes=tuple(int(s) for s in class_sizes),
                    target=int(target),
                    configs=configs,
                    machines=machines,
                    kwargs={k: v for k, v in kwargs.items() if k != "warm_table"},
                )
            )
        return result


class TracedProbeCache(ProbeCache):
    """:class:`ProbeCache` whose artifact lookups record spans."""

    def __init__(self, trace: "LayerTrace") -> None:
        super().__init__()
        self._trace = trace

    def rounding(self, instance, target, eps):
        with self._trace.recorder.span("rounding"):
            return super().rounding(instance, target, eps)

    def configurations(self, rounded, fill=None):
        with self._trace.recorder.span("configs"):
            return super().configurations(rounded, fill=fill)

    def dp(self, rounded, solver, fill=None):
        with self._trace.recorder.span("lookup"):
            return super().dp(rounded, TimedSolver(solver, self._trace), fill=fill)


class TracedPlanCache(PlanCache):
    """:class:`PlanCache` whose lookups record spans."""

    def __init__(self, trace: "LayerTrace") -> None:
        super().__init__()
        self._trace = trace

    def plan(self, *args, **kwargs):
        with self._trace.recorder.span("plan"):
            return super().plan(*args, **kwargs)


class LayerTrace:
    """Everything one traced run records: spans, caches, fill inputs."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.caches: List[TracedProbeCache] = []
        self.plan_caches: List[TracedPlanCache] = []
        self.fills: Dict[tuple, FillInput] = {}
        self._lock = threading.Lock()

    def new_cache(self) -> TracedProbeCache:
        cache = TracedProbeCache(self)
        self.caches.append(cache)
        return cache

    def attach(self, front_end) -> None:
        """Install the traced plan cache and request span on a front end."""
        pipeline = front_end.pipeline
        plan_cache = TracedPlanCache(self)
        self.plan_caches.append(plan_cache)
        pipeline.plan_cache = plan_cache
        run = pipeline.run
        recorder = self.recorder

        def traced_run(request):
            with recorder.span("request", request=request.name):
                return run(request)

        pipeline.run = traced_run

    def note_fill(self, fill: FillInput) -> None:
        key = (
            fill.counts, fill.class_sizes, fill.target, fill.machines,
            tuple(sorted((k, repr(v)) for k, v in fill.kwargs.items())),
        )
        with self._lock:
            self.fills.setdefault(key, fill)

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap the module-level layer entry points for the block."""
        recorder = self.recorder
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        search = pipeline_module.ptas_schedule

        def traced_search(*args, **kwargs):
            with recorder.span("search"):
                return search(*args, **kwargs)

        bound = daemon_module.best_baseline

        def traced_bound(instance):
            with recorder.span("bound"):
                return bound(instance)

        compose = FewTypesModel._compose

        def traced_compose(self, *args, **kwargs):
            with recorder.span("compose"):
                return compose(self, *args, **kwargs)

        patch(pipeline_module, "ptas_schedule", traced_search)
        patch(daemon_module, "best_baseline", traced_bound)
        patch(FewTypesModel, "_compose", traced_compose)
        for model in (IdenticalModel, FewTypesModel, TimeRestrictedModel):
            patch(model, "assemble", _traced_assemble(recorder, model.assemble))
        try:
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


_PHASES = (("extract", "place.extract"), ("place_long", "place.long"), ("short_jobs", "place.short"))


def _traced_assemble(recorder: SpanRecorder, assemble):
    def traced(self, rounded, fills, dp_results, timer):
        before = dict(timer.seconds)
        composed = recorder.thread_total("compose")
        with recorder.span("assemble") as span:
            outcome = assemble(self, rounded, fills, dp_results, timer)
        # The timer's extract phase encloses the few-types composition,
        # which has its own span; the placement spans get the rest.
        overlap = recorder.thread_total("compose") - composed
        cursor = span.start
        for phase, name in _PHASES:
            seconds = timer.seconds.get(phase, 0.0) - before.get(phase, 0.0)
            if phase == "extract":
                seconds -= overlap
            if seconds > 0:
                recorder.add(name, cursor, cursor + seconds, parent=span.id, request=span.request)
                cursor += seconds
        return outcome

    return traced


# -- analysis ---------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus its direct children's durations."""
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.seconds
    return {span.id: span.seconds - children[span.id] for span in spans}


def breakdown(spans: List[Span], root: str) -> Dict[str, float]:
    """Seconds per layer part, summed over the trees under ``root`` spans.

    The parts add up to the summed durations of the root spans.
    """
    by_id = {span.id: span for span in spans}
    rooted: Dict[int, bool] = {}

    def under_root(span: Span) -> bool:
        chain = []
        node: Optional[Span] = span
        verdict = False
        while node is not None:
            if node.id in rooted:
                verdict = rooted[node.id]
                break
            chain.append(node.id)
            if node.name == root:
                verdict = True
                break
            node = by_id.get(node.parent) if node.parent is not None else None
        for span_id in chain:
            rooted[span_id] = verdict
        return verdict

    own = self_times(spans)
    parts = {name: 0.0 for name in PART_NAMES}
    for span in spans:
        if under_root(span):
            parts[PARTS[span.name]] += own[span.id]
    return parts


def span_totals(spans: List[Span]) -> Dict[str, float]:
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += span.seconds
    return totals


def fill_metrics(spans: List[Span], requests: int) -> Dict[str, float]:
    """Kernel-layer figures from the ``fill`` spans."""
    own = self_times(spans)
    fills = [s for s in spans if s.name == "fill"]
    cells = sum(int(s.attrs["cells"]) for s in fills)
    seconds = sum(own[s.id] for s in fills)
    per_kernel = defaultdict(float)
    for s in fills:
        per_kernel[str(s.attrs["kernel"])] += own[s.id]
    count = len(fills)
    return {
        "fill.count": count / requests,
        "fill.cells": cells / requests,
        "fill.ms": seconds * 1e3 / requests,
        "fill.ns_per_cell": seconds * 1e9 / cells if cells else 0.0,
        "fill.decision.ms": per_kernel["decision"] * 1e3 / requests,
        "fill.vectorized.ms": per_kernel["vectorized"] * 1e3 / requests,
        "fill.sweep.ms": per_kernel["sweep"] * 1e3 / requests,
        "fill.warm_pct": 100.0 * sum(bool(s.attrs["warm"]) for s in fills) / count if count else 0.0,
        "fill.early_reject_pct": (
            100.0 * sum(bool(s.attrs["early_reject"]) for s in fills) / count if count else 0.0
        ),
    }


def _median_time(call, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        start = _clock()
        call()
        samples.append(_clock() - start)
    return float(np.median(samples))


MAX_FABRIC_FILLS = 3


def alt_table(fills: List[FillInput], errors: List[str]) -> Dict[str, object]:
    """Every distinct fill re-timed: chosen kernel vs ``dp_vectorized``.

    Exact fills (no machine clamp) are also timed on a 2-worker fill
    fabric.  Tables (exact fills) or verdicts and extracted machine
    configurations (clamped fills) must agree; disagreements go to
    ``errors``.
    """
    plan_cache = PlanCache(capacity=1024)
    chosen_s = vectorized_s = 0.0
    exact: List[tuple] = []
    for fill in fills:
        kernel = AutoKernel(plan_cache=plan_cache).bind_machines(fill.machines)
        args = (fill.counts, fill.class_sizes, fill.target)
        token = fill.kwargs.get("model_token")

        def run_chosen():
            return kernel(*args, configs=fill.configs, **fill.kwargs)

        def run_vectorized():
            return dp_vectorized(*args, configs=fill.configs, model_token=token)

        chosen = run_chosen()  # builds the plan, as the cached run had it
        reference = run_vectorized()
        chosen_s += _median_time(run_chosen)
        vectorized_s += _median_time(run_vectorized)
        label = f"fill counts={fill.counts} T={fill.target} m={fill.machines}"
        if chosen.clamp is None:
            if not np.array_equal(chosen.table, reference.table):
                errors.append(f"{label}: chosen kernel table differs from dp_vectorized")
            exact.append((fill, reference))
        else:
            rejected = reference.opt > fill.machines
            if chosen.decided_infeasible != rejected:
                errors.append(f"{label}: chosen kernel verdict differs from dp_vectorized")
            elif not rejected and extract_machine_configurations(
                chosen
            ) != extract_machine_configurations(reference):
                errors.append(f"{label}: chosen kernel backtrack differs from dp_vectorized")
    out: Dict[str, object] = {
        "alt.fills_compared": float(len(fills)),
        "alt.vectorized_over_chosen": vectorized_s / chosen_s if chosen_s else 0.0,
        "alt.fabric2_over_vectorized": 0.0,
        "alt.fabric2_fills_over_min_work": 0.0,
    }
    # Every eligible fill (work >= HOSTPAR_MIN_WORK) if any, else the
    # largest exact fill, so the ratio is measured wherever exact
    # fills exist at all.
    exact.sort(key=lambda pair: -pair[0].work)
    eligible = [pair for pair in exact if pair[0].work >= HOSTPAR_MIN_WORK]
    chosen_pairs = (eligible or exact[:1])[:MAX_FABRIC_FILLS]
    if chosen_pairs:
        out.update(_fabric_ratio(chosen_pairs, plan_cache, errors))
        out["alt.fabric2_fills_over_min_work"] = float(len(eligible))
    return out


def _fabric_ratio(pairs, plan_cache: PlanCache, errors: List[str]) -> Dict[str, float]:
    from repro.parallel.fabric import BlockExecutor

    # The pool's helper sockets go under the checkout, not the system
    # temp directory.
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    executor = BlockExecutor(workers=2)
    fabric_s = vectorized_s = 0.0
    try:
        for fill, reference in pairs:
            plan = plan_cache.plan(
                fill.counts, fill.class_sizes, fill.target, fill.configs,
                eager=False, model_token=fill.kwargs.get("model_token"),
            )
            sparsify = bool(fill.kwargs.get("sparsify", True))

            def run_fabric():
                return executor.fill(plan, sparsify=sparsify)

            table = run_fabric().reshape(plan.geometry.shape)  # starts the pool
            if not np.array_equal(table, reference.table):
                errors.append(f"fabric fill counts={fill.counts}: table differs from dp_vectorized")
            fabric_s += _median_time(run_fabric)
            vectorized_s += _median_time(
                lambda: dp_vectorized(
                    fill.counts, fill.class_sizes, fill.target, configs=fill.configs,
                    model_token=fill.kwargs.get("model_token"),
                )
            )
    finally:
        executor.close()
        # close() leaves multiprocessing's forkserver and resource tracker
        # running until interpreter exit; stop both and wait for them.
        multiprocessing.forkserver._forkserver._stop()
        multiprocessing.resource_tracker._resource_tracker._stop()
    return {"alt.fabric2_over_vectorized": fabric_s / vectorized_s if vectorized_s else 0.0}
