"""Workloads and drivers of the layered benchmark.

Every input is generated here from the workload seed; the program only
ever receives the generated instances, through its public front ends:
:class:`repro.service.BatchScheduler`, :class:`repro.service.daemon.
SchedulingService`, and the ``python -m repro schedule`` CLI.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import heapq
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baselines.exact import branch_and_bound_optimal
from repro.core.instance import Instance
from repro.core.probe_cache import ProbeCache
from repro.errors import InvalidInstanceError, InvalidScheduleError
from repro.models import model_for, verify_schedule
from repro.service import BatchScheduler
from repro.service.batch import BatchRequest, BatchRequestResult
from repro.service.daemon import SchedulingService
from repro.service.loadgen import Arrival, LoadProfile, generate_arrivals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run summaries and span dumps (ignored by git).
OUT = ROOT / "perfbench" / "out"

#: worker threads every front end gets (the benchmark host has 2 cores).
THREADS = 2

#: branch-and-bound node budget for the optimality check.
OPT_NODE_LIMIT = 300_000


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


# -- correctness --------------------------------------------------------------


@dataclass
class Checks:
    """Correctness findings of one run; any error fails the run."""

    errors: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def result(self, item: BatchRequestResult) -> None:
        """Check one answer: feasible under its model, within its guarantee."""
        self.attempted += 1
        if item.degraded or item.result is None:
            self.failed += 1
            return
        ptas = item.result
        # A cache or coalescing mix-up would hand over another
        # instance's feasible schedule; the answer must be for this one.
        if problem(ptas.schedule.instance) != problem(item.request.instance):
            self.fail(f"{item.name}: served a schedule for another instance")
            return
        try:
            verify_schedule(ptas.schedule)
        except InvalidScheduleError as exc:
            self.fail(f"{item.name}: infeasible schedule: {exc}")
        if ptas.makespan > ptas.guarantee_bound() + 1e-9:
            self.fail(
                f"{item.name}: makespan {ptas.makespan} above the proven "
                f"bound {ptas.guarantee_bound():.2f}"
            )

    def same(self, label: str, first: Dict[str, int], second: Dict[str, int]) -> None:
        """Every request of ``first`` must have the same makespan in ``second``."""
        diff = [k for k in first if first[k] != second.get(k)]
        if diff:
            self.fail(f"{label}: makespans differ on {diff[:5]}")

    def optimal(self, instance: Instance, makespan: int, eps: float, label: str) -> bool:
        """The PTAS guarantee against a true optimum (small instances).

        Returns ``False`` when branch and bound could not prove the
        optimum within its node budget (the instance is then skipped).
        """
        try:
            opt = branch_and_bound_optimal(instance, node_limit=OPT_NODE_LIMIT).makespan
        except InvalidInstanceError:
            return False
        if makespan > (1.0 + eps) * opt + 1e-9:
            self.fail(f"{label}: makespan {makespan} > (1+{eps})*OPT={opt}")
        return True


def problem(instance: Instance) -> tuple:
    """The fields that define an instance; its name is only a label."""
    return (
        instance.times, instance.machines, instance.model, instance.type_speeds,
        instance.machines_per_type, instance.max_jobs_per_machine,
    )


def over_lower_bound(item: BatchRequestResult) -> float:
    """The served makespan over its model's certified lower bound."""
    instance = item.request.instance
    return item.makespan / model_for(instance).lower_bound(instance)


def makespan_digest(makespans: Dict[str, int]) -> str:
    """A short digest of every request's makespan, to compare two runs."""
    return hashlib.sha256(json.dumps(sorted(makespans.items())).encode()).hexdigest()[:16]


def cost_proxy(item: BatchRequestResult) -> int:
    """Deterministic request cost: DP cells over every probe's fills."""
    return sum(int(p.rounded.table_size) for p in item.result.probes)


# -- batch workloads ----------------------------------------------------------


@dataclass(frozen=True)
class BatchWorkload:
    """A BatchScheduler workload: rounds of fresh-cache batches."""

    name: str
    eps: float
    search: str
    shapes: Tuple[Tuple[int, int], ...]
    per_shape: int
    make: Callable[[np.random.Generator, int, int, int], Instance]
    salt: int

    def instances(self, seed: int, round_index: int) -> List[Instance]:
        """The round's batch: ``per_shape`` instances of every shape.

        Shapes take turns, so every prefix of the batch holds the same
        mix; a batch's latency percentiles then depend on the mix, not
        on where its costly shapes happen to fall.
        """
        rng = np.random.default_rng([seed, round_index, self.salt])
        return [
            self.make(rng, n, m, j) for j in range(self.per_shape) for n, m in self.shapes
        ]


def _times(rng: np.random.Generator, n: int) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(5, 101, size=n))


def _identical(rng: np.random.Generator, n: int, m: int, j: int) -> Instance:
    return Instance(times=_times(rng, n), machines=m)


def _mixed_models(rng: np.random.Generator, n: int, m: int, j: int) -> Instance:
    """Three in four few-types fleets (speeds 1 and 2), one time-restricted."""
    times = _times(rng, n)
    if j % 4 == 3:
        return Instance(
            times=times,
            machines=m,
            model="time-restricted",
            max_jobs_per_machine=-(-n // m) + 1,
        )
    return Instance(
        times=times,
        machines=m,
        model="unrelated-few-types",
        type_speeds=(1, 2),
        machines_per_type=(m // 2, m - m // 2),
    )


#: No (30, 6): at eps 0.15 its requests cost 0.03-1.2 s (CV 0.8) and
#: alone made batch throughput swing ~15% between seeds.
BATCH_DECISION = BatchWorkload(
    name="batch-decision",
    eps=0.15,
    search="quarter",
    shapes=((20, 4), (20, 6), (30, 4), (40, 6), (60, 8)),
    per_shape=6,
    make=_identical,
    salt=1,
)

BATCH_MODELS = BatchWorkload(
    name="batch-models",
    eps=0.2,
    search="bisection",
    shapes=((20, 4), (24, 4), (30, 4), (40, 5)),
    per_shape=8,
    make=_mixed_models,
    salt=2,
)


@dataclass
class RoundResult:
    """One fresh-cache batch: its answers and the front end's report."""

    wall_s: float
    items: List[BatchRequestResult]
    report: object

    def makespans(self) -> Dict[str, int]:
        return {r.name: r.makespan for r in self.items}

    def latencies_ms(self) -> List[float]:
        """Each answer's time since the batch was submitted.

        Every request of a batch is due at submission.  The scheduler's
        pool hands requests to its threads in order, each thread taking
        the next one when it frees up, so replaying that rule over the
        per-request wall times gives each answer's arrival time.
        """
        free = [0.0] * THREADS
        out = []
        for item in self.items:
            start = heapq.heappop(free)
            heapq.heappush(free, start + item.wall_s)
            out.append((start + item.wall_s) * 1e3)
        return out


def run_round(
    workload: BatchWorkload,
    instances: Sequence[Instance],
    prefix: str,
    trace=None,
) -> RoundResult:
    """Schedule one batch on a fresh scheduler (fresh caches).

    ``trace`` (a :class:`layers.LayerTrace`) instruments the scheduler.
    """
    cache = ProbeCache() if trace is None else trace.new_cache()
    scheduler = BatchScheduler(
        workers=THREADS, cache=cache, eps=workload.eps, search=workload.search
    )
    if trace is not None:
        trace.attach(scheduler)
    requests = [
        BatchRequest(
            instance=inst, eps=workload.eps, search=workload.search,
            name=f"{prefix}.{i}",
        )
        for i, inst in enumerate(instances)
    ]
    start = time.perf_counter()
    report = scheduler.run(requests)
    wall = time.perf_counter() - start
    scheduler.close()
    return RoundResult(wall_s=wall, items=list(report.results), report=report)


# -- the open-loop service workload ------------------------------------------

#: At 200 Hz a 2-core host is past the knee over a 24 s run: the
#: service's cache and heap grow, and the median latency climbs from
#: 4.5 to 8 ms within 12 s.  At 100 Hz it stays flat.
SERVE_RATE_HZ = 100.0
SERVE_EPS = 0.3
#: arrivals due before this offset warm the service and are not measured.
SERVE_WARMUP_S = 1.0
#: the measured arrivals are cut into this many equal runs of due times;
#: a latency percentile is the median of the runs' percentiles, so one
#: stall (a neighbour's burst, a full garbage collection) moves one run.
SERVE_WINDOWS = 5
#: refined answers later than this after their due time miss the SLO.
SLO_MS = 50.0
#: the generator fell behind (a run is invalid) when the typical send
#: is a mean inter-arrival gap late.  Its p99 lateness is not the
#: test: worker threads holding the interpreter lock delay single sends
#: by tens of milliseconds without the schedule slipping.
MAX_LATE_P50_MS = 10.0


def serve_arrivals(seed: int, seconds: float) -> List[Arrival]:
    """Poisson arrivals at ``SERVE_RATE_HZ`` covering ``seconds`` of load."""
    profile = LoadProfile(
        requests=max(1, int(SERVE_RATE_HZ * seconds)),
        arrival_rate_hz=SERVE_RATE_HZ,
        jobs=30,
        machines=5,
        eps=SERVE_EPS,
        seed=seed,
        duplicate_fraction=0.4,
    )
    return generate_arrivals(profile)


@dataclass
class Sent:
    """One request of the open-loop run, timed from its due time."""

    index: int
    due: float
    sent: float = 0.0
    admitted: float = 0.0
    done: float = 0.0
    coalesced: bool = False
    handle: object = None

    @property
    def name(self) -> str:
        return f"r{self.index}"


async def _drive(
    arrivals: Sequence[Arrival],
    cache: ProbeCache,
    trace,
) -> Tuple[List[Sent], SchedulingService, bool]:
    service = SchedulingService(workers=THREADS, eps=SERVE_EPS, cache=cache)
    if trace is not None:
        trace.attach(service)
    await service.start()
    sent: List[Sent] = []
    origin = time.perf_counter() + 0.01
    for i, arrival in enumerate(arrivals):
        record = Sent(index=i, due=origin + arrival.at_s)
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record.sent = time.perf_counter()
        # submit() never yields on the unbounded queue, so a span
        # around it on the loop thread nests the bound computation.
        with (
            trace.recorder.span("admission", request=record.name)
            if trace is not None
            else contextlib.nullcontext()
        ):
            handle = await service.submit(
                arrival.instance,
                eps=SERVE_EPS,
                tenant=arrival.tenant,
                priority=arrival.priority,
                name=record.name,
            )
        # The bound stage resolves inside submit(): it is in hand now.
        record.admitted = time.perf_counter()
        record.coalesced = handle.coalesced
        record.handle = handle
        handle.refined.add_done_callback(
            lambda _f, r=record: setattr(r, "done", time.perf_counter())
        )
        sent.append(record)
    await asyncio.gather(
        *(asyncio.shield(r.handle.refined) for r in sent), return_exceptions=True
    )
    clean = await service.shutdown()
    return sent, service, clean


def drive_open_loop(
    arrivals: Sequence[Arrival], trace=None
) -> Tuple[List[Sent], SchedulingService, bool]:
    """Play the arrivals against a fresh service; time from due times.

    ``trace`` (a :class:`layers.LayerTrace`) instruments the service.
    """
    cache = ProbeCache() if trace is None else trace.new_cache()
    return asyncio.run(_drive(arrivals, cache, trace))


def served(record: Sent) -> Optional[BatchRequestResult]:
    """The refined answer of one sent request (``None`` if it failed)."""
    future = record.handle.refined
    if future.cancelled() or future.exception() is not None:
        return None
    return future.result()


# -- fresh-interpreter measurements ------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


_SETUP_BATCH = """
from repro.service import BatchScheduler
BatchScheduler(workers=2)
print("ready", flush=True)
"""

_SETUP_SERVE = """
import asyncio
from repro.service.daemon import SchedulingService
async def main():
    service = SchedulingService(workers=2)
    await service.start()
    print("ready", flush=True)
    await service.shutdown()
asyncio.run(main())
"""


def setup_seconds(front_end: str, repeats: int) -> List[float]:
    """Fresh interpreter until the front end can take its first request."""
    code = _SETUP_SERVE if front_end == "serve" else _SETUP_BATCH
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
            text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"{front_end} front end failed to start")
        samples.append(elapsed)
    return samples


_MAKESPAN = re.compile(r"makespan (\d+) ")


def cli_args(instance: Instance, eps: float, search: str) -> List[str]:
    """``python -m repro schedule`` arguments for one instance."""
    args = [
        "schedule",
        "--times", *map(str, instance.times),
        "--machines", str(instance.machines),
        "--eps", str(eps),
        "--search", search,
    ]
    if instance.model != "identical":
        args += ["--model", instance.model]
    if instance.model == "unrelated-few-types":
        args += ["--type-speeds", *map(str, instance.type_speeds)]
        args += ["--machines-per-type", *map(str, instance.machines_per_type)]
    if instance.model == "time-restricted":
        args += ["--max-jobs-per-machine", str(instance.max_jobs_per_machine)]
    return args


def cli_backend(instance: Instance, eps: float, search: str) -> str:
    """The DP backend the CLI runs for these arguments (its own default).

    The parser is the CLI's own, so the answer follows its default.
    """
    from repro.cli import _build_parser

    return _build_parser().parse_args(cli_args(instance, eps, search)).backend


def cli_schedule(instance: Instance, eps: float, search: str) -> Tuple[float, int]:
    """One fresh CLI run (the CLI's default backend); (seconds, makespan)."""
    cmd = [sys.executable, "-m", "repro", *cli_args(instance, eps, search)]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120
    )
    elapsed = time.perf_counter() - start
    match = _MAKESPAN.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        raise RuntimeError(f"CLI failed: {proc.stderr.strip()[:200]}")
    return elapsed, int(match.group(1))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
