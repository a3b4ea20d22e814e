"""Command-line interface: ``python -m repro <command>``.

Five commands:

* ``schedule`` — run the PTAS (and the classical baselines) on an
  instance given inline or generated at random;
* ``batch`` — run a fleet of random instances through the
  :class:`~repro.service.batch.BatchScheduler`, with the resilience
  knobs (fault injection, memory budget, retries, deadlines) exposed;
* ``serve`` — start the always-on asyncio
  :class:`~repro.service.daemon.SchedulingService` and drive it with a
  reproducible open-loop Poisson workload (``docs/SERVICE.md``),
  printing latency percentiles, the coalescing hit rate, and the live
  introspection snapshot;
* ``engines`` — fill one DP probe on every simulated engine and print
  the simulated-time comparison (a miniature Fig. 3 row);
* ``experiment`` — regenerate a paper exhibit at reduced scale and
  print its report (the benchmarks run the full versions).

Exit codes (``docs/RELIABILITY.md``): 0 success, 2 usage error
(bad flags, unknown backend), 3 invalid instance, 4 backend failure,
5 memory budget exceeded, 6 the run succeeded but served at least one
degraded (baseline) result, 7 the service shutdown drain timed out
with requests still in flight.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.report import render_table
from repro.core.baselines import lpt_schedule, multifit_schedule
from repro.core.instance import Instance, uniform_instance
from repro.core.rounding import round_instance

#: Process exit codes — one per failure class, so scripts and CI can
#: react without parsing stderr.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID_INSTANCE = 3
EXIT_BACKEND_FAILURE = 4
EXIT_BUDGET = 5
EXIT_DEGRADED = 6
EXIT_SHUTDOWN_TIMEOUT = 7

_SIZE_SUFFIXES = {
    "k": 10**3, "m": 10**6, "g": 10**9,
    "kb": 10**3, "mb": 10**6, "gb": 10**9,
    "kib": 2**10, "mib": 2**20, "gib": 2**30,
}


def parse_bytes(spec: str) -> int:
    """Parse a byte budget like ``"64MiB"``, ``"2gb"``, or ``"4096"``."""
    text = spec.strip().lower()
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            try:
                return int(float(number) * _SIZE_SUFFIXES[suffix])
            except ValueError:
                break
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse byte size {spec!r}; use e.g. 4096, 64KiB, 16MB, 2GiB"
        ) from None


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The shared resilience knobs (see docs/RELIABILITY.md)."""
    parser.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministic chaos: comma-separated key=value pairs, e.g. "
             "'seed=7,rate=0.5,kinds=dperror|crash,sites=dp,max=1'",
    )
    parser.add_argument(
        "--memory-budget", type=parse_bytes, default=None, metavar="BYTES",
        help="per-probe admission budget (e.g. 64MiB); probes whose "
             "estimated DP table exceeds it are rejected before any "
             "allocation",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transient probe failures up to N attempts total",
    )
    parser.add_argument(
        "--probe-deadline", type=float, default=None, metavar="SECONDS",
        help="per-probe wall-clock deadline; probes over it raise "
             "ProbeTimeoutError (retried as transient)",
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """The machine-model selectors (see docs/MODELS.md)."""
    from repro.core.instance import KNOWN_MODELS

    parser.add_argument(
        "--model", choices=list(KNOWN_MODELS), default="identical",
        help="machine model to schedule under: 'identical' (default), "
             "'unrelated-few-types' (a few machine types with integer "
             "speeds), or 'time-restricted' (a per-machine job-count "
             "cap)",
    )
    parser.add_argument(
        "--type-speeds", type=int, nargs="+", default=None, metavar="S",
        help="unrelated-few-types: integer speed per machine type "
             "(default: one unit-speed type)",
    )
    parser.add_argument(
        "--machines-per-type", type=int, nargs="+", default=None, metavar="M",
        help="unrelated-few-types: machine count per type, aligned with "
             "--type-speeds and summing to --machines",
    )
    parser.add_argument(
        "--max-jobs-per-machine", type=int, default=None, metavar="B",
        help="time-restricted: at most B jobs per machine "
             "(default: the job count, i.e. non-binding)",
    )


def _modelled(inst: Instance, args: argparse.Namespace) -> Instance:
    """Apply the ``--model`` flags to a constructed instance."""
    from repro.models import with_model

    return with_model(
        inst,
        args.model,
        type_speeds=args.type_speeds,
        machines_per_type=args.machines_per_type,
        max_jobs_per_machine=args.max_jobs_per_machine,
    )


def _faults_and_retry(args: argparse.Namespace):
    """The fault injector and retry policy the shared flags ask for.

    Either may be ``None``; every front door hands both to
    :func:`~repro.service.pipeline.build_resilience`.
    """
    from repro.resilience import FaultInjector, RetryPolicy

    faults = (
        FaultInjector.from_spec(args.inject_faults)
        if args.inject_faults
        else None
    )
    retry = RetryPolicy(max_attempts=args.retries) if args.retries else None
    return faults, retry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-style parallel PTAS for P||Cmax (IPDPS-W 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="schedule an instance with the PTAS")
    p_sched.add_argument(
        "--times", type=int, nargs="+", help="job processing times (integers)"
    )
    p_sched.add_argument("--machines", type=int, help="required unless --from-file")
    p_sched.add_argument(
        "--random", type=int, metavar="N", help="generate N uniform random jobs"
    )
    p_sched.add_argument("--low", type=int, default=1)
    p_sched.add_argument("--high", type=int, default=100)
    p_sched.add_argument("--seed", type=int, default=None)
    p_sched.add_argument("--eps", type=float, default=0.3)
    p_sched.add_argument(
        "--search", choices=["bisection", "quarter"], default="quarter"
    )
    p_sched.add_argument(
        "--backend", default="vectorized", metavar="NAME",
        help="DP solver backend from the registry (repro.backends): "
             "'vectorized' (default; exact fill relaxed over the maximal "
             "configurations), 'auto' (cost-model kernel selection per "
             "probe; clamps large fills at the machine budget), 'sweep', "
             "'reference', 'fallback', or a simulated engine such as "
             "'serial', 'omp-28', 'gpu-dim6', 'hybrid'",
    )
    p_sched.add_argument(
        "--baselines", action="store_true", help="also run LPT and MULTIFIT"
    )
    p_sched.add_argument(
        "--from-file", metavar="PATH",
        help="read the instance from a repro.core.io text file",
    )
    p_sched.add_argument(
        "--save-schedule", metavar="PATH",
        help="write the resulting schedule to a text file",
    )
    p_sched.add_argument(
        "--profile", action="store_true",
        help="print per-phase timings and counters after the run "
             "(see docs/PERFORMANCE.md for how to read them)",
    )
    p_sched.add_argument(
        "--trace-json", metavar="PATH",
        help="write one JSON record per DP probe (targets, timings, "
             "cache hits) to PATH",
    )
    p_sched.add_argument(
        "--cache", action="store_true",
        help="enable the cross-probe solver cache (identical results, "
             "fewer enumerations/DP fills; stats printed with --profile)",
    )
    _add_model_flags(p_sched)
    _add_resilience_flags(p_sched)

    p_batch = sub.add_parser(
        "batch",
        help="schedule a fleet of random instances via the batch service",
    )
    p_batch.add_argument(
        "--requests", type=int, default=4, metavar="N",
        help="number of random instances in the fleet",
    )
    p_batch.add_argument("--jobs", type=int, default=20)
    p_batch.add_argument("--machines", type=int, default=4)
    p_batch.add_argument("--low", type=int, default=1)
    p_batch.add_argument("--high", type=int, default=100)
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--eps", type=float, default=0.3)
    p_batch.add_argument(
        "--backend", default="auto", metavar="NAME",
        help="registry backend for every request; 'fallback' or "
             "'fallback:<a>,<b>,...' enables backend step-down chains",
    )
    p_batch.add_argument("--workers", type=int, default=4)
    p_batch.add_argument(
        "--no-degrade", action="store_true",
        help="abort the batch on the first hard failure instead of "
             "serving a bounded LPT/MULTIFIT answer for that request",
    )
    _add_model_flags(p_batch)
    _add_resilience_flags(p_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on scheduling service under an open-loop "
             "Poisson workload (docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--requests", type=int, default=32, metavar="N",
        help="number of requests in the generated workload",
    )
    p_serve.add_argument(
        "--arrival-rate", type=float, default=50.0, metavar="HZ",
        help="open-loop Poisson arrival rate (requests per second)",
    )
    p_serve.add_argument(
        "--duplicate-fraction", type=float, default=0.3, metavar="F",
        help="fraction of arrivals that re-submit an earlier instance "
             "(the coalescing pressure)",
    )
    p_serve.add_argument("--jobs", type=int, default=20)
    p_serve.add_argument("--machines", type=int, default=4)
    p_serve.add_argument("--low", type=int, default=1)
    p_serve.add_argument("--high", type=int, default=100)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--eps", type=float, default=0.3)
    p_serve.add_argument(
        "--backend", default="auto", metavar="NAME",
        help="registry backend for every request (as for 'batch')",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="concurrent pipeline executions inside the daemon",
    )
    p_serve.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="per-tenant in-flight admission quota (default: unlimited)",
    )
    p_serve.add_argument(
        "--time-scale", type=float, default=1.0, metavar="S",
        help="multiply every arrival offset by S (e.g. 0.1 compresses "
             "a long trace into a smoke test)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="cap the shutdown drain; on expiry in-flight work is "
             "abandoned and the process exits 7",
    )
    p_serve.add_argument(
        "--stats-json", metavar="PATH",
        help="write the final introspection snapshot (service stats, "
             "latency percentiles, cache tallies) to PATH as JSON",
    )
    _add_model_flags(p_serve)
    _add_resilience_flags(p_serve)

    p_eng = sub.add_parser(
        "engines", help="compare simulated engines on one DP probe"
    )
    p_eng.add_argument("--jobs", type=int, default=40)
    p_eng.add_argument("--machines", type=int, default=6)
    p_eng.add_argument("--target", type=int, default=None, help="makespan target T")
    p_eng.add_argument("--seed", type=int, default=7)
    p_eng.add_argument("--eps", type=float, default=0.3)
    p_eng.add_argument(
        "--dims", type=int, nargs="+", default=[3, 6, 9],
        help="GPU partition settings to include",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper exhibit (reduced)")
    p_exp.add_argument(
        "exhibit",
        choices=["fig1", "fig2", "fig3", "fig4", "tables", "table7", "ablations", "census"],
    )
    return parser


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.errors import InvalidInstanceError

    if not args.from_file and args.machines is None:
        print("error: --machines is required unless --from-file", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.from_file:
            from repro.core.io import load_instance

            inst = load_instance(args.from_file)
        elif args.random is not None:
            inst = uniform_instance(
                args.random, args.machines,
                low=args.low, high=args.high, seed=args.seed,
            )
        elif args.times:
            inst = Instance(times=tuple(args.times), machines=args.machines)
        else:
            print(
                "error: provide --times, --random N, or --from-file",
                file=sys.stderr,
            )
            return EXIT_USAGE
        inst = _modelled(inst, args)
    except InvalidInstanceError as exc:
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE

    from repro.backends import get_spec
    from repro.core.probe_cache import ProbeCache
    from repro.errors import BackendError, MemoryBudgetExceeded, ReproError
    from repro.service.batch import BatchRequest
    from repro.service.pipeline import ProbePipeline, build_resilience

    try:
        faults, retry = _faults_and_retry(args)
        resilience, faults = build_resilience(
            faults=faults,
            retry=retry,
            deadline_s=args.probe_deadline,
            memory_budget_bytes=args.memory_budget,
        )
        # The batch and daemon request path, with failures raised (and
        # mapped to exit codes below) instead of degraded.
        pipeline = ProbePipeline(
            backend=args.backend,
            cache=ProbeCache() if args.cache else None,
            resilience=resilience,
            faults=faults,
            degrade=False,
        )
        request = BatchRequest(instance=inst, eps=args.eps, search=args.search)
    except (BackendError, InvalidInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        answer, tracer = pipeline.run(request)
    except MemoryBudgetExceeded as exc:
        print(f"error: memory budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ReproError, MemoryError) as exc:
        print(
            f"error: backend failure: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_BACKEND_FAILURE
    result = answer.result
    print(f"instance: {inst}")
    print(
        f"PTAS(eps={args.eps}, {args.search}): makespan {result.makespan} "
        f"(proven <= {result.guarantee_bound():.1f}, "
        f"{result.iterations} iterations, {len(result.probes)} DP probes)"
    )
    print(f"loads: {result.schedule.loads().tolist()}")
    if inst.model != "identical":
        print(f"completions: {result.schedule.completion_times().tolist()}")
    spec = get_spec(args.backend)
    if spec.simulated:
        rounds = int(tracer.counters.get("executor.rounds", 0))
        print(
            f"backend {spec.name}: simulated {answer.simulated_s * 1e3:.3f} ms "
            f"({rounds} rounds, {spec.concurrency} concurrency)"
        )
    if faults is not None and faults.events:
        print(f"faults injected: {len(faults.events)}")
    if args.profile:
        from repro.observability import render_profile

        print(render_profile(tracer, title=f"profile ({args.search})"))
        if pipeline.cache is not None:
            print(f"cache: {pipeline.cache.stats}")
    if args.trace_json:
        import json

        try:
            with open(args.trace_json, "w") as fh:
                json.dump(tracer.report(), fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 2
        print(f"trace written to {args.trace_json}")
    if args.save_schedule:
        from repro.core.io import save_schedule

        save_schedule(result.schedule, args.save_schedule)
        print(f"schedule written to {args.save_schedule}")
    if args.baselines:
        if inst.model == "identical":
            print(f"LPT:      makespan {lpt_schedule(inst).makespan}")
            print(f"MULTIFIT: makespan {multifit_schedule(inst).makespan}")
        else:
            # LPT/MULTIFIT placement (and their ratios) assume identical
            # machines; serve the model's own baseline instead.
            from repro.core.baselines import best_baseline

            sched, by, bound = best_baseline(inst)
            print(
                f"{by}: makespan {sched.makespan} "
                f"(a-posteriori <= {bound:.3f} * OPT)"
            )
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.errors import (
        BackendError,
        InvalidInstanceError,
        MemoryBudgetExceeded,
        ReproError,
    )
    from repro.service.batch import BatchScheduler

    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        instances = [
            _modelled(
                uniform_instance(
                    args.jobs, args.machines,
                    low=args.low, high=args.high, seed=args.seed + i,
                ),
                args,
            )
            for i in range(args.requests)
        ]
    except InvalidInstanceError as exc:
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE

    try:
        faults, retry = _faults_and_retry(args)
        scheduler = BatchScheduler(
            backend=args.backend,
            workers=args.workers,
            eps=args.eps,
            faults=faults,
            retry=retry,
            deadline_s=args.probe_deadline,
            memory_budget_bytes=args.memory_budget,
            degrade=not args.no_degrade,
        )
    except (BackendError, InvalidInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = scheduler.run(instances)
    except MemoryBudgetExceeded as exc:
        print(f"error: memory budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ReproError, MemoryError) as exc:
        print(
            f"error: backend failure: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_BACKEND_FAILURE

    for r in report.results:
        if r.degraded:
            print(
                f"{r.name}: makespan {r.makespan} DEGRADED "
                f"(served by {r.degraded_by}, proven <= "
                f"{r.degraded_bound:.4f} * OPT) — {r.error}"
            )
        else:
            print(
                f"{r.name}: makespan {r.makespan} "
                f"({r.result.iterations} iterations, "
                f"{len(r.result.probes)} probes)"
            )
    print(
        f"batch: {len(report.results)} requests, "
        f"{report.degraded_count} degraded, "
        f"{report.total_probes} probes, backend {report.backend}"
    )
    if faults is not None and faults.events:
        print(f"faults injected: {len(faults.events)}")
    return EXIT_DEGRADED if report.degraded_count else EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import BackendError, InvalidInstanceError
    from repro.resilience import TenantQuota
    from repro.service import LoadProfile, SchedulingService, run_load

    try:
        profile = LoadProfile(
            requests=args.requests,
            arrival_rate_hz=args.arrival_rate,
            jobs=args.jobs,
            machines=args.machines,
            low=args.low,
            high=args.high,
            eps=args.eps,
            seed=args.seed,
            duplicate_fraction=args.duplicate_fraction,
            model=args.model,
            type_speeds=(
                tuple(args.type_speeds) if args.type_speeds else None
            ),
            machines_per_type=(
                tuple(args.machines_per_type)
                if args.machines_per_type
                else None
            ),
            max_jobs_per_machine=args.max_jobs_per_machine,
        )
        faults, retry = _faults_and_retry(args)
        quota = TenantQuota(args.quota) if args.quota is not None else None
        service = SchedulingService(
            backend=args.backend,
            workers=args.workers,
            eps=args.eps,
            quota=quota,
            faults=faults,
            retry=retry,
            deadline_s=args.probe_deadline,
            memory_budget_bytes=args.memory_budget,
        )
    except (BackendError, InvalidInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    async def _run():
        await service.start()
        try:
            report = await run_load(service, profile, time_scale=args.time_scale)
        finally:
            clean = await service.shutdown(timeout_s=args.drain_timeout)
        return report, clean

    report, clean = asyncio.run(_run())

    latency = report.stats.get("latency", {})
    print(
        f"serve: {report.submitted} requests, "
        f"{report.coalesced} coalesced "
        f"(hit rate {report.coalescing_hit_rate:.2f}), "
        f"{report.degraded} degraded, "
        f"{report.bound_first_violations} bound-first violations, "
        f"{report.wall_s:.2f}s wall"
    )
    for stage in ("bound", "refined"):
        summary = latency.get(stage)
        if summary and summary.get("count"):
            print(
                f"{stage:>8}: p50 {summary['p50_ms']:.2f} ms, "
                f"p95 {summary['p95_ms']:.2f} ms, "
                f"p99 {summary['p99_ms']:.2f} ms "
                f"({summary['count']} samples)"
            )
    if not clean:
        print(
            "error: shutdown drain timed out with requests in flight",
            file=sys.stderr,
        )
    if args.stats_json:
        import json

        try:
            with open(args.stats_json, "w") as fh:
                json.dump(report.as_dict(), fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write stats file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"stats written to {args.stats_json}")
    if not clean:
        return EXIT_SHUTDOWN_TIMEOUT
    return EXIT_DEGRADED if report.degraded else EXIT_OK


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.backends import iter_backends, resolve
    from repro.core.bounds import makespan_bounds
    from repro.core.probe_cache import PlanCache

    inst = uniform_instance(args.jobs, args.machines, low=5, high=100, seed=args.seed)
    bounds = makespan_bounds(inst)
    # Default near the lower bound: that is where the bisection spends
    # its time and where tables are big enough to be interesting.
    target = args.target or bounds.lower + max(1, bounds.width // 8)
    rounded = round_instance(inst, target, args.eps)
    if rounded.dims == 0:
        print("all jobs are short at this target; nothing for the DP to do")
        return 0
    print(
        f"probe: T={target}, table shape {rounded.table_shape} "
        f"({rounded.table_size} cells, {rounded.dims} dims)"
    )

    # Every simulated backend in the registry; the gpu-dim family is
    # expanded from --dims rather than the registry's curated sizes.
    names = [
        s.name
        for s in iter_backends(simulated=True)
        if not s.name.startswith("gpu-dim")
    ]
    names += [f"gpu-dim{d}" for d in args.dims]
    # One plan cache for the whole comparison: every engine interprets
    # the same ProbePlan, so the wavefront/partition derivation happens
    # once here (the per-dim blocked schedules are memoized on it too).
    plans = PlanCache()
    rows = []
    opt = None
    for name in names:
        kwargs = {"check_memory": False} if name.startswith("gpu") else {}
        engine = resolve(name, plan_cache=plans, **kwargs)
        run = engine.run(rounded.counts, rounded.class_sizes, rounded.target)
        opt = run.dp_result.opt if opt is None else opt
        assert run.dp_result.opt == opt, "engines disagree!"
        # Label rows with the registry name: the hybrid engine tags its
        # runs with whichever device it dispatched to.
        rows.append({"engine": name, "simulated_s": run.simulated_s})
    print(render_table(rows))
    print(f"OPT(N) = {opt} machines (identical across engines)")
    print(
        f"plan cache: {plans.stats.hits.get('plan', 0)} hits / "
        f"{plans.stats.misses.get('plan', 0)} misses across {len(names)} engines "
        f"(one shared probe plan)"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import (
        ablations, census, fig1, fig2, fig3, fig4, table7, tables_i_vi,
    )

    if args.exhibit == "fig1":
        result = fig1.run()
        print(render_table(result.rows, title=result.description))
    elif args.exhibit == "fig2":
        result = fig2.run()
        print(render_table(result.rows, title=result.description))
    elif args.exhibit == "fig3":
        result = fig3.run(
            groups=[(100, 10_000), (20_000, 100_000)], per_group=3, dims=(3, 6)
        )
        print(render_table(result.rows, title=result.description))
        print(f"crossover: {fig3.crossover_size(result)}")
    elif args.exhibit == "fig4":
        result = fig4.run(sizes=(3456,))
        keep = ["table_size", "n_dims", "partition_dim", "simulated_s"]
        print(render_table([{k: r[k] for k in keep} for r in result.rows],
                           title=result.description))
    elif args.exhibit == "tables":
        result = tables_i_vi.run()
        print(render_table(result.rows, title=result.description))
    elif args.exhibit == "table7":
        result = table7.run(sizes=(12960, 20736))
        print(render_table(result.rows, title=result.description))
    elif args.exhibit == "census":
        result = census.run(population=10)
        print(render_table(result.rows, title=result.description))
    else:
        for fn in (ablations.naive_port, ablations.stream_count, ablations.coalescing):
            result = fn()
            print(render_table(result.rows, title=result.description))
            print()
    for note in getattr(result, "notes", []):
        print(note)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "engines":
        return _cmd_engines(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    raise SystemExit(main())
