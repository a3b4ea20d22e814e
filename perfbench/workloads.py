"""The three workloads: what each run measures and how it checks it.

``run(workload, seed, seconds, trace)`` returns ``(metrics, samples,
checks, extra)``: metric values by name, the sample count behind each
timing, the correctness findings, and side facts for the printout.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List

import harness
import layers
from harness import Checks, median, percentile

#: fresh-interpreter launches per set-up measurement, fastest reported:
#: on the shared 2-core host the median of 15 launches moved 0.32-0.42 s
#: within a minute as neighbours' load came and went, the fastest
#: 0.30-0.33 s.
SETUP_REPEATS = 15
#: fresh CLI runs per cli_schedule_s measurement (median reported).
CLI_REPEATS = 7
#: nominal seconds of one batch round on a 2-core host; a run measures
#: ``seconds / ROUND_SECONDS`` rounds (at least MIN_ROUNDS), so one seed
#: and duration always give the same inputs.
ROUND_SECONDS = {"batch-decision": 2.6, "batch-models": 4.8}
MIN_ROUNDS = 2

BATCHES = {w.name: w for w in (harness.BATCH_DECISION, harness.BATCH_MODELS)}


def rounds_for(batch, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[batch.name]))


def run(workload: str, seed: int, seconds: float, trace: int):
    if workload == "serve-open":
        return serve_traced(seed, seconds) if trace else serve_e2e(seed, seconds)
    batch = BATCHES[workload]
    return batch_traced(batch, seed, seconds) if trace else batch_e2e(batch, seed, seconds)


# -- shared end-to-end pieces -------------------------------------------------


def _setup(front_end: str, metrics: dict, samples: dict) -> None:
    values = harness.setup_seconds(front_end, SETUP_REPEATS)
    metrics["setup_s"] = min(values)
    samples["setup_s"] = len(values)


def _cli(items, checks: Checks, extra: dict) -> None:
    """Time fresh CLI runs on the median-cost answers' instances.

    One run on each of the CLI_REPEATS instances nearest the median
    cost; each must serve the front end's makespan.
    """
    ranked = sorted(
        (r for r in items if r.result is not None),
        key=lambda r: (harness.cost_proxy(r), r.name),
    )
    low = max(0, len(ranked) // 2 - CLI_REPEATS // 2)
    values = []
    for item in ranked[low:low + CLI_REPEATS]:
        request = item.request
        seconds, makespan = harness.cli_schedule(request.instance, request.eps, request.search)
        values.append(seconds)
        if makespan != item.makespan:
            checks.fail(f"{item.name}: CLI makespan {makespan} != front end's {item.makespan}")
    extra["cli_schedule_s"] = f"{median(values):.4f} s (n={len(values)})"
    request = ranked[low].request
    extra["cli_backend"] = harness.cli_backend(request.instance, request.eps, request.search)


def _optimal(items, eps: float, checks: Checks, extra: dict, limit: int) -> None:
    """(1+eps)-vs-OPT on the smallest identical-machine answers."""
    small = sorted(
        (r for r in items if r.result is not None and r.request.instance.model == "identical"),
        key=lambda r: (r.request.instance.n_jobs * r.request.instance.machines, r.name),
    )
    proven = sum(
        checks.optimal(r.request.instance, r.makespan, eps, r.name) for r in small[:limit]
    )
    extra["optimality_checked"] = f"{proven} of {min(limit, len(small))} instances proven"


# -- batch workloads ----------------------------------------------------------


def _warm_up(batch, seed: int) -> Dict[str, int]:
    """Round 0's first few requests, untimed: lazy imports and first
    calls settle.  Returns their makespans, which the measured round 0
    must repeat."""
    res = harness.run_round(batch, batch.instances(seed, 0)[: len(batch.shapes)], "r0")
    return res.makespans()


def _batch_rounds(batch, seed: int, rounds: int, checks: Checks, trace=None):
    """Measure rounds ``0 .. rounds-1``; answers are checked as they come."""
    walls, request_walls, makespans, ratios, latencies = [], [], [], [], []
    counters, search = defaultdict(float), defaultdict(int)
    first = None
    for index in range(rounds):
        res = harness.run_round(batch, batch.instances(seed, index), f"r{index}", trace=trace)
        walls.append(res.wall_s)
        request_walls.extend(r.wall_s for r in res.items)
        latencies.extend(res.latencies_ms())
        makespans.append(res.makespans())
        for item in res.items:
            checks.result(item)
            if item.result is not None:
                ratios.append(harness.over_lower_bound(item))
                search["iterations"] += item.result.iterations
                search["probes"] += len(item.result.probes)
                search["accepted"] += sum(p.accepted for p in item.result.probes)
        for name, value in res.report.tracer.counters.items():
            counters[name] += value
        if index == 0:
            first = res
    return {
        "walls": walls, "request_walls": request_walls, "makespans": makespans,
        "latencies": latencies, "ratios": ratios, "counters": counters,
        "search": search, "first": first,
    }


def batch_e2e(batch, seed: int, seconds: float):
    checks, metrics, samples, extra = Checks(), {}, {}, {}
    _setup("batch", metrics, samples)
    warmup = _warm_up(batch, seed)
    measured = _batch_rounds(batch, seed, rounds_for(batch, seconds), checks)
    checks.same("round 0 rerun", warmup, measured["makespans"][0])
    requests = len(measured["request_walls"])
    # Pooled over the run's batches: a batch's cost swings with its
    # instances, the sum over a run's batches much less.
    metrics["requests_per_s"] = requests / sum(measured["walls"])
    samples["requests_per_s"] = requests
    metrics["refined_p50_ms"] = percentile(measured["latencies"], 50)
    metrics["refined_p90_ms"] = percentile(measured["latencies"], 90)
    samples["refined_p50_ms"] = samples["refined_p90_ms"] = requests
    metrics["makespan_over_lb"] = statistics.fmean(measured["ratios"])
    samples["makespan_over_lb"] = len(measured["ratios"])
    first_items = measured["first"].items
    _optimal(first_items, batch.eps, checks, extra, limit=4)
    _cli(first_items, checks, extra)
    extra["rounds"] = len(measured["walls"])
    extra["failed_pct"] = 100.0 * checks.failed / max(1, checks.attempted)
    extra["makespans_sha256"] = harness.makespan_digest(
        {name: value for round_ in measured["makespans"] for name, value in round_.items()}
    )
    return metrics, samples, checks, extra


def _cache_rates(caches):
    """Summed hit rates (percent), hits and misses per kind over ``caches``."""
    hits, misses = defaultdict(int), defaultdict(int)
    for cache in caches:
        for kind, n in cache.stats.hits.items():
            hits[kind] += n
        for kind, n in cache.stats.misses.items():
            misses[kind] += n
    rate = {
        kind: 100.0 * hits[kind] / (hits[kind] + misses[kind])
        for kind in set(hits) | set(misses)
        if hits[kind] + misses[kind]
    }
    return rate, hits, misses


def _layer_metrics(trace, root: str, counters, extra: dict) -> Dict[str, float]:
    """Per-layer figures common to every workload, per pipeline request."""
    spans = trace.recorder.spans
    totals = layers.span_totals(spans)
    own = layers.self_times(spans)
    runs = [s for s in spans if s.name == "request"]
    requests = max(1, len(runs))
    parts = layers.breakdown(spans, root)
    roots = [s for s in spans if s.name == root]
    root_s = sum(s.seconds for s in roots)
    metrics = {
        "request_ms": root_s * 1e3 / max(1, len(roots)),
        **{f"share.{p}.pct": 100.0 * parts[p] / root_s if root_s else 0.0 for p in layers.PART_NAMES},
    }
    extra["breakdown_sum_check"] = f"{sum(parts.values()):.6f} s of {root_s:.6f} s"
    rates, hits, misses = _cache_rates(trace.caches)
    plan_rates, plan_hits, plan_misses = _cache_rates(trace.plan_caches)
    lookups = [own[s.id] for s in spans if s.name == "lookup"]
    dropped = counters.get("sparsify.dropped", 0.0)
    kept = counters.get("sparsify.kept", 0.0)
    metrics.update({
        "pipeline.run_ms.p50": percentile([s.seconds * 1e3 for s in runs], 50),
        "pipeline.unattributed_ms.p50": percentile([own[s.id] * 1e3 for s in runs], 50),
        "cache.rounding.hit_pct": rates.get("rounding", 0.0),
        "cache.configs.hit_pct": rates.get("configs", 0.0),
        "cache.dp.hit_pct": rates.get("dp", 0.0),
        "cache.warmstart.hit_pct": rates.get("warmstart", 0.0),
        "cache.lookup_ms": statistics.fmean(lookups) * 1e3 if lookups else 0.0,
        "rounding.calls": sum(1 for s in spans if s.name == "rounding") / requests,
        "rounding.ms": totals["rounding"] * 1e3 / requests,
        "configs.enumerations": misses["configs"] / requests,
        "configs.ms": totals["configs"] * 1e3 / requests,
        "sparsify.dropped_pct": 100.0 * dropped / (dropped + kept) if dropped + kept else 0.0,
        "plan.builds": plan_misses["plan"] / requests,
        "plan.hit_pct": plan_rates.get("plan", 0.0),
        "plan.build_ms": counters.get("plan.build_ms", 0.0) / requests,
        "models.assemble_ms": totals["assemble"] * 1e3 / requests,
        "place.extract_ms": totals["place.extract"] * 1e3 / requests,
        "place.long_ms": totals["place.long"] * 1e3 / requests,
        "place.short_ms": totals["place.short"] * 1e3 / requests,
        **layers.fill_metrics(spans, requests),
    })
    return metrics


def _write_spans(trace, workload: str, seed: int) -> str:
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"{workload}-seed{seed}-spans.json"
    path.write_text(json.dumps([s.as_dict() for s in trace.recorder.spans], default=str))
    return str(path.relative_to(harness.ROOT))


_DAEMON_ONLY = (
    "daemon.queue_wait_ms.p50", "daemon.queue_wait_ms.p99", "daemon.coalesced_pct",
    "daemon.refined_p99_ms", "daemon.bound_p50_ms", "daemon.bound_p99_ms", "daemon.slo_met_pct",
    "loadgen.late_ms.p99", "baselines.bound_ms.p50",
)


def batch_traced(batch, seed: int, seconds: float):
    checks, samples, extra = Checks(), {}, {}
    _warm_up(batch, seed)
    rounds = rounds_for(batch, 0.4 * seconds)
    plain = _batch_rounds(batch, seed, rounds, checks)
    trace = layers.LayerTrace()
    with trace.patched():
        traced = _batch_rounds(batch, seed, rounds, checks, trace=trace)
    for index, (a, b) in enumerate(zip(plain["makespans"], traced["makespans"])):
        checks.same(f"round {index} traced vs untraced", a, b)
    metrics = _layer_metrics(trace, "request", traced["counters"], extra)
    search = plain["search"]
    requests = len(plain["request_walls"])
    metrics.update({name: 0.0 for name in _DAEMON_ONLY})
    metrics.update({
        "batch.worker_busy_pct": 100.0 * sum(plain["request_walls"])
        / (harness.THREADS * sum(plain["walls"])),
        "search.iterations_per_request": search["iterations"] / requests,
        "search.probes_per_request": search["probes"] / requests,
        "search.accept_pct": 100.0 * search["accepted"] / max(1, search["probes"]),
        "trace.overhead_pct": 100.0 * (
            sum(traced["request_walls"]) / sum(plain["request_walls"]) - 1.0
        ),
    })
    metrics.update(layers.alt_table(list(trace.fills.values()), checks.errors))
    extra["rounds"] = len(plain["walls"])
    extra["spans"] = _write_spans(trace, batch.name, seed)
    return metrics, samples, checks, extra


# -- serve-open ---------------------------------------------------------------


def _serve_pass(seed: int, seconds: float, checks: Checks, trace=None):
    arrivals = harness.serve_arrivals(seed, seconds)
    sent, service, clean = harness.drive_open_loop(arrivals, trace=trace)
    if not clean:
        checks.fail("service did not drain cleanly")
    answers: Dict[int, object] = {}
    for record in sent:
        item = harness.served(record)
        if item is None:
            checks.attempted += 1
            checks.failed += 1
            continue
        checks.result(item)
        answers[record.index] = item
    for i, arrival in enumerate(arrivals):
        twin = arrival.duplicate_of
        if twin is not None and i in answers and twin in answers:
            if answers[i].makespan != answers[twin].makespan:
                checks.fail(f"r{i}: repeated instance served a different makespan than r{twin}")
    window = [r for r, a in zip(sent, arrivals) if a.at_s >= harness.SERVE_WARMUP_S]
    return arrivals, sent, window, answers, service


def _latency_stats(window, answers) -> Dict[str, List[float]]:
    refined = [(r.done - r.due) * 1e3 for r in window if r.index in answers]
    return {
        "refined": refined,
        "bound": [(r.admitted - r.due) * 1e3 for r in window],
        "late": [(r.sent - r.due) * 1e3 for r in window],
        "slo": [
            1.0 if r.index in answers and (r.done - r.due) * 1e3 <= harness.SLO_MS else 0.0
            for r in window
        ],
    }


def _windowed(window, answers, q: float) -> float:
    """Median over ``SERVE_WINDOWS`` equal runs of the measured requests
    (in due order) of each run's ``q``-th refined-latency percentile."""
    size = -(-len(window) // harness.SERVE_WINDOWS)
    return median([
        percentile([(r.done - r.due) * 1e3 for r in window[i:i + size] if r.index in answers], q)
        for i in range(0, len(window), size)
    ])


def serve_e2e(seed: int, seconds: float):
    checks, metrics, samples, extra = Checks(), {}, {}, {}
    _setup("serve", metrics, samples)
    arrivals, sent, window, answers, _ = _serve_pass(seed, seconds, checks)
    stats = _latency_stats(window, answers)
    if percentile(stats["late"], 50) > harness.MAX_LATE_P50_MS:
        checks.fail(
            f"invalid run: the load generator fell behind "
            f"(late p50 {percentile(stats['late'], 50):.1f} ms)"
        )
    done = [r.done for r in window if r.index in answers]
    # Answers over elapsed time is the offered rate until the service
    # saturates, so it would not move when the pipeline slows.  Answers
    # per second of worker busy time (pipeline runs, coalesced answers
    # aside) is what the workers can serve, and it does.
    runs = [answers[r.index].wall_s for r in window if not r.coalesced and r.index in answers]
    metrics["requests_per_s"] = len(runs) * harness.THREADS / sum(runs)
    samples["requests_per_s"] = len(runs)
    metrics["refined_p50_ms"] = _windowed(window, answers, 50)
    metrics["refined_p90_ms"] = _windowed(window, answers, 90)
    ratios = [harness.over_lower_bound(a) for a in answers.values()]
    metrics["makespan_over_lb"] = statistics.fmean(ratios)
    for name in ("refined_p50_ms", "refined_p90_ms"):
        samples[name] = len(done)
    samples["makespan_over_lb"] = len(ratios)
    extra.update({
        "refined_p99_ms": round(percentile(stats["refined"], 99), 4),
        "bound_p50_ms": round(percentile(stats["bound"], 50), 4),
        "bound_p99_ms": round(percentile(stats["bound"], 99), 4),
        "slo_met_pct": round(100.0 * statistics.fmean(stats["slo"]), 3),
        "loadgen_late_p99_ms": round(percentile(stats["late"], 99), 4),
        "failed_pct": 100.0 * checks.failed / max(1, checks.attempted),
        "coalesced_pct": 100.0 * sum(r.coalesced for r in window) / len(window),
        "sent": len(sent),
        "makespans_sha256": harness.makespan_digest({f"r{i}": a.makespan for i, a in answers.items()}),
    })
    fresh = [answers[i] for i, a in enumerate(arrivals) if a.duplicate_of is None and i in answers]
    _optimal(fresh, harness.SERVE_EPS, checks, extra, limit=3)
    _cli(fresh, checks, extra)
    return metrics, samples, checks, extra


def serve_traced(seed: int, seconds: float):
    checks, samples, extra = Checks(), {}, {}
    _, _, plain_window, plain_answers, _ = _serve_pass(seed, 0.45 * seconds, checks)
    trace = layers.LayerTrace()
    with trace.patched():
        _, sent, window, answers, service = _serve_pass(seed, 0.45 * seconds, checks, trace=trace)
    checks.same(
        "traced vs untraced",
        {f"r{i}": a.makespan for i, a in plain_answers.items()},
        {f"r{i}": a.makespan for i, a in answers.items()},
    )
    recorder = trace.recorder
    runs = {s.request: s for s in recorder.spans if s.name == "request"}
    admissions = {s.request: s for s in recorder.spans if s.name == "admission"}
    queue_waits = []
    for record in window:
        run = runs.get(record.name)
        if record.coalesced or run is None or record.index not in answers:
            continue
        root = recorder.add("serve.request", record.due, record.done, request=record.name)
        recorder.add("late", record.due, record.sent, parent=root.id, request=record.name)
        admissions[record.name].parent = root.id
        recorder.add("queue", record.admitted, run.start, parent=root.id, request=record.name)
        run.parent = root.id
        recorder.add("delivery", run.end, record.done, parent=root.id, request=record.name)
        queue_waits.append((root.seconds - run.seconds) * 1e3)
    metrics = _layer_metrics(trace, "serve.request", service.tracer.counters, extra)
    stats = _latency_stats(plain_window, plain_answers)
    results = [
        answers[r.index].result for r in sent
        if not r.coalesced and r.index in answers and answers[r.index].result is not None
    ]
    primary = [
        answers[r.index] for r in window if not r.coalesced and r.index in answers
    ]
    probes = sum(len(r.probes) for r in results)
    bounds = [s.seconds * 1e3 for s in recorder.spans if s.name == "bound"]
    plain_runs = [
        plain_answers[r.index].wall_s for r in plain_window
        if not r.coalesced and r.index in plain_answers
    ]
    metrics.update({
        "daemon.queue_wait_ms.p50": percentile(queue_waits, 50),
        "daemon.queue_wait_ms.p99": percentile(queue_waits, 99),
        "daemon.coalesced_pct": 100.0 * sum(r.coalesced for r in window) / len(window),
        "daemon.refined_p99_ms": percentile(stats["refined"], 99),
        "daemon.bound_p50_ms": percentile(stats["bound"], 50),
        "daemon.bound_p99_ms": percentile(stats["bound"], 99),
        "daemon.slo_met_pct": 100.0 * statistics.fmean(stats["slo"]),
        "loadgen.late_ms.p99": percentile(stats["late"], 99),
        "baselines.bound_ms.p50": percentile(bounds, 50),
        "batch.worker_busy_pct": 0.0,
        "search.iterations_per_request": statistics.fmean(r.iterations for r in results),
        "search.probes_per_request": probes / len(results),
        "search.accept_pct": 100.0 * sum(p.accepted for r in results for p in r.probes) / probes,
        "trace.overhead_pct": 100.0 * (
            statistics.fmean(a.wall_s for a in primary) / statistics.fmean(plain_runs) - 1.0
        ),
    })
    samples["daemon.queue_wait_ms.p50"] = samples["daemon.queue_wait_ms.p99"] = len(queue_waits)
    metrics.update(layers.alt_table(list(trace.fills.values()), checks.errors))
    extra["spans"] = _write_spans(trace, "serve-open", seed)
    return metrics, samples, checks, extra
