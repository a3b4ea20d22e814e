#!/usr/bin/env python3
"""The layered benchmark: end-to-end and per-layer metrics in one command.

Run from the repository root::

    python3 perfbench/run.py --workload batch-decision --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same inputs untraced and traced, reports the
per-layer metrics, and writes every span to ``perfbench/out/``.  The
metric names, units and directions live in ``BENCHMARK.json``; what
each one means, and which end-to-end metric each layer metric should
move, is in ``perfbench/README.md``.  Every answer is checked; the last
line of standard output is one JSON object, and the exit code is 1 when
any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("batch-decision", "batch-models", "serve-open")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts(seed: int, workload: str) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def emit(spec: dict, metrics: dict, samples: dict, checks, facts: dict, trace: int, extra: dict, out: Path) -> int:
    """Print the human table and the final JSON line; return the exit code."""
    kind = "per_layer" if trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[kind]]
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    for key, value in facts.items():
        print(f"# {key}: {value}")
    print(f"# {kind} metrics:")
    for name, unit in names:
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}{suffix}")
    for label, value in extra.items():
        print(f"  {label:34s} {value}")
    print(f"# requests attempted {checks.attempted}, failed {checks.failed}")
    for error in checks.errors:
        print(f"# CHECK FAILED: {error}")
    correct = not checks.errors
    out.mkdir(exist_ok=True)
    summary = out / f"{facts['workload']}-seed{facts['seed']}-trace{trace}.json"
    summary.write_text(json.dumps({
        "facts": facts, "metrics": metrics, "samples": samples,
        "extra": extra, "errors": checks.errors,
    }, indent=1, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in names
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one summary line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{workload}/{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a repository checkout (no {SRC}/repro)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    spec = json.loads(SPEC.read_text())
    facts = machine_facts(args.seed, args.workload)
    facts["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    facts["seconds"] = args.seconds
    started = time.perf_counter()
    metrics, samples, checks, extra = workloads.run(args.workload, args.seed, args.seconds, args.trace)
    facts["run_wall_s"] = round(time.perf_counter() - started, 3)
    return emit(spec, metrics, samples, checks, facts, args.trace, extra, harness.OUT)


if __name__ == "__main__":
    sys.exit(main())
