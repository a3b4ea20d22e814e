"""Request paths answer alike and stay in-process: no fabric, no ``/dev/shm``.

Every front end — the library, the registry, the batch scheduler, the
daemon and CLI ``schedule`` — answers through the same request
pipeline, so one instance gets the same makespan and machine loads from
each.  The process-parallel fill fabric (:mod:`repro.parallel`) is a
library layer no request path imports, so neither it nor
``multiprocessing``'s shared memory module may be loaded by importing
the front ends or serving a default request.  The check runs in a
fresh interpreter because other tests in the same pytest run import
the fabric.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = r"""
import asyncio
import contextlib
import io
import json
import sys

import repro
import repro.backends
import repro.cli
import repro.service
import repro.service.daemon
from repro import Instance
from repro.service import BatchScheduler
from repro.service.daemon import SchedulingService

inst = Instance(times=(23, 19, 17, 13, 11, 7, 5, 3, 2), machines=3)
report = BatchScheduler(workers=2).run([inst])
assert report.degraded_count == 0, report.as_dict()


async def serve():
    async with SchedulingService(workers=2) as service:
        handle = await service.submit(inst)
        return await handle.result()


answer = asyncio.run(serve())
batch = report.results[0].result.schedule
assert answer.makespan == batch.makespan
assert answer.schedule.loads().tolist() == batch.loads().tolist()

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(
        ["schedule", "--machines", "3", "--times", *map(str, inst.times)]
    )
assert code == 0, out.getvalue()
lines = out.getvalue().splitlines()
assert f"makespan {batch.makespan} " in lines[1], lines
assert lines[2] == f"loads: {batch.loads().tolist()}", lines
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "repro.parallel"
    or name.startswith("repro.parallel.")
    or name == "multiprocessing.shared_memory"
)))
"""


def test_default_requests_load_no_process_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [], loaded
