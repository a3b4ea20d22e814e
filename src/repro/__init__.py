"""repro — GPU-style parallel PTAS for ``P || Cmax``.

A faithful, executable reproduction of *"A GPU Parallel Approximation
Algorithm for Scheduling Parallel Identical Machines to Minimize
Makespan"* (Li, Ghalami, Schwiebert, Grosu — IPDPS Workshops 2018):

* the Hochbaum–Shmoys PTAS with plain bisection and the paper's
  quarter-split search (:mod:`repro.core`);
* the high-dimensional DP-table machinery, anti-diagonal wavefronts,
  and the data-partitioning scheme with its blocked memory layout
  (:mod:`repro.dptable`);
* discrete-event GPU and OpenMP-style CPU simulators standing in for
  the paper's K40 / dual-Xeon testbeds (:mod:`repro.gpusim`,
  :mod:`repro.cpusim`) and the four execution engines mapped onto them
  (:mod:`repro.engines`);
* real multi-process execution of the wavefront DP
  (:mod:`repro.parallel`, a library layer no request path uses);
* a cross-probe solver cache (:mod:`repro.core.probe_cache`) and the
  observability layer that motivated it — per-phase timers, counters,
  per-probe trace events (:mod:`repro.observability`);
* a backend registry resolving every solver and engine by name
  (:mod:`repro.backends`), the probe-executor layer that owns
  sequential vs concurrent-device time accounting
  (:mod:`repro.core.executor`), and a batch scheduling service fanning
  many instances across a thread pool with one shared cache
  (:mod:`repro.service`);
* the full evaluation harness regenerating every figure and table
  (:mod:`repro.analysis`).

Quickstart::

    from repro import Instance, ptas_schedule

    inst = Instance(times=(27, 19, 19, 15, 12, 8, 8, 5), machines=3)
    result = ptas_schedule(inst, eps=0.3)
    print(result.makespan, result.schedule.loads())
"""

from repro.core import (
    ConcurrentDeviceExecutor,
    Instance,
    ProbeCache,
    PtasResult,
    Schedule,
    SequentialExecutor,
    bisection_search,
    dp_reference,
    dp_vectorized,
    makespan_bounds,
    ptas_schedule,
    quarter_split_search,
    round_instance,
    uniform_instance,
)
from repro.errors import ReproError
from repro.observability import TraceRecorder, Tracer

__version__ = "1.0.0"

__all__ = [
    "Instance",
    "Schedule",
    "PtasResult",
    "ptas_schedule",
    "bisection_search",
    "quarter_split_search",
    "dp_reference",
    "dp_vectorized",
    "makespan_bounds",
    "round_instance",
    "uniform_instance",
    "ProbeCache",
    "SequentialExecutor",
    "ConcurrentDeviceExecutor",
    "Tracer",
    "TraceRecorder",
    "ReproError",
    "__version__",
]
