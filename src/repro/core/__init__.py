"""The paper's primary contribution: the PTAS for ``P || Cmax``.

Public surface re-exported here:

* :class:`~repro.core.instance.Instance` — a scheduling problem.
* :class:`~repro.core.schedule.Schedule` — a machine assignment with
  makespan and feasibility checking.
* :func:`~repro.core.ptas.ptas_schedule` — the Hochbaum–Shmoys PTAS
  (Algorithm 1), parameterised by DP engine and bisection strategy.
* :func:`~repro.core.quarter_split.quarter_split_search` — the paper's
  four-segment bisection (Algorithm 3).
* :func:`~repro.core.dp_vectorized.dp_vectorized` — the DP fill
  (Equation 1): exact, or clamped at ``m + 1`` with ``machines=m`` for
  the decision predicate; :func:`~repro.core.dp_reference.dp_reference`
  is its oracle and :class:`~repro.core.kernels.AutoKernel` the
  per-probe router.
* Baselines: :func:`~repro.core.baselines.lpt.lpt_schedule`,
  :func:`~repro.core.baselines.listsched.list_schedule`,
  :func:`~repro.core.baselines.multifit.multifit_schedule`,
  :func:`~repro.core.baselines.exact.branch_and_bound_optimal`.
"""

from repro.core.instance import Instance, uniform_instance
from repro.core.schedule import Schedule
from repro.core.bounds import makespan_bounds
from repro.core.rounding import RoundedInstance, round_instance
from repro.core.configs import enumerate_configurations
from repro.core.dp_reference import dp_reference
from repro.core.dp_vectorized import dp_vectorized
from repro.core.improve import improve_schedule
from repro.core.probe_cache import CacheStats, NullProbeCache, ProbeCache
from repro.core.ptas import PtasResult, ptas_schedule
from repro.core.bisection import bisection_search
from repro.core.quarter_split import quarter_split_search
from repro.core.executor import (
    ConcurrentDeviceExecutor,
    ProbeExecutor,
    SequentialExecutor,
)
from repro.core.kernels import (
    AutoKernel,
    SweepKernel,
    choose_kernel,
    dp_levelsweep,
)

__all__ = [
    "Instance",
    "uniform_instance",
    "Schedule",
    "makespan_bounds",
    "RoundedInstance",
    "round_instance",
    "enumerate_configurations",
    "dp_reference",
    "dp_vectorized",
    "improve_schedule",
    "ProbeCache",
    "NullProbeCache",
    "CacheStats",
    "PtasResult",
    "ptas_schedule",
    "bisection_search",
    "quarter_split_search",
    "ProbeExecutor",
    "SequentialExecutor",
    "ConcurrentDeviceExecutor",
    "AutoKernel",
    "SweepKernel",
    "choose_kernel",
    "dp_levelsweep",
]
