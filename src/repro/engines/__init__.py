"""Execution engines: the paper's implementations on the simulated hardware.

Each engine *actually computes* the DP-table — in its own schedule order
via the shared group-fill kernel (:mod:`repro.engines.base`), so all
engines provably produce identical values — while simultaneously
charging simulated time to its hardware model:

* :class:`~repro.engines.sequential.SequentialEngine` — serial PTAS
  (Algorithm 1+2 on one core).
* :class:`~repro.engines.openmp_engine.OpenMPEngine` — the Ghalami–Grosu
  OpenMP baseline [1]: one ``parallel for`` per anti-diagonal level,
  whole-table sub-configuration search.
* :class:`~repro.engines.gpu_naive.GpuNaiveEngine` — the straight GPU
  port §III calls "about a hundred times slower": one kernel per level,
  strided whole-table searches, no partitioning.
* :class:`~repro.engines.gpu_partitioned.GpuPartitionedEngine` — the
  paper's contribution (Algorithms 4+5): data-partitioned blocks over
  four streams with two-level parallelism.
"""

from repro.engines.base import EngineRun, fill_by_groups
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS
from repro.engines.sequential import SequentialEngine
from repro.engines.openmp_engine import OpenMPEngine
from repro.engines.gpu_naive import GpuNaiveEngine
from repro.engines.gpu_partitioned import GpuPartitionedEngine
from repro.engines.hybrid import HybridEngine

__all__ = [
    "EngineRun",
    "fill_by_groups",
    "CostConstants",
    "DEFAULT_COSTS",
    "SequentialEngine",
    "OpenMPEngine",
    "GpuNaiveEngine",
    "GpuPartitionedEngine",
    "HybridEngine",
]
