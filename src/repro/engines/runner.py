"""PTAS-level orchestration on the simulated hardware (Table VII).

One generic driver, :func:`run_ptas`, combines three registry/executor
building blocks:

1. resolve the backend (a name like ``"omp-28"`` / ``"gpu-dim6"`` via
   :mod:`repro.backends`, or an already-constructed engine);
2. pick a :class:`~repro.core.executor.ProbeExecutor` from the
   backend's concurrency capability — host backends charge each search
   round as the **sum** of its probe times
   (:class:`~repro.core.executor.SequentialExecutor`), device backends
   as the **work/span bound** ``max(span, work / warp_slots)``
   (:class:`~repro.core.executor.ConcurrentDeviceExecutor` — the four
   Hyper-Q process queues of the paper, four streams each);
3. run the *shared* search implementation from :mod:`repro.core`
   (bisection or quarter split) with that executor.

The named wrappers (:func:`run_ptas_openmp`, :func:`run_ptas_serial`,
:func:`run_ptas_gpu`) are exactly that — a registry lookup plus an
executor choice.  None of them owns a search loop anymore: the GPU
runner's former private copy of the quarter split (a divergence bug
waiting to happen) is gone, and every backend gains correct concurrent
accounting on either search for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.backends import resolve
from repro.core.executor import (
    ConcurrentDeviceExecutor,
    ProbeExecutor,
    SequentialExecutor,
    default_executor,
)
from repro.core.instance import Instance
from repro.core.probe_cache import ProbeCache
from repro.core.ptas import DPSolver, PtasResult, ptas_schedule
from repro.engines.gpu_partitioned import GpuPartitionedEngine


@dataclass(frozen=True)
class PtasRun:
    """One PTAS execution on simulated hardware.

    ``iterations`` counts search rounds (one probe per round for
    bisection, up to four concurrent probes for the quarter split);
    ``simulated_s`` is the modelled wall time on the device/host as
    charged by the executor; ``dp_table_sizes`` lists the sizes of
    every DP-table filled.
    """

    engine: str
    result: PtasResult
    simulated_s: float
    dp_table_sizes: tuple[int, ...]

    @property
    def iterations(self) -> int:
        """Search iterations ("#itr" of Table VII)."""
        return self.result.iterations

    @property
    def makespan(self) -> int:
        """Final schedule makespan."""
        return self.result.makespan


def run_ptas(
    instance: Instance,
    backend: Union[str, DPSolver] = "vectorized",
    search: str = "bisection",
    eps: float = 0.3,
    cache: Optional[ProbeCache] = None,
    executor: Optional[ProbeExecutor] = None,
) -> PtasRun:
    """Run the PTAS on any backend with capability-matched accounting.

    ``backend`` is a registry name (``"serial"``, ``"omp-28"``,
    ``"gpu-dim6"``, ``"vectorized"``, ...) or a constructed solver.
    ``executor`` defaults from the backend's capabilities: device
    engines get a :class:`ConcurrentDeviceExecutor` sized to their
    ``spec.warp_slots``, everything else a :class:`SequentialExecutor`.

    Leave ``cache=None`` when faithful per-probe simulated-time
    accounting matters: the engine then fills — and charges — every
    probe, as the paper's cacheless implementation did.  A
    ``ProbeCache()`` serves repeated fills from its DP-table memo and
    skips the engine on them, which understates ``simulated_s``.
    """
    solver = resolve(backend) if isinstance(backend, str) else backend
    if executor is None:
        executor = default_executor(solver)
    result = ptas_schedule(
        instance,
        eps=eps,
        dp_solver=solver,
        search=search,
        cache=cache,
        executor=executor,
    )
    runs = getattr(solver, "runs", None)
    if runs is not None:
        table_sizes = tuple(r.table_size for r in runs)
    else:
        table_sizes = tuple(p.rounded.table_size for p in result.probes)
    label = getattr(solver, "name", None) or (
        backend if isinstance(backend, str) else type(solver).__name__
    )
    return PtasRun(
        engine=label,
        result=result,
        simulated_s=executor.elapsed_s,
        dp_table_sizes=table_sizes,
    )


def run_ptas_openmp(
    instance: Instance,
    eps: float = 0.3,
    threads: int = 28,
    engine: Optional[DPSolver] = None,
    cache: Optional[ProbeCache] = None,
) -> PtasRun:
    """Algorithm 1 with plain bisection on the OpenMP cost model.

    Thin wrapper: registry lookup (``omp-<threads>``) + sequential
    executor; see :func:`run_ptas` for the ``cache`` accounting caveat.
    """
    solver = engine if engine is not None else resolve(f"omp-{threads}")
    return run_ptas(
        instance,
        backend=solver,
        search="bisection",
        eps=eps,
        cache=cache,
        executor=SequentialExecutor(),
    )


def run_ptas_serial(
    instance: Instance,
    eps: float = 0.3,
    engine: Optional[DPSolver] = None,
    cache: Optional[ProbeCache] = None,
) -> PtasRun:
    """Algorithm 1 with plain bisection on a single simulated core.

    Thin wrapper: registry lookup (``serial``) + sequential executor.
    """
    solver = engine if engine is not None else resolve("serial")
    return run_ptas(
        instance,
        backend=solver,
        search="bisection",
        eps=eps,
        cache=cache,
        executor=SequentialExecutor(),
    )


def run_ptas_gpu(
    instance: Instance,
    eps: float = 0.3,
    dim: int = 6,
    segments: int = 4,
    streams_per_segment: int = 4,
    engine: Optional[GpuPartitionedEngine] = None,
    cache: Optional[ProbeCache] = None,
) -> PtasRun:
    """Algorithm 3 (quarter split) on the partitioned GPU engine.

    Thin wrapper: registry lookup (``gpu-dim<dim>``) + concurrent
    device executor, so each iteration's segment probes are charged as
    concurrent device work; the search loop itself is the one shared
    :func:`~repro.core.quarter_split.quarter_split_search` (so the
    returned makespan is identical to the plain search —
    property-tested).

    One ``cache`` serves all four concurrent segment probes of an
    iteration; see :func:`run_ptas` for the accounting caveat (leave
    ``cache=None`` to keep Table VII-faithful simulated times).
    """
    from repro.core.quarter_split import quarter_split_search

    if engine is None:
        engine = resolve(f"gpu-dim{dim}", num_streams=streams_per_segment)
    executor = ConcurrentDeviceExecutor.for_engine(engine)
    result = quarter_split_search(
        instance,
        eps,
        dp_solver=engine,
        segments=segments,
        cache=cache,
        executor=executor,
    )
    return PtasRun(
        engine=engine.name,
        result=result,
        simulated_s=executor.elapsed_s,
        dp_table_sizes=tuple(r.table_size for r in engine.runs),
    )
