"""repro.backends — the DP solver backends behind one registry.

Importing this package registers the default backends; see
:mod:`repro.backends.registry` for the mechanism and
``docs/API.md`` ("Architecture") for how the layers fit together.

Pure solvers (``simulated=False`` — real wall-clock work, no modelled
hardware):

* ``"vectorized"`` — :func:`~repro.core.dp_vectorized.dp_vectorized`,
  the exact relaxation fill over the maximal configurations (its
  ``machines=`` clamp is what ``auto`` runs for budget-bound probes).
* ``"auto"`` — :class:`~repro.core.kernels.AutoKernel`, cost-model
  kernel selection per probe (the recommended production default;
  used by :class:`~repro.service.batch.BatchScheduler`).
* ``"sweep"`` — :class:`~repro.core.kernels.SweepKernel`, the
  plan-driven single-sweep fill (one pass per anti-diagonal level).
* ``"reference"`` — :func:`~repro.core.dp_reference.dp_reference`,
  the slow, obviously-correct oracle.
* ``"fallback"`` — :class:`~repro.resilience.FallbackChain` over
  ``auto → sweep → vectorized``: steps down to the next member when one
  fails hard (OOM, backend bug); any ``fallback:<a>,<b>,...`` resolves
  a custom chain.  See ``docs/RELIABILITY.md``.

Simulator engines (``simulated=True`` — compute the same DP values
while charging time to a modelled device):

* ``"serial"`` — one CPU core (Algorithm 1+2).
* ``"omp-16"`` / ``"omp-28"`` (aliases ``"openmp-16"``/``"openmp-28"``)
  — the Ghalami–Grosu OpenMP baseline; any ``omp-<threads>`` resolves.
* ``"gpu-naive"`` — the unpartitioned GPU port (§III's strawman).
* ``"gpu-dim3"`` / ``"gpu-dim6"`` / ``"gpu-dim9"`` — the paper's
  data-partitioned engine; any ``gpu-dim<d>`` resolves.
* ``"hybrid"`` — per-probe CPU/GPU dispatch by predicted cost.

Typical use::

    from repro.backends import resolve

    solver = resolve("gpu-dim6")            # fresh engine instance
    result = ptas_schedule(inst, dp_solver=solver, search="quarter")
    solver.total_simulated_s                # simulated device seconds
"""

from repro.backends.registry import (
    BackendSpec,
    backend_names,
    get_spec,
    is_registered,
    iter_backends,
    register,
    register_family,
    resolve,
)
from repro.core.dp_reference import dp_reference
from repro.core.dp_vectorized import dp_vectorized
from repro.core.kernels import AutoKernel, SweepKernel
from repro.engines.gpu_naive import GpuNaiveEngine
from repro.engines.gpu_partitioned import GpuPartitionedEngine
from repro.engines.hybrid import HybridEngine
from repro.engines.openmp_engine import OpenMPEngine
from repro.engines.sequential import SequentialEngine

__all__ = [
    "BackendSpec",
    "backend_names",
    "get_spec",
    "is_registered",
    "iter_backends",
    "register",
    "register_family",
    "resolve",
]


def _solver_factory(fn):
    """Wrap a pure solver function as a zero-argument factory."""

    def factory() -> object:
        return fn

    return factory


def _register_defaults() -> None:
    register(
        BackendSpec(
            name="vectorized",
            factory=_solver_factory(dp_vectorized),
            simulated=False,
            concurrency="none",
            description="vectorized numpy DP fill over the maximal configurations (production default)",
            aliases=("dp-vectorized",),
        )
    )
    register(
        BackendSpec(
            name="reference",
            factory=_solver_factory(dp_reference),
            simulated=False,
            concurrency="none",
            description="reference DP oracle (slow, obviously correct)",
            aliases=("dp-reference",),
        )
    )
    register(
        BackendSpec(
            name="sweep",
            factory=SweepKernel,
            simulated=False,
            concurrency="none",
            description="plan-driven single-sweep DP (one pass per anti-diagonal level)",
            aliases=("levelsweep", "dp-sweep"),
            plan_aware=True,
        )
    )
    register(
        BackendSpec(
            name="auto",
            factory=AutoKernel,
            simulated=False,
            concurrency="none",
            description=(
                "cost-model kernel selection per probe "
                "(decision/sweep/vectorized)"
            ),
            aliases=("kernel-auto",),
            plan_aware=True,
        )
    )
    register(
        BackendSpec(
            name="serial",
            factory=SequentialEngine,
            simulated=True,
            concurrency="none",
            description="serial PTAS on one simulated CPU core",
            plan_aware=True,
        )
    )
    for threads in (16, 28):
        register(
            BackendSpec(
                name=f"omp-{threads}",
                factory=lambda threads=threads, **kw: OpenMPEngine(
                    threads=threads, **kw
                ),
                simulated=True,
                concurrency="host-threads",
                description=f"OpenMP baseline on {threads} simulated threads",
                aliases=(f"openmp-{threads}",),
                plan_aware=True,
            )
        )
    register(
        BackendSpec(
            name="gpu-naive",
            factory=GpuNaiveEngine,
            simulated=True,
            concurrency="device-streams",
            description="unpartitioned GPU port (the ~100x-slower strawman)",
            plan_aware=True,
        )
    )
    for dim in (3, 6, 9):
        register(
            BackendSpec(
                name=f"gpu-dim{dim}",
                factory=lambda dim=dim, **kw: GpuPartitionedEngine(dim=dim, **kw),
                simulated=True,
                concurrency="device-streams",
                description=f"data-partitioned GPU engine, {dim} partitioned dims",
                plan_aware=True,
            )
        )
    register(
        BackendSpec(
            name="hybrid",
            factory=HybridEngine,
            simulated=True,
            concurrency="host-threads",
            description="per-probe CPU/GPU dispatch by predicted cost",
            plan_aware=True,
        )
    )
    def _fallback_factory(members):
        def factory(**kw):
            # Imported lazily: repro.resilience.fallback resolves its
            # members through this package, so a top-level import of
            # either module from the other would be circular.
            from repro.resilience.fallback import FallbackChain

            return FallbackChain(members, **kw)

        return factory

    register(
        BackendSpec(
            name="fallback",
            factory=_fallback_factory(("auto", "sweep", "vectorized")),
            simulated=False,
            concurrency="none",
            description=(
                "resilient chain auto→sweep→vectorized: steps down to a "
                "cheaper solver on hard failure"
            ),
            plan_aware=True,
        )
    )
    def _fallback_spec(m):
        members = tuple(m.group(1).split(","))
        for name in members:
            get_spec(name)  # an unknown member is an unknown backend
        return BackendSpec(
            name=f"fallback:{m.group(1)}",
            factory=_fallback_factory(members),
            simulated=False,
            concurrency="none",
            description=f"resilient chain {'→'.join(members)}",
            plan_aware=True,
        )

    register_family(r"fallback:(.+)", _fallback_spec)
    register_family(
        r"(?:omp|openmp)-(\d+)",
        lambda m: BackendSpec(
            name=f"omp-{int(m.group(1))}",
            factory=lambda threads=int(m.group(1)), **kw: OpenMPEngine(
                threads=threads, **kw
            ),
            simulated=True,
            concurrency="host-threads",
            description=f"OpenMP baseline on {int(m.group(1))} simulated threads",
            plan_aware=True,
        ),
    )
    register_family(
        r"gpu-dim(\d+)",
        lambda m: BackendSpec(
            name=f"gpu-dim{int(m.group(1))}",
            factory=lambda dim=int(m.group(1)), **kw: GpuPartitionedEngine(
                dim=dim, **kw
            ),
            simulated=True,
            concurrency="device-streams",
            description=f"data-partitioned GPU engine, {int(m.group(1))} partitioned dims",
            plan_aware=True,
        ),
    )
    register_family(
        r"hybrid-omp(\d+)-dim(\d+)",
        lambda m: BackendSpec(
            name=f"hybrid-omp{int(m.group(1))}-dim{int(m.group(2))}",
            factory=lambda threads=int(m.group(1)), dim=int(m.group(2)), **kw: (
                HybridEngine(threads=threads, dim=dim, **kw)
            ),
            simulated=True,
            concurrency="host-threads",
            description="per-probe CPU/GPU dispatch by predicted cost",
            plan_aware=True,
        ),
    )


_register_defaults()
