"""The ``auto`` backend: pick a DP kernel per probe from a cost model.

Three production kernels cover three regimes:

* **decision** (:func:`~repro.core.dp_vectorized.dp_vectorized` with
  ``machines=m``) — when the machine budget is known, clamping at
  ``m + 1`` bounds the relaxation rounds by ``min(OPT*, m + 1)`` and
  stops rejected probes the moment nothing under the clamp moves.  The
  win grows with the gap between ``OPT(N)`` and ``m``.
* **sweep** (:func:`~repro.core.kernels.sweep.dp_levelsweep`) — one
  gather pass per cell regardless of ``OPT``, allocating per-level
  temporaries only.  Measured head-to-head its indexed gathers lose
  to the relaxation's contiguous slices at every practical scale
  (the in-place relaxation converges in a handful of rounds no
  matter how deep the table — updates propagate *within* a round),
  so the cost model reserves it for the one regime the relaxation
  cannot enter: fills whose table-plus-scratch footprint exceeds the
  memory budget.
* **vectorized** (the same fill, unclamped) — contiguous slice
  arithmetic; the default whenever no budget is bound, and unbeatable
  on small tables where fixed overheads rule.

A fourth route opens only when a caller builds the kernel with a fill
fabric (:class:`~repro.parallel.fabric.BlockExecutor`); no registered
backend or service front end does:

* **hostpar** — the anti-diagonal wavefront executed process-parallel
  over a shared narrow-dtype table, for large exact fills.  It is a
  library-only route kept for the layered benchmark's fabric column:
  measured on a 2-core host it is at least 5x slower than the fastest
  single-core kernel at every table size (``docs/PERFORMANCE.md``).
  With a machine budget bound the decision route keeps it closed.

:func:`choose_kernel` predicts the regime from quantities that are
free before any fill: the table size ``sigma``, ``|C|``, the machine
budget, and the load-based lower bound
``est_opt = ceil(sum(counts * sizes) / T)`` on the relaxation's round
count.  :class:`AutoKernel` packages the choice as a
:class:`~repro.core.ptas.DPSolver` — it is what ``resolve("auto")``
returns, the :class:`~repro.service.batch.BatchScheduler` default,
and ``--backend auto`` on the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.configs import enumerate_configurations
from repro.core.dp_common import (
    DPResult,
    empty_dp_result,
    pick_table_dtype,
    relaxation_scratch_bytes,
)
from repro.core.dp_vectorized import dp_vectorized
from repro.core.kernels.sweep import dp_levelsweep
from repro.errors import DPError
from repro.observability import context as obs

#: Below this many cells the relaxation's slice kernels dominate any
#: scheduling cleverness — fixed overheads rule, vectorized wins.
SMALL_TABLE_CELLS = 4096

#: Minimum gather-work (``sigma * (|C| + 1)`` elements) before the fill
#: fabric's per-wave dispatch overhead amortises: below it, the
#: single-core relaxation finishes before a pool round-trip completes.
HOSTPAR_MIN_WORK = 2_000_000


@dataclass(frozen=True)
class KernelChoice:
    """One probe's kernel decision, with the evidence that made it."""

    #: ``"decision"`` / ``"sweep"`` / ``"vectorized"`` / ``"hostpar"``.
    kernel: str
    #: narrow table dtype the chosen fill will use.
    dtype: np.dtype
    #: load-based lower bound on the relaxation round count.
    est_rounds: int
    #: one-phrase rationale (surfaced in traces and benchmarks).
    reason: str


def estimate_rounds(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    machines: Optional[int] = None,
) -> int:
    """Expected relaxation rounds: ``~OPT(N)``, bounded by the clamp.

    ``ceil(total_long_load / T)`` lower-bounds ``OPT(N)`` (each machine
    holds at most ``T`` of load), which in turn lower-bounds the
    rounds the relaxation needs; a known machine budget caps it at
    ``m + 2`` because the decision clamp would stop there anyway.
    """
    load = sum(int(c) * int(s) for c, s in zip(counts, class_sizes))
    est = max(1, -(-load // max(1, int(target))))  # ceil div
    est = min(est, sum(int(c) for c in counts) + 1)
    if machines is not None:
        est = min(est, int(machines) + 2)
    return int(est)


def choose_kernel(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    num_configs: int,
    machines: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    fill_workers: Optional[int] = None,
) -> KernelChoice:
    """Pick the kernel for one probe — pure arithmetic, no table work.

    ``memory_budget_bytes`` bounds the *transient* fill footprint
    (table + scratch); when the relaxation's two full-size buffers
    would blow it, the sweep — which allocates per-level temporaries
    only — is preferred.

    ``fill_workers`` (> 1) advertises an available fill fabric: exact
    fills whose gather-work ``sigma * (|C| + 1)`` reaches
    :data:`HOSTPAR_MIN_WORK` route to the process-parallel wavefront.
    Budget-bound probes never do — the decision clamp's early rejects
    beat any parallel full fill.
    """
    counts = tuple(int(c) for c in counts)
    sigma = 1
    for c in counts:
        sigma *= c + 1
    n_long = sum(counts)
    est = estimate_rounds(counts, class_sizes, target, machines=machines)
    dtype = pick_table_dtype(
        (int(machines) + 1) if machines is not None else n_long
    )

    if sigma <= SMALL_TABLE_CELLS:
        return KernelChoice(
            kernel="vectorized",
            dtype=pick_table_dtype(n_long),
            est_rounds=est,
            reason=f"small table (sigma={sigma})",
        )
    if memory_budget_bytes is not None and relaxation_scratch_bytes(
        sigma, dtype
    ) > int(memory_budget_bytes):
        obs.count("kernel.auto.over_budget")
        return KernelChoice(
            kernel="sweep",
            dtype=pick_table_dtype(n_long),
            est_rounds=est,
            reason="relaxation scratch exceeds the memory budget",
        )
    if machines is not None:
        return KernelChoice(
            kernel="decision",
            dtype=dtype,
            est_rounds=est,
            reason=f"budget known (clamp at {int(machines) + 1})",
        )
    gather_work = sigma * (int(num_configs) + 1)
    if fill_workers is not None and fill_workers > 1 and gather_work >= HOSTPAR_MIN_WORK:
        return KernelChoice(
            kernel="hostpar",
            dtype=pick_table_dtype(n_long),
            est_rounds=est,
            reason=(
                f"large exact fill (work={gather_work}) across "
                f"{int(fill_workers)} fill workers"
            ),
        )
    return KernelChoice(
        kernel="vectorized",
        dtype=pick_table_dtype(n_long),
        est_rounds=est,
        reason="exact fill, no budget bound",
    )


class AutoKernel:
    """Cost-model-driven :class:`~repro.core.ptas.DPSolver`.

    Per probe, :func:`choose_kernel` routes to the clamped decision
    fill, the level sweep, or the exact vectorized relaxation.  It
    accepts the probe driver's machine-budget binding
    (:meth:`bind_machines`) — without it every choice is an exact
    fill, so direct calls still produce tables bit-identical to the
    reference (tested).

    Parameters
    ----------
    plan_cache:
        Shared :class:`~repro.core.probe_cache.PlanCache`; supplies
        the sweep's level schedule and the relaxation kernels' cached
        maximal configurations and slice selectors.  ``None`` uses the process-wide default cache.
    memory_budget_bytes:
        Optional cap on the transient fill footprint (see
        :func:`choose_kernel`).
    fill_fabric:
        Optional :class:`~repro.parallel.fabric.BlockExecutor`; opens
        the library-only ``hostpar`` route for large exact fills.

    The decision/vectorized and hostpar routes always fill over the
    dominance-pruned configuration set (:mod:`repro.core.sparsify`):
    sparse box passes with closure sweeps, or clipped gathers on the
    fabric.  The over-budget sweep fills over the full set.  Tables
    are bit-identical to the reference fill either way.
    """

    #: the probe cache may seed this kernel's fills from nearby-budget
    #: cached tables (decision/vectorized routes; other routes ignore
    #: the seed and fill cold, which is always sound).
    supports_warm_start = True

    def __init__(
        self,
        plan_cache=None,
        machines: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        fill_fabric=None,
    ) -> None:
        self.plan_cache = plan_cache
        self.machines = None if machines is None else int(machines)
        self.memory_budget_bytes = memory_budget_bytes
        self.fill_fabric = fill_fabric

    def bind_machines(self, machines: Optional[int]) -> "AutoKernel":
        """A copy of this kernel that knows the machine budget.

        ``None`` *unbinds*: fills whose tables must stay exact (the
        multi-fill models compose tables across machine types) pass it
        to force the exact routes even on a previously-bound kernel.
        """
        return AutoKernel(
            plan_cache=self.plan_cache,
            machines=machines,
            memory_budget_bytes=self.memory_budget_bytes,
            fill_fabric=self.fill_fabric,
        )

    @property
    def dp_cache_token(self) -> Optional[tuple]:
        """Per-budget probe-cache key.

        A bound auto kernel *may* produce clamped tables, so its
        results are isolated per budget; exact tables cached under the
        token remain valid for that budget (they answer strictly
        more).
        """
        if self.machines is None:
            return None
        return ("decision", self.machines)

    def _plan(self, counts, class_sizes, target, configs, model_token=None):
        cache = self.plan_cache
        if cache is None:
            from repro.core.probe_cache import default_plan_cache

            cache = default_plan_cache()
        return cache.plan(
            counts,
            tuple(int(s) for s in class_sizes),
            int(target),
            configs,
            eager=False,
            model_token=model_token,
        )

    def __call__(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        model_token: Optional[tuple] = None,
        warm_table: Optional[np.ndarray] = None,
    ) -> DPResult:
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(class_sizes):
            raise DPError("counts and class_sizes must have equal length")
        if len(counts) == 0:
            return empty_dp_result()
        if model_token is not None and configs is None:
            raise DPError(
                "model-filtered probes must supply their configuration set"
            )
        if configs is None:
            configs = enumerate_configurations(class_sizes, counts, target)
        choice = choose_kernel(
            counts,
            class_sizes,
            target,
            num_configs=int(configs.shape[0]),
            machines=self.machines,
            memory_budget_bytes=self.memory_budget_bytes,
            fill_workers=(
                self.fill_fabric.workers if self.fill_fabric is not None else None
            ),
        )
        obs.count(f"kernel.auto.{choice.kernel}")
        plan = self._plan(
            counts, class_sizes, target, configs, model_token=model_token
        )
        if choice.kernel == "hostpar":
            # The fabric fills cold: a warm seed would have to ship
            # through shared memory for no measured win, so it is
            # simply ignored here — filling cold is always sound.
            flat = self.fill_fabric.fill(plan, sparsify=True)
            return DPResult(
                table=flat.reshape(plan.geometry.shape), configs=configs
            )
        if choice.kernel == "sweep":
            return dp_levelsweep(
                counts,
                class_sizes,
                target,
                configs=configs,
                plan=plan,
            )
        return dp_vectorized(
            counts,
            class_sizes,
            target,
            configs=configs,
            sparse_configs=plan.sparse_configs,
            sparse_passes=plan.sparse_passes,
            warm_table=warm_table,
            machines=self.machines if choice.kernel == "decision" else None,
        )

    def __repr__(self) -> str:
        bound = "unbound" if self.machines is None else f"m={self.machines}"
        return f"AutoKernel({bound})"
