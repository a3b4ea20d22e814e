"""The probe-plan IR: one structured execution plan per DP probe shape.

Every DP engine executes the same *structure* — anti-diagonal cell
levels (Algorithm 2), block partitions and per-(block-level,
in-block-level) kernel groups (Algorithms 4+5), per-cell work profiles
(Algorithm 5's ``candidates`` / ``#subconfig`` quantities) — and each
historically re-derived all of it per probe from scratch.  A
:class:`ProbePlan` is that structure computed **once** per
``(table shape, configuration set)`` and consumed everywhere:

* the five simulator engines (:mod:`repro.engines`) interpret a plan,
  keeping only their cost semantics (warp packing, stream assignment,
  launch overheads);
* the process-parallel fill fabric
  (:class:`repro.parallel.fabric.BlockExecutor`) walks the *same*
  level schedule, so simulated and real execution provably use
  identical orders;
* :class:`repro.core.probe_cache.PlanCache` memoizes plans across the
  probes of a search and across the requests of a batch (quarter-split
  probes four targets per round that frequently round to one shape).

The plan is deliberately *value-like*: every array it exposes is marked
read-only, its layers are derived deterministically from
``(geometry, configs)``, and two probes with equal geometry and
configuration set may share one plan object freely (the DP values, the
schedules, and the work profiles are all functions of exactly that
pair — the scale-invariance argument of
:mod:`repro.core.probe_cache`, applied to execution structure).

Layers are built lazily and memoized on the plan, so a consumer that
never partitions (the CPU engines) never pays for the blocked layout,
while the partitioned GPU engine's ``blocked(dim)`` is shared by every
later probe that hits the same plan.  Build time flows to the ambient
tracer as ``plan.build_ms``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.dptable.antidiagonal import cell_levels
from repro.dptable.layout import BlockedLayout
from repro.dptable.partition import BlockPartition, compute_divisor
from repro.dptable.table import TableGeometry
from repro.errors import DPError
from repro.observability import context as obs


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it (plans are immutable)."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class LevelSchedule:
    """The anti-diagonal wavefront order of one table (Algorithm 2).

    Attributes
    ----------
    levels:
        Level (coordinate sum) of every cell, flat row-major order.
    order:
        Level-major permutation of flat indices: all level-0 cells,
        then level 1, ... — ascending within each level.  This is the
        exact order :func:`repro.dptable.antidiagonal.wavefront`
        yields and the host-parallel wavefront dispatches.
    boundaries:
        ``order[boundaries[l]:boundaries[l+1]]`` is level ``l``;
        length ``num_levels + 1``.
    """

    levels: np.ndarray
    order: np.ndarray
    boundaries: np.ndarray

    @property
    def num_levels(self) -> int:
        """Number of anti-diagonal levels (``max_level + 1``)."""
        return int(self.boundaries.size - 1)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Cells per level — the wavefront's concurrency profile."""
        return _frozen(np.diff(self.boundaries))

    def group(self, level: int) -> np.ndarray:
        """Flat indices of one level, ascending (a read-only view)."""
        if not (0 <= level < self.num_levels):
            raise DPError(
                f"level {level} out of range [0, {self.num_levels})"
            )
        return self.order[self.boundaries[level] : self.boundaries[level + 1]]

    def groups(self) -> tuple[np.ndarray, ...]:
        """Every level's cell group, level 0 first.

        The canonical topological execution order: passing these to
        :func:`repro.engines.base.fill_by_groups` reproduces the
        wavefront fill bit-for-bit.
        """
        return tuple(self.group(lvl) for lvl in range(self.num_levels))


@dataclass(frozen=True)
class KernelGroup:
    """One FindOPT kernel of the blocked schedule (Algorithm 5).

    ``cells`` are the flat table indices of one in-block anti-diagonal
    level of one block — the cells one kernel launch covers.
    """

    block_id: int
    inblock_level: int
    cells: np.ndarray


@dataclass(frozen=True)
class BlockedSchedule:
    """The two-level blocked execution structure (Algorithm 4 + 5).

    Attributes
    ----------
    partition: the even block partition for this plan's ``dim``.
    layout: the block-contiguous memory reorganization.
    by_block_level:
        Kernel groups per block-level, each level's kernels ordered by
        ``(block_id, inblock_level)`` — the launch order the
        partitioned GPU engine issues into its streams.
    """

    partition: BlockPartition
    layout: BlockedLayout
    by_block_level: tuple[tuple[KernelGroup, ...], ...]

    @cached_property
    def fill_groups(self) -> tuple[np.ndarray, ...]:
        """Dependency-safe cell groups for the blocked order.

        One group per ``(block-level, in-block-level)`` pair: the
        kernels of one block-level that share an in-block level are
        independent (their blocks are), so their cells merge into one
        group.  Passing these to ``fill_by_groups`` executes — and
        therefore certifies — the blocked schedule.
        """
        groups: list[np.ndarray] = []
        for level_kernels in self.by_block_level:
            per_inlevel: dict[int, list[np.ndarray]] = {}
            for kernel in level_kernels:
                per_inlevel.setdefault(kernel.inblock_level, []).append(
                    kernel.cells
                )
            for lvl in sorted(per_inlevel):
                groups.append(_frozen(np.concatenate(per_inlevel[lvl])))
        return tuple(groups)


class ProbePlan:
    """Everything shape-derived one DP probe needs, computed once.

    A plan is identified by ``(geometry, configs)`` — see
    :func:`plan_signature` for the normalized cache key — and exposes:

    * :attr:`level_schedule` / :meth:`level_groups` — the wavefront;
    * :attr:`candidates` / :attr:`valid` and the derived op counts —
      the per-cell work profile of Algorithm 5;
    * :meth:`partition` / :meth:`blocked` — the Algorithm 4 block
      structure for any ``dim``, memoized per ``dim``.

    Instances are immutable: all exposed arrays are read-only and all
    layers are pure functions of the constructor arguments, so one
    plan may serve any number of engines, probes, and threads.
    """

    def __init__(self, geometry: TableGeometry, configs: np.ndarray) -> None:
        if configs.ndim != 2:
            raise DPError("plan configs must be a 2-D array")
        if configs.shape[0] > 0 and configs.shape[1] != geometry.ndim:
            raise DPError(
                f"configs have {configs.shape[1]} components but the table "
                f"has {geometry.ndim} dims"
            )
        self.geometry = geometry
        if configs.flags.writeable:
            configs = configs.copy()
            configs.setflags(write=False)
        self.configs = configs
        self._partitions: dict[int, BlockPartition] = {}
        self._blocked: dict[int, BlockedSchedule] = {}

    # -- level schedule ------------------------------------------------------

    @cached_property
    def level_schedule(self) -> LevelSchedule:
        """The anti-diagonal wavefront schedule (built on first use)."""
        with _build_timer():
            if self.geometry.ndim == 0:
                # A 0-d table is the lone origin cell: one level of one.
                return LevelSchedule(
                    levels=_frozen(np.zeros(1, dtype=np.int64)),
                    order=_frozen(np.zeros(1, dtype=np.int64)),
                    boundaries=_frozen(np.array([0, 1], dtype=np.int64)),
                )
            levels = cell_levels(self.geometry)
            order = np.argsort(levels, kind="stable").astype(np.int64)
            boundaries = np.searchsorted(
                levels[order], np.arange(self.geometry.max_level + 2)
            )
            return LevelSchedule(
                levels=_frozen(levels),
                order=_frozen(order),
                boundaries=_frozen(boundaries),
            )

    def level_groups(self) -> tuple[np.ndarray, ...]:
        """Per-level cell groups — the serial/OpenMP/naive-GPU order."""
        return self.level_schedule.groups()

    @cached_property
    def relaxation_order(self) -> np.ndarray:
        """Config processing order for the relaxation kernels.

        Largest configurations first (stable on ties): they reach far
        cells in fewer rounds, accelerating convergence of the in-place
        propagation in :func:`repro.core.dp_vectorized.dp_vectorized`,
        exact or clamped.  Historically re-derived by an argsort
        on *every* probe; as a plan layer it is computed once per
        ``(shape, configs)`` and shared across all probes that hit the
        same plan.
        """
        with _build_timer():
            if self.configs.shape[0] == 0:
                return _frozen(np.zeros(0, dtype=np.int64))
            return _frozen(
                np.argsort(-self.configs.sum(axis=1), kind="stable").astype(
                    np.int64
                )
            )

    @cached_property
    def shift_slices(self) -> tuple:
        """Relaxation slice selectors, aligned with :attr:`relaxation_order`.

        The ``(dst, src)`` slice-tuple pairs every relaxation pass
        applies (see
        :func:`repro.core.dp_vectorized.shift_selectors`).  Building a
        tuple of slices per configuration is pure-Python work that used
        to run once per *round* per config; as a plan layer it runs
        once per ``(shape, configs)`` and is shared by every probe —
        and every relaxation round — that hits this plan.
        """
        with _build_timer():
            from repro.core.dp_vectorized import shift_selectors

            return shift_selectors(
                self.geometry.shape, self.configs, self.relaxation_order
            )

    # -- sparse (dominance-pruned) layers ------------------------------------

    @cached_property
    def sparse_configs(self) -> np.ndarray:
        """The dominance-pruned maximal subset of :attr:`configs`.

        Derived with the membership-based maximality test of
        :func:`repro.core.sparsify.maximal_mask` — a pure function of
        the configuration set alone, which keeps the layer valid under
        the plan's ``(geometry, configs)`` identity (the budget that
        generated the set never enters).  Sound because every
        enumerated set is downward closed; consumed by the clipped
        cover kernels (:mod:`repro.core.sparsify` has the argument).
        """
        with _build_timer():
            from repro.core.sparsify import sparsify_configurations

            sparse, _ = sparsify_configurations(self.configs)
            return sparse

    @cached_property
    def sparse_relaxation_order(self) -> np.ndarray:
        """Largest-first processing order over :attr:`sparse_configs`."""
        with _build_timer():
            if self.sparse_configs.shape[0] == 0:
                return _frozen(np.zeros(0, dtype=np.int64))
            return _frozen(
                np.argsort(
                    -self.sparse_configs.sum(axis=1), kind="stable"
                ).astype(np.int64)
            )

    @cached_property
    def sparse_shift_slices(self) -> tuple:
        """Box-pass selector pairs over the maximal subset.

        The ``(dst, src)`` pairs of
        :func:`repro.core.dp_vectorized.shift_selectors` built over
        :attr:`sparse_configs`, aligned with
        :attr:`sparse_relaxation_order` — built once per plan and
        shared by every sparse relaxation fill that hits it.  The
        sparse kernels pair these with per-round downward-closure
        sweeps (:func:`repro.core.dp_vectorized.run_closure_sweeps`)
        to realise the clipped cover recurrence.
        """
        with _build_timer():
            from repro.core.dp_vectorized import shift_selectors

            return shift_selectors(
                self.geometry.shape,
                self.sparse_configs,
                self.sparse_relaxation_order,
            )

    # -- work profile --------------------------------------------------------

    @cached_property
    def candidates(self) -> np.ndarray:
        """FindValidSub enumeration size per cell: ``prod(v_i + 1)``."""
        with _build_timer():
            if self.geometry.ndim == 0:
                return _frozen(np.ones(1, dtype=np.int64))
            cells = self.geometry.all_cells()
            return _frozen(np.prod(cells + 1, axis=1, dtype=np.int64))

    @cached_property
    def valid(self) -> np.ndarray:
        """Applicable configurations per cell: ``#{c in C : c <= v}``.

        One slice-increment per configuration over a dense counter
        table — ``O(|C| * sigma)`` flat numpy work, and the single
        most expensive plan layer (which is why sharing plans across
        probes pays).
        """
        with _build_timer():
            table = np.zeros(self.geometry.shape, dtype=np.int64)
            for cfg in self.configs:
                view = table[tuple(slice(int(c), None) for c in cfg)]
                view += 1
            return _frozen(table.reshape(-1))

    @cached_property
    def total_candidates(self) -> int:
        """Sum of FindValidSub work over the whole table."""
        return int(self.candidates.sum())

    @cached_property
    def total_valid(self) -> int:
        """Sum of SetOPT work items over the whole table."""
        return int(self.valid.sum())

    def thread_ops(self, costs) -> np.ndarray:
        """Per-cell compute ops *excluding* the locate scan.

        ``costs`` is any object with ``candidate_ops`` and
        ``setopt_ops`` attributes (a
        :class:`~repro.engines.costmodel.CostConstants`); the scan is
        charged separately because its scope and medium are engine
        decisions, not plan structure.
        """
        return (
            self.candidates.astype(np.float64) * costs.candidate_ops
            + self.valid.astype(np.float64) * costs.setopt_ops
        )

    def scan_elements(self, scan_scope) -> np.ndarray:
        """Per-cell elements touched by locate scans.

        ``scan_scope`` is the storage size each scan walks (scalar for
        whole-table scans, or the block size after partitioning); the
        expected scan hits its target halfway through.
        """
        scope = np.asarray(scan_scope, dtype=np.float64)
        return self.valid.astype(np.float64) * scope / 2.0

    # -- blocked structure ---------------------------------------------------

    def partition(self, dim: int) -> BlockPartition:
        """The Algorithm 4 block partition for ``dim`` cut dimensions.

        Cheap (divisor arithmetic only) and memoized per ``dim`` —
        the hybrid engine's cost predictor uses this without paying
        for the full blocked schedule.
        """
        dim = int(dim)
        if dim not in self._partitions:
            self._partitions[dim] = BlockPartition(
                self.geometry, compute_divisor(self.geometry.shape, dim)
            )
        return self._partitions[dim]

    def blocked(self, dim: int) -> BlockedSchedule:
        """The full blocked schedule for ``dim``, memoized per ``dim``.

        Builds the partition, the block-contiguous layout, and the
        per-(block-level, in-block-level) kernel groups with one
        lexsort over the table — the derivation that used to live
        privately inside the partitioned GPU engine.
        """
        dim = int(dim)
        if dim in self._blocked:
            return self._blocked[dim]
        with _build_timer():
            partition = self.partition(dim)
            layout = BlockedLayout(partition)

            block_ids = partition.cell_block_ids
            block_levels = partition.cell_block_levels
            inblock = partition.cell_inblock_levels

            n_in = partition.num_inblock_levels
            key = block_ids * n_in + inblock
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            # Kernel boundaries: one kernel per distinct (block, in-level).
            starts = np.flatnonzero(
                np.concatenate([[True], sorted_key[1:] != sorted_key[:-1]])
            )
            stops = np.concatenate([starts[1:], [sorted_key.size]])

            by_level: list[list[KernelGroup]] = [
                [] for _ in range(partition.num_block_levels)
            ]
            for lo, hi in zip(starts, stops):
                cells = order[lo:hi]
                k = int(sorted_key[lo])
                bid, lvl = divmod(k, n_in)
                by_level[int(block_levels[cells[0]])].append(
                    KernelGroup(
                        block_id=bid, inblock_level=lvl, cells=_frozen(cells)
                    )
                )
            schedule = BlockedSchedule(
                partition=partition,
                layout=layout,
                by_block_level=tuple(tuple(level) for level in by_level),
            )
        self._blocked[dim] = schedule
        return schedule

    # -- identity ------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"ProbePlan(shape={self.geometry.shape}, "
            f"|C|={self.configs.shape[0]})"
        )


class _build_timer:
    """Context manager charging elapsed build time as ``plan.build_ms``."""

    def __enter__(self) -> "_build_timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed_ms = (time.perf_counter() - self._start) * 1e3
        obs.count("plan.build_ms", elapsed_ms)


def plan_signature(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    model_token: Optional[tuple] = None,
) -> tuple:
    """Scale-invariant identity of a probe's plan.

    The plan depends only on the table shape and the configuration
    set, and a configuration ``s`` is feasible iff
    ``sum_i s_i * size_i <= T`` — dividing through by
    ``g = gcd(class_sizes)`` leaves feasibility unchanged
    (``sum s_i (size_i/g) <= floor(T/g)`` because the left side is an
    integer).  Probes at different absolute targets whose sizes are a
    common rescaling therefore share one plan — the same collision
    the normalized probe key of :mod:`repro.core.probe_cache`
    exploits, frequently hit by the quarter split's four same-round
    targets.

    ``model_token`` discriminates machine models whose configuration
    sets are *filtered* rather than budget-defined (the
    ``time-restricted`` model's job-count cap): a filtered plan must
    never alias the unfiltered plan for the same shape/budget.
    ``None`` — every pre-model caller — leaves signatures bit-identical
    to the historical four-element form.
    """
    counts = tuple(int(c) for c in counts)
    sizes = tuple(int(s) for s in class_sizes)
    if len(counts) != len(sizes):
        raise DPError("counts and class_sizes must have equal length")
    if not sizes:
        base = ("norm", counts, (), 0)
    else:
        g = math.gcd(*sizes)
        base = (
            "norm",
            counts,
            tuple(s // g for s in sizes),
            int(target) // g,
        )
    if model_token is None:
        return base
    return base + (tuple(model_token),)


def configs_signature(geometry: TableGeometry, configs: np.ndarray) -> tuple:
    """Exact plan identity when the configuration set is already known."""
    return ("cfg", geometry.shape, configs.shape, configs.tobytes())


def build_probe_plan(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    configs: Optional[np.ndarray] = None,
    eager: bool = True,
) -> ProbePlan:
    """Construct a plan for one probe, enumerating configurations if needed.

    With ``eager=True`` (the engine default) the level schedule and
    work profile are built immediately — every engine touches them, so
    the cost is paid (and measured) here, on the cache's miss path,
    not on first use.  The relaxation kernels only need the cheap
    :attr:`~ProbePlan.relaxation_order` layer and pass ``eager=False``
    to keep the expensive layers lazy.  The blocked structure stays
    lazy per ``dim`` either way.  Prefer
    :class:`repro.core.probe_cache.PlanCache` — this builder is the
    miss path.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(class_sizes):
        raise DPError("counts and class_sizes must have equal length")
    geometry = TableGeometry.from_counts(counts)
    if configs is None:
        from repro.core.configs import enumerate_configurations

        configs = enumerate_configurations(class_sizes, counts, target)
    plan = ProbePlan(geometry, configs)
    if eager:
        plan.level_schedule
        plan.candidates
        plan.valid
    return plan
