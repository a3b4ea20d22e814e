"""The shared-memory fill fabric: process-parallel plan execution.

A library-only layer: no registered backend, engine or service front
end holds a fabric, so no request path reaches it.  It is used by
:class:`~repro.core.kernels.AutoKernel` when built with
``fill_fabric=`` (the ``hostpar`` kernel route) and by the layered
benchmark (``perfbench/``), which times a 2-worker fill against the
single-core kernels — on a 2-core host it is slower at every measured
table size (``docs/PERFORMANCE.md``).  It consists of:

* :class:`SharedTableArena` — one context-managed shared segment
  holding a narrow-dtype DP table (dtype from
  :func:`repro.core.dp_common.pick_table_dtype`), closed *and*
  unlinked on block exit no matter what — a raised
  :class:`~repro.errors.DPError` must not leak segments.  Its
  :meth:`~SharedTableArena.verify` pass detects torn or impossible
  values before a fill's table is widened and returned.

* :class:`BlockExecutor` — a persistent, *supervised* process pool
  that dispatches a plan's anti-diagonal waves (the level schedule of
  Algorithm 2, or the blocked ``(block-level, in-block-level)`` groups
  of Algorithms 4+5) over the arena.  Each plan's wave order and
  configuration set are written to a shared segment **once** and
  attached lazily **once per worker**, keyed on a digest of the exact
  plan signature (:func:`repro.dptable.plan.configs_signature`), so
  repeated probes over the same plan reuse the mapping zero-copy.

**Start method.**  The fabric pins its multiprocessing start method
explicitly instead of inheriting the platform default: ``forkserver``
(with this module preloaded) where available, ``spawn`` otherwise —
never ``fork``.  A forked child inherits the parent's locks, arbitrary
thread state, and any half-poisoned allocator pages, which is exactly
the state a crash-recovery layer cannot reason about; a forkserver /
spawn child starts from a clean interpreter, so a respawned pool after
a worker death is a genuinely fresh one.  The preload keeps post-crash
respawns cheap: the server process imports numpy and this module once.

**Supervision.**  Waves are dispatched asynchronously onto a
:class:`concurrent.futures.ProcessPoolExecutor` under a per-wave
deadline.  The historical ``multiprocessing.Pool.map`` had *no* answer
to a real worker death: a lost task blocks the map forever, and a
worker SIGKILLed while idle dies holding the task-queue read lock, so
even ``terminate()`` deadlocks (``_help_stuff_finish`` acquires that
lock — observed in anger while building this).  The futures executor
is built for exactly this failure: a dead worker marks the pool broken
and fails every pending future with ``BrokenProcessPool`` immediately,
and shutdown stays safe.  A lost wave tears the pool down, respawns
it, and re-executes **only that wave**: cells of one wave are disjoint
and depend only on earlier waves, so re-execution overwrites any
partial writes with identical values (the paper's wavefront safety
argument doubles as a recovery idempotency proof — bit-identity is
property-tested).  The recovery budget is capped per fill
(``max_pool_restarts``); past it the fill degrades to inline
single-process execution (``inline_fallback``) or surfaces
:class:`~repro.errors.WorkerCrashError` into the retry / fallback /
degraded-bound machinery of :mod:`repro.resilience`.

**Hygiene.**  All fabric segments carry a ``repro_fab_<pid>_`` name so
:func:`reap_orphans` can sweep ``/dev/shm`` leftovers of crashed runs
(only segments whose creating pid is dead are touched); every pool
start runs a sweep.  :meth:`BlockExecutor.health` reports the full
:class:`FabricHealth` snapshot — worker pids, restarts, re-executed
waves, reaped segments.

Per the HPC-Python guidance the worker bodies are fully vectorized
(one gather + min-reduce per configuration per chunk); only tiny task
tuples cross the process boundary.  Results are bit-identical to
:func:`repro.engines.base.fill_by_groups` over the same groups
(property-tested): the same narrow dtype, the same
per-configuration min-reduce, widened at the boundary by
:func:`repro.core.dp_common.widen_table`.
"""

from __future__ import annotations

import hashlib
import os
import re
import secrets
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Optional, Sequence

import numpy as np

from repro.core.dp_common import (
    pick_table_dtype,
    unreachable_for,
    widen_table,
)
from repro.dptable.plan import ProbePlan, configs_signature
from repro.dptable.table import TableGeometry
from repro.errors import DPError, TableIntegrityError, WorkerCrashError
from repro.observability import context as obs
from repro.parallel.chunking import split_by_cost

#: Waves smaller than this many cells run inline in the parent —
#: dispatch overhead would dominate (the host-side analogue of the
#: paper's observation that narrow levels cannot feed wide hardware).
DEFAULT_MIN_PARALLEL_CELLS: int = 256

#: Plan shipments a :class:`BlockExecutor` keeps mapped (LRU).
DEFAULT_MAX_PLANS: int = 8

#: Wall seconds one dispatched wave may take before it is declared
#: lost.  Waves are small (a fraction of one fill), so a wave that
#: outlives this is wedged, not slow.
DEFAULT_WAVE_DEADLINE_S: float = 60.0

#: Pool terminate-and-respawn attempts one fill may spend on lost
#: waves before degrading (inline fallback or WorkerCrashError).
DEFAULT_MAX_POOL_RESTARTS: int = 2

#: Per-worker caches are bounded too: plan segments and table mappings
#: a worker keeps attached before closing the oldest.
_WORKER_MAX_PLANS: int = 8
_WORKER_MAX_TABLES: int = 4

#: Every fabric segment is named ``repro_fab_<creating-pid>_<token>``
#: so the reaper can attribute /dev/shm leftovers to a (dead) process.
_SEGMENT_PREFIX = "repro_fab_"
_SEGMENT_RE = re.compile(r"^repro_fab_(\d+)_[0-9a-f]+$")
_SHM_DIR = "/dev/shm"


def _strides_for(shape: Sequence[int]) -> np.ndarray:
    """Row-major element strides for ``shape`` (int64 vector)."""
    shape = tuple(int(s) for s in shape)
    return np.asarray(TableGeometry(shape).strides, dtype=np.int64)


# ---------------------------------------------------------------------------
# Start method (pinned, never platform-default fork)
# ---------------------------------------------------------------------------

_CTX = None
_CTX_METHOD: Optional[str] = None
_CTX_LOCK = threading.Lock()


def _fabric_context():
    """The fabric's pinned multiprocessing context (see module docs).

    ``forkserver`` with this module preloaded where the platform has
    it, ``spawn`` otherwise.  Deliberately never the default ``fork``:
    recovery must be able to trust that a respawned worker carries no
    inherited locks or thread state from the crashed generation.
    """
    global _CTX, _CTX_METHOD
    with _CTX_LOCK:
        if _CTX is None:
            try:
                ctx = get_context("forkserver")
                ctx.set_forkserver_preload(["repro.parallel.fabric"])
                _CTX_METHOD = "forkserver"
            except ValueError:  # platform without forkserver
                ctx = get_context("spawn")
                _CTX_METHOD = "spawn"
            _CTX = ctx
        return _CTX


def fabric_start_method() -> str:
    """The pinned start-method name (``"forkserver"`` or ``"spawn"``)."""
    _fabric_context()
    assert _CTX_METHOD is not None
    return _CTX_METHOD


# ---------------------------------------------------------------------------
# Segment naming + the orphan reaper
# ---------------------------------------------------------------------------


def _new_segment(nbytes: int) -> SharedMemory:
    """A fresh fabric-named shared segment (collision-retried)."""
    while True:
        name = f"{_SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
        try:
            return SharedMemory(create=True, size=nbytes, name=name)
        except FileExistsError:  # astronomically unlikely; pick again
            continue


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    return True


def reap_orphans(shm_dir: str = _SHM_DIR) -> list:
    """Unlink fabric segments whose creating process is dead.

    A SIGKILLed run (worse: a SIGKILLed process *tree*, taking the
    multiprocessing resource tracker with it) can leave arena and
    shipment segments behind in ``/dev/shm``.  Segment names embed the
    creating pid, so leftovers are attributable: anything matching the
    fabric pattern whose pid no longer exists is garbage.  Live pids —
    including this process — are never touched, and foreign names
    (``psm_*`` or anything else) are ignored entirely.  Returns the
    reaped segment names; a no-op on platforms without ``/dev/shm``.
    """
    try:
        names = os.listdir(shm_dir)
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    reaped = []
    own = os.getpid()
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except (FileNotFoundError, PermissionError):
            continue  # raced with another reaper, or not ours to take
        reaped.append(name)
    if reaped:
        obs.count("fabric.reaped", len(reaped))
    return reaped


# ---------------------------------------------------------------------------
# The shared fill kernel (identical math to engines.base.fill_by_groups)
# ---------------------------------------------------------------------------


def _fill_range(
    table: np.ndarray,
    cells: np.ndarray,
    configs: np.ndarray,
    shape: tuple[int, ...],
    strides: np.ndarray,
    unreach: int,
    clipped: bool = False,
) -> int:
    """Fill one contiguous slice of a wave's cells; returns cells touched.

    Runs identically in the parent (inline path) and in pool workers:
    one predecessor gather + min-reduce per configuration, writes
    ``best + 1`` for reachable cells.  The origin (flat index 0) is
    pre-final and skipped.

    ``clipped=True`` runs the cover recurrence over a dominance-pruned
    configuration set (see :mod:`repro.core.sparsify`): predecessors
    are ``clip(u - c)`` and disjoint-support configurations — which
    clip back to the cell itself — are skipped.  Clipped predecessors
    sit at strictly lower wave levels, so wavefront safety holds
    unchanged.
    """
    cells = cells[cells != 0]
    if cells.size == 0:
        return 0
    coords = np.stack(np.unravel_index(cells, shape), axis=1)
    best = np.full(cells.size, unreach, dtype=table.dtype)
    for cfg in configs:
        if clipped:
            prev = np.maximum(coords - cfg, 0)
            ok = (prev != coords).any(axis=1)
        else:
            prev = coords - cfg
            ok = (prev >= 0).all(axis=1)
        if not ok.any():
            continue
        vals = table[prev[ok] @ strides]
        sel = np.flatnonzero(ok)
        best[sel] = np.minimum(best[sel], vals)
    reachable = best < unreach
    table[cells[reachable]] = best[reachable] + 1
    return int(cells.size)


# ---------------------------------------------------------------------------
# Arena
# ---------------------------------------------------------------------------


class SharedTableArena:
    """A narrow-dtype DP table in one shared-memory segment.

    Context-managed: ``close()`` drops this process's mapping and
    unlinks the OS object, and runs on block exit *including error
    paths* — no interpreter-exit hooks involved.  The table is
    initialised to the dtype's :func:`unreachable_for` sentinel with
    the origin at 0, ready for a wave fill.
    """

    def __init__(self, size: int, dtype: np.dtype) -> None:
        self.size = int(size)
        self.dtype = np.dtype(dtype)
        if self.size < 1:
            raise DPError(f"arena size must be >= 1, got {size}")
        self._shm: Optional[SharedMemory] = _new_segment(
            self.size * self.dtype.itemsize
        )
        self.name = self._shm.name
        self.table = np.ndarray((self.size,), dtype=self.dtype, buffer=self._shm.buf)
        self.table[:] = unreachable_for(self.dtype)
        self.table[0] = 0

    def verify(self, max_level: int) -> int:
        """Sentinel/integrity pass over the filled table; returns cells checked.

        A correct fill can only ever hold three things: ``0`` at the
        origin (and nowhere else), levels in ``[1, max_level]``, and
        the dtype's unreachable sentinel.  Anything outside that set —
        a torn write from a worker killed mid-store, a clobbered
        origin, garbage from a foreign mapping — raises
        :class:`~repro.errors.TableIntegrityError` (transient: a retry
        rebuilds the table from scratch in a fresh arena).  Unwritten
        ranges are indistinguishable from genuinely unreachable cells
        *by value*, so lost-wave detection is the executor's per-wave
        cell-claim check; this pass catches value corruption.
        """
        table = self.table
        if table is None:
            raise DPError("cannot verify a closed arena")
        unreach = unreachable_for(self.dtype)
        problems = []
        if int(table[0]) != 0:
            problems.append(f"origin cell holds {int(table[0])}, expected 0")
        zeros = int((table == 0).sum())
        if zeros != 1:
            problems.append(f"{zeros} zero cells (only the origin may be 0)")
        torn = int(((table > max_level) & (table != unreach)).sum())
        if torn:
            problems.append(
                f"{torn} cells outside [0, {max_level}] that are not the "
                f"sentinel {unreach}"
            )
        if problems:
            raise TableIntegrityError(
                "table integrity verification failed: " + "; ".join(problems)
            )
        return self.size

    def widened(self) -> np.ndarray:
        """An owned int64 copy of the table (safe to use after close)."""
        wide = widen_table(self.table)
        if wide is self.table:  # already int64 — still segment-backed
            wide = self.table.copy()
        return wide

    def close(self) -> None:
        """Release the mapping and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.table = None  # drop the buffer view before closing
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            pass

    def __enter__(self) -> "SharedTableArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Plan shipments (parent side)
# ---------------------------------------------------------------------------


class _Shipment:
    """One plan's wave order + configs in a shared segment.

    Layout (all int64): ``configs.ravel()`` then the concatenated wave
    cell order (length = table size — waves tile the table).  Wave
    ``boundaries`` stay parent-side; workers only ever see ``(lo, hi)``
    slices.  The key digests the exact plan content, so a worker's
    cached attachment stays valid for as long as the key matches.
    """

    def __init__(
        self,
        key: tuple,
        shape: tuple[int, ...],
        configs: np.ndarray,
        order: np.ndarray,
        boundaries: np.ndarray,
    ) -> None:
        self.key = key
        self.shape = tuple(int(s) for s in shape)
        self.num_configs = int(configs.shape[0])
        self.boundaries = boundaries
        configs = np.ascontiguousarray(configs, dtype=np.int64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        total = configs.size + order.size
        self._shm: Optional[SharedMemory] = _new_segment(max(1, total * 8))
        self.name = self._shm.name
        flat = np.ndarray((total,), dtype=np.int64, buffer=self._shm.buf)
        flat[: configs.size] = configs.ravel()
        flat[configs.size :] = order
        #: parent-side views for the inline path / cost indexing.
        self.configs = flat[: configs.size].reshape(configs.shape)
        self.order = flat[configs.size :]

    @property
    def closed(self) -> bool:
        """Whether the segment has been released (evicted or shut down)."""
        return self._shm is None

    def close(self) -> None:
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.configs = None
        self.order = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _plan_key(plan: ProbePlan, kind: str, dim: int) -> tuple:
    """Content digest identifying one plan's shipment.

    The wave order is a pure function of ``(kind, dim, shape)`` and the
    fill values of the configuration set, so hashing the exact
    :func:`configs_signature` (shape + configs bytes) plus the schedule
    kind fully determines the segment's bytes.  Gcd-normalized probes
    (:func:`~repro.dptable.plan.plan_signature` collisions) resolve to
    the same cached :class:`ProbePlan` and therefore the same digest —
    the zero-copy reuse the plan cache already set up.  Sparse
    shipments (kinds ``levels-sparse`` / ``blocked-sparse``) carry the
    dominance-pruned set, itself a pure function of ``configs``, so the
    same digest-of-full-set scheme identifies them.
    """
    sig = configs_signature(plan.geometry, plan.configs)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((kind, int(dim), sig[1], sig[2])).encode())
    digest.update(sig[3])
    return (kind, int(dim), digest.hexdigest())


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

# Populated lazily inside pool workers; the parent never touches these
# (its inline path reads the shipment views directly).  Workers start
# from clean interpreters (forkserver/spawn), so the caches are empty
# until the first task attaches — and empty again in every respawned
# generation, which is exactly what recovery wants.
_W_PLANS: "OrderedDict[tuple, dict]" = OrderedDict()
_W_TABLES: "OrderedDict[str, dict]" = OrderedDict()


def _attach_plan(key: tuple, seg_name: str, shape: tuple[int, ...], num_configs: int) -> dict:
    """This worker's mapping of one plan shipment (attached on first use)."""
    entry = _W_PLANS.get(key)
    if entry is not None:
        _W_PLANS.move_to_end(key)
        return entry
    shm = SharedMemory(name=seg_name)
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    size = 1
    for s in shape:
        size *= s
    total = num_configs * ndim + size
    flat = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
    entry = {
        "shm": shm,
        "configs": flat[: num_configs * ndim].reshape(num_configs, ndim),
        "order": flat[num_configs * ndim :],
        "shape": shape,
        "strides": _strides_for(shape),
    }
    _W_PLANS[key] = entry
    while len(_W_PLANS) > _WORKER_MAX_PLANS:
        _, old = _W_PLANS.popitem(last=False)
        old["shm"].close()
    return entry


def _attach_table(name: str, dtype_str: str, size: int) -> np.ndarray:
    """This worker's mapping of the current fill's table arena."""
    entry = _W_TABLES.get(name)
    if entry is not None:
        _W_TABLES.move_to_end(name)
        return entry["table"]
    shm = SharedMemory(name=name)
    table = np.ndarray((size,), dtype=np.dtype(dtype_str), buffer=shm.buf)
    _W_TABLES[name] = {"shm": shm, "table": table}
    while len(_W_TABLES) > _WORKER_MAX_TABLES:
        _, old = _W_TABLES.popitem(last=False)
        del old["table"]
        old["shm"].close()
    return table


def _fabric_work(task: tuple) -> int:
    """Fill ``order[lo:hi]`` of one wave (runs in a pool worker)."""
    (
        key,
        seg_name,
        shape,
        num_configs,
        table_name,
        dtype_str,
        size,
        lo,
        hi,
        clipped,
    ) = task
    plan = _attach_plan(key, seg_name, tuple(shape), num_configs)
    table = _attach_table(table_name, dtype_str, size)
    return _fill_range(
        table,
        plan["order"][lo:hi],
        plan["configs"],
        plan["shape"],
        plan["strides"],
        unreachable_for(table.dtype),
        clipped=bool(clipped),
    )


# ---------------------------------------------------------------------------
# Health
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricHealth:
    """One executor's supervision snapshot (JSON-ready via ``as_dict``)."""

    #: configured pool width.
    workers: int
    #: whether a pool is currently running.
    alive: bool
    #: the pinned start method (``"forkserver"`` / ``"spawn"``).
    start_method: str
    #: pools started over the executor's lifetime (lazy starts count).
    generation: int
    #: live worker pids (empty when the pool is down).
    worker_pids: tuple
    #: crash-triggered terminate-and-respawn cycles.
    pool_restarts: int
    #: waves re-executed after being lost to a dead/wedged pool.
    waves_reexecuted: int
    #: chaos kills delivered by the ``fabric.worker`` fault site.
    workers_killed: int
    #: waves degraded to the inline path after the restart budget.
    inline_fallbacks: int
    #: plan shipments rebuilt after eviction raced an in-flight fill.
    plans_reshipped: int
    #: table cells covered by post-fill integrity verification.
    integrity_cells_checked: int
    #: integrity verifications that failed (each raised).
    integrity_failures: int
    #: orphaned ``/dev/shm`` segments reaped at pool starts.
    segments_reaped: int

    def as_dict(self) -> dict:
        """JSON-ready snapshot; zero recovery tallies are omitted
        (``CacheStats`` convention: quiet fabrics report no noise)."""
        out: dict = {
            "workers": self.workers,
            "alive": self.alive,
            "start_method": self.start_method,
            "generation": self.generation,
            "worker_pids": list(self.worker_pids),
        }
        for key, value in (
            ("pool_restarts", self.pool_restarts),
            ("waves_reexecuted", self.waves_reexecuted),
            ("workers_killed", self.workers_killed),
            ("inline_fallbacks", self.inline_fallbacks),
            ("plans_reshipped", self.plans_reshipped),
            ("integrity_cells_checked", self.integrity_cells_checked),
            ("integrity_failures", self.integrity_failures),
            ("segments_reaped", self.segments_reaped),
        ):
            if value:
                out[key] = value
        return out


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class BlockExecutor:
    """A supervised, persistent process pool filling plan waves.

    The pool starts lazily on the first wave large enough to dispatch
    and survives across fills — the whole point: per-probe pool spawns
    would otherwise dominate every fill.  Plan
    shipments are cached (bounded LRU) and shipped to each worker at
    most once per plan.  ``close()`` releases the pool and every
    shipment but leaves the executor reusable: the next fill lazily
    restarts it.  Thread-safe — concurrent probe threads may share one
    fabric.

    Supervision parameters (all default on):

    ``faults``
        Optional :class:`~repro.resilience.FaultInjector`; its
        ``"fabric.worker"`` site is consulted once per dispatched wave
        and a hit SIGKILLs a live worker — the *real* chaos harness.
    ``wave_deadline_s``
        Wall deadline per dispatched wave; a wave past it is treated
        exactly like one lost to a dead worker.
    ``max_pool_restarts``
        Terminate-and-respawn attempts one ``fill`` may spend before
        degrading.
    ``inline_fallback``
        Past the restart budget, finish the fill inline in the parent
        (``True``, default) instead of raising
        :class:`~repro.errors.WorkerCrashError` (``False``).
    ``verify_integrity``
        Run :meth:`SharedTableArena.verify` before returning a table.
    """

    def __init__(
        self,
        workers: int = 4,
        min_parallel_cells: int = DEFAULT_MIN_PARALLEL_CELLS,
        max_plans: int = DEFAULT_MAX_PLANS,
        faults=None,
        wave_deadline_s: float = DEFAULT_WAVE_DEADLINE_S,
        max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
        inline_fallback: bool = True,
        verify_integrity: bool = True,
    ) -> None:
        if workers < 1:
            raise DPError(f"workers must be >= 1, got {workers}")
        if wave_deadline_s <= 0:
            raise DPError(f"wave_deadline_s must be > 0, got {wave_deadline_s}")
        if max_pool_restarts < 0:
            raise DPError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        self.workers = int(workers)
        self.min_parallel_cells = int(min_parallel_cells)
        self.max_plans = int(max_plans)
        self.faults = faults
        self.wave_deadline_s = float(wave_deadline_s)
        self.max_pool_restarts = int(max_pool_restarts)
        self.inline_fallback = bool(inline_fallback)
        self.verify_integrity = bool(verify_integrity)
        self._pool = None
        self._shipments: "OrderedDict[tuple, _Shipment]" = OrderedDict()
        self._lock = threading.RLock()
        #: lifetime tallies behind :meth:`health` (guarded by _lock).
        self._generation = 0
        self._close_count = 0
        self._restarts = 0
        self._waves_reexecuted = 0
        self._worker_kills = 0
        self._inline_fallbacks = 0
        self._plans_reshipped = 0
        self._integrity_checked = 0
        self._integrity_failures = 0
        self._reaped = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the worker pool is currently running."""
        return self._pool is not None

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                self._reaped += len(reap_orphans())
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_fabric_context()
                )
                self._generation += 1
                obs.count("fabric.pool.started")
            return self._pool

    @staticmethod
    def _worker_processes(pool) -> list:
        """The pool's live worker processes (spawned lazily on submit)."""
        procs = getattr(pool, "_processes", None) or {}
        return [
            p
            for p in list(procs.values())
            if p.pid is not None and p.exitcode is None
        ]

    def _stop_pool(self, pool, force: bool = False) -> None:
        """Shut one executor down; ``force`` SIGKILLs its workers first.

        The forced path exists for wedged workers: a clean
        ``shutdown(wait=True)`` would block on a worker that stopped
        answering, and a SIGKILLed worker just flips the executor into
        its broken state — which ``ProcessPoolExecutor`` shuts down
        promptly (the property ``multiprocessing.Pool`` lacked).
        """
        if force:
            for proc in self._worker_processes(pool):
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    continue
        pool.shutdown(wait=True, cancel_futures=force)

    def close(self, force: bool = False) -> None:
        """Shut the pool down and unlink every shipment (idempotent).

        ``force=True`` terminates workers instead of letting queued
        tasks finish — the path for an owner that must not wait.
        The executor stays usable: a later fill restarts the pool.  A
        fill in flight on another thread observes the close (its pool
        generation is gone) and raises a clean, retryable
        :class:`~repro.errors.WorkerCrashError` instead of mapping
        work into a dead pool.
        """
        with self._lock:
            self._close_count += 1
            pool, self._pool = self._pool, None
            shipments = list(self._shipments.values())
            self._shipments.clear()
        if pool is not None:
            self._stop_pool(pool, force=force)
        for shipment in shipments:
            shipment.close()

    def __enter__(self) -> "BlockExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def health(self) -> FabricHealth:
        """The executor's :class:`FabricHealth` snapshot (thread-safe)."""
        with self._lock:
            pool = self._pool
            pids: tuple = ()
            if pool is not None:
                pids = tuple(p.pid for p in self._worker_processes(pool))
            return FabricHealth(
                workers=self.workers,
                alive=pool is not None,
                start_method=fabric_start_method(),
                generation=self._generation,
                worker_pids=pids,
                pool_restarts=self._restarts,
                waves_reexecuted=self._waves_reexecuted,
                workers_killed=self._worker_kills,
                inline_fallbacks=self._inline_fallbacks,
                plans_reshipped=self._plans_reshipped,
                integrity_cells_checked=self._integrity_checked,
                integrity_failures=self._integrity_failures,
                segments_reaped=self._reaped,
            )

    # -- shipments -----------------------------------------------------------

    def _shipment_for(
        self,
        plan: ProbePlan,
        blocked_dim: Optional[int],
        sparsify: bool = False,
    ) -> _Shipment:
        base_kind = "levels" if blocked_dim is None else "blocked"
        kind = f"{base_kind}-sparse" if sparsify else base_kind
        key = _plan_key(plan, kind, -1 if blocked_dim is None else blocked_dim)
        with self._lock:
            shipment = self._shipments.get(key)
            if shipment is not None:
                self._shipments.move_to_end(key)
                obs.count("fabric.plan.reused")
                return shipment
        # Build outside the lock: schedule derivation can be expensive.
        if blocked_dim is None:
            schedule = plan.level_schedule
            order = schedule.order
            boundaries = np.asarray(schedule.boundaries, dtype=np.int64)
        else:
            groups = plan.blocked(blocked_dim).fill_groups
            order = (
                np.concatenate(groups)
                if groups
                else np.zeros(0, dtype=np.int64)
            )
            sizes = np.array([g.size for g in groups], dtype=np.int64)
            boundaries = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
            )
        ship_configs = plan.sparse_configs if sparsify else plan.configs
        shipment = _Shipment(
            key, plan.geometry.shape, ship_configs, order, boundaries
        )
        with self._lock:
            existing = self._shipments.get(key)
            if existing is not None:  # raced with another probe thread
                shipment.close()
                self._shipments.move_to_end(key)
                obs.count("fabric.plan.reused")
                return existing
            self._shipments[key] = shipment
            obs.count("fabric.plan.shipped")
            evicted = []
            while len(self._shipments) > self.max_plans:
                _, old = self._shipments.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            old.close()
        return shipment

    def _live_shipment(
        self,
        plan: ProbePlan,
        blocked_dim: Optional[int],
        sparsify: bool,
        shipment: _Shipment,
    ) -> _Shipment:
        """``shipment``, or a rebuilt one if it was closed mid-fill.

        LRU eviction (or a concurrent ``close``) can unlink a shipment
        another thread's fill is still walking; re-shipping is cheap
        and the fresh segment is attached lazily by whichever workers
        need it.
        """
        if not shipment.closed:
            return shipment
        with self._lock:
            if self._shipments.get(shipment.key) is shipment:
                self._shipments.pop(shipment.key, None)
            self._plans_reshipped += 1
        obs.count("fabric.plan.reshipped")
        return self._shipment_for(plan, blocked_dim, sparsify=sparsify)

    # -- supervision ---------------------------------------------------------

    def _maybe_kill_worker(self, procs: list, wave: int) -> bool:
        """Realise a ``fabric.worker`` chaos decision as a real SIGKILL.

        Any kind drawn at the site means the same thing here: an OOMed,
        segfaulted, or wedged worker all present to the parent as a
        process that stops answering.  The short sleep lets workers
        pick their wave tasks up first, so the kill usually lands
        mid-task — the case recovery exists for.  Returns whether a
        kill was delivered.
        """
        if self.faults is None:
            return False
        decide = getattr(self.faults, "decide", None)
        if decide is None:
            return False
        if decide("fabric.worker", target=int(wave)) is None:
            return False
        time.sleep(0.05)
        for proc in procs:
            if proc.pid is None or proc.exitcode is not None:
                continue
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            with self._lock:
                self._worker_kills += 1
            obs.count("fabric.recovery.worker_kills")
            return True
        return False

    def _dispatch_once(self, pool, tasks: list, wave: int):
        """One supervised dispatch of a wave's tasks.

        Returns ``(values, None)`` on success or ``(None, reason)``
        when the wave must be treated as lost.  A dead worker marks
        the executor broken and fails every outstanding future with
        ``BrokenProcessPool`` immediately, so the wait below returns
        promptly on a crash; the deadline only has to catch workers
        that are wedged but still alive.

        A delivered chaos kill loses the wave even when every future
        already completed: the killed worker may have died holding the
        call-queue lock, and ``ProcessPoolExecutor`` can miss the death
        when a result or the shutdown wakeup arrives together with it —
        a clean shutdown then waits forever on a survivor blocked on
        that lock.  The caller force-retires the pool and re-executes
        the wave, which is idempotent.
        """
        try:
            pending = [pool.submit(_fabric_work, t) for t in tasks]
        except BrokenProcessPool:
            return None, "pool-broken"
        except RuntimeError:  # "cannot schedule new futures after shutdown"
            return None, "pool-closed"
        except OSError:
            # submit() spawns workers lazily; a crash that breaks the
            # executor mid-spawn surfaces as a raw OSError ("handle is
            # closed") from the spawn machinery, not BrokenProcessPool.
            return None, "pool-broken"
        if self._maybe_kill_worker(self._worker_processes(pool), wave):
            return None, "worker-killed"
        _, not_done = futures_wait(pending, timeout=self.wave_deadline_s)
        if not_done:
            for fut in not_done:
                fut.cancel()
            return None, "wave-deadline"
        values = []
        try:
            for fut in pending:
                values.append(fut.result())
        except BrokenProcessPool:
            return None, "worker-death"
        except FileNotFoundError:
            # A worker could not attach the plan segment: evicted (or
            # closed) between dispatch and attach.  Re-ship and retry.
            return None, "shipment-missing"
        except (BrokenPipeError, ConnectionError, EOFError, OSError):
            return None, "pool-broken"
        return values, None

    def _respawn(self, expected_pool) -> None:
        """Tear a lost pool down; the next dispatch lazily restarts it.

        No-ops when ``expected_pool`` is no longer current — a
        concurrent fill already respawned, or ``close()`` intervened
        (its caller detects that via the close counter and raises).
        """
        with self._lock:
            if self._pool is not expected_pool:
                return
            self._pool = None
            self._restarts += 1
        obs.count("fabric.recovery.restarts")
        self._stop_pool(expected_pool, force=True)

    def _run_wave_supervised(
        self,
        plan: ProbePlan,
        blocked_dim: Optional[int],
        sparsify: bool,
        shipment: _Shipment,
        arena: SharedTableArena,
        shape: tuple,
        strides: np.ndarray,
        unreach: int,
        dtype: np.dtype,
        size: int,
        cost: np.ndarray,
        lo: int,
        hi: int,
        wave: int,
        close_mark: int,
        state: dict,
    ) -> _Shipment:
        """Execute one parallel wave to completion, recovering losses.

        Re-executing a lost wave is idempotent by construction: its
        cells are disjoint, their dependencies live in earlier waves,
        and the kernel is deterministic — any partial writes from the
        lost dispatch are overwritten with identical values
        (bit-identity is property-tested).  Returns the (possibly
        re-shipped) live shipment for subsequent waves.
        """
        reships = 0
        while True:
            shipment = self._live_shipment(plan, blocked_dim, sparsify, shipment)
            expected = int(np.count_nonzero(shipment.order[lo:hi]))
            wave_costs = cost[shipment.order[lo:hi]].astype(np.float64)
            tasks = [
                (
                    shipment.key,
                    shipment.name,
                    shape,
                    shipment.num_configs,
                    arena.name,
                    dtype.str,
                    size,
                    lo + a,
                    lo + b,
                    sparsify,
                )
                for a, b in split_by_cost(wave_costs, self.workers)
            ]
            pool = self._ensure_pool()
            values, failure = self._dispatch_once(pool, tasks, wave)
            if failure is None and sum(values) != expected:
                # Cell-claim check: every task reports how many cells
                # it wrote; a shortfall means a worker returned without
                # covering its range (unwritten cells are *not*
                # detectable by value — they look unreachable).
                failure = "short-claim"
            if failure is None:
                obs.count("fabric.waves.parallel")
                return shipment
            if self._close_count != close_mark:
                # Not a crash: close(force=...) landed mid-fill.  The
                # generation this fill dispatched into is gone — raise
                # the clean retryable error instead of recovering into
                # a pool the owner just asked us to tear down.
                raise WorkerCrashError(
                    f"fill fabric closed during an in-flight fill (wave "
                    f"{wave}: {failure}); the probe is safe to retry"
                )
            if failure == "shipment-missing":
                if reships < 3:
                    reships += 1
                    shipment.close()  # force _live_shipment to rebuild
                    continue
                failure = "shipment-unattachable"
            if state["restarts"] < self.max_pool_restarts:
                state["restarts"] += 1
                self._respawn(pool)
                with self._lock:
                    self._waves_reexecuted += 1
                obs.count("fabric.recovery.waves_reexecuted")
                continue
            # Budget exhausted: degrade rather than loop forever.
            self._respawn(pool)
            if self.inline_fallback:
                state["degraded_inline"] = True
                _fill_range(
                    arena.table,
                    shipment.order[lo:hi],
                    shipment.configs,
                    shape,
                    strides,
                    unreach,
                    clipped=sparsify,
                )
                with self._lock:
                    self._inline_fallbacks += 1
                obs.count("fabric.recovery.inline_fills")
                obs.count("fabric.waves.inline")
                return shipment
            raise WorkerCrashError(
                f"fill fabric lost wave {wave} ({failure}) and exhausted "
                f"its {self.max_pool_restarts}-restart recovery budget"
            )

    # -- filling -------------------------------------------------------------

    def fill(
        self,
        plan: ProbePlan,
        blocked_dim: Optional[int] = None,
        min_parallel_cells: Optional[int] = None,
        sparsify: bool = False,
    ) -> np.ndarray:
        """Execute one plan's waves; returns the flat int64 table.

        ``blocked_dim=None`` walks the anti-diagonal level schedule
        (Algorithm 2); an integer walks the blocked
        ``(block-level, in-block-level)`` groups for that block count
        (Algorithms 4+5).  Waves below ``min_parallel_cells`` (or all
        waves, for a 1-worker fabric) run inline in the parent; larger
        waves are cut into cost-balanced ranges
        (:func:`~repro.parallel.chunking.split_by_cost`, weighted by
        ``plan.candidates``) and dispatched to the supervised pool.
        The wave loop is the barrier.  Bit-identical to
        :func:`~repro.engines.base.fill_by_groups` over the same
        groups — including after worker deaths, pool respawns, and
        inline degradation (see :meth:`_run_wave_supervised`).

        ``sparsify=True`` ships the plan's dominance-pruned maximal
        subset and fills with clipped gathers (same wave order, fewer
        configuration passes per cell) — the resulting table is still
        bit-identical to the dense fill.
        """
        geometry = plan.geometry
        if geometry.ndim == 0:
            return np.zeros(1, dtype=np.int64)
        threshold = (
            self.min_parallel_cells
            if min_parallel_cells is None
            else int(min_parallel_cells)
        )
        size = geometry.size
        shape = geometry.shape
        dtype = pick_table_dtype(geometry.max_level)
        unreach = unreachable_for(dtype)
        strides = np.asarray(geometry.strides, dtype=np.int64)

        shipment = self._shipment_for(plan, blocked_dim, sparsify=sparsify)
        boundaries = shipment.boundaries
        if int(boundaries[-1]) != size:
            raise DPError(
                f"schedule covered {int(boundaries[-1])} of {size} cells; "
                "waves must tile the table"
            )
        cost = plan.candidates
        obs.count("fabric.fill.calls")
        obs.count("fabric.fill.cells", size)
        close_mark = self._close_count
        # Per-fill recovery budget; "degraded_inline" pins the rest of
        # the fill to the parent once the budget is spent.
        state = {"restarts": 0, "degraded_inline": False}

        with SharedTableArena(size, dtype) as arena:
            table = arena.table
            for wave in range(boundaries.size - 1):
                lo, hi = int(boundaries[wave]), int(boundaries[wave + 1])
                if hi <= lo:
                    continue
                if (
                    self.workers == 1
                    or hi - lo < threshold
                    or state["degraded_inline"]
                ):
                    shipment = self._live_shipment(
                        plan, blocked_dim, sparsify, shipment
                    )
                    _fill_range(
                        table,
                        shipment.order[lo:hi],
                        shipment.configs,
                        shape,
                        strides,
                        unreach,
                        clipped=sparsify,
                    )
                    obs.count("fabric.waves.inline")
                    continue
                shipment = self._run_wave_supervised(
                    plan,
                    blocked_dim,
                    sparsify,
                    shipment,
                    arena,
                    shape,
                    strides,
                    unreach,
                    dtype,
                    size,
                    cost,
                    lo,
                    hi,
                    wave,
                    close_mark,
                    state,
                )
            if self.verify_integrity:
                try:
                    arena.verify(geometry.max_level)
                except TableIntegrityError:
                    with self._lock:
                        self._integrity_failures += 1
                    obs.count("integrity.failures")
                    raise
                with self._lock:
                    self._integrity_checked += size
                obs.count("integrity.checked", size)
            return arena.widened()
