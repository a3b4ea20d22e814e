"""Shared types for the high-dimensional DP solvers.

Every DP implementation in the library (reference, vectorized, and the
simulator-instrumented engines) produces a :class:`DPResult` over the
same dense table so they can be compared cell-for-cell in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import DPError

#: Sentinel for "no packing reaches this cell".  Large enough that
#: ``UNREACHABLE + 1`` never overflows int64 and never collides with a
#: real machine count.
UNREACHABLE: int = np.iinfo(np.int64).max // 4

#: Narrow table dtypes the solvers may fill with, smallest first.  DP
#: values are machine counts bounded by ``sum(counts)``, so most probes
#: fit comfortably in int16 — a 4x cut in memory traffic per relaxation
#: pass against the historical always-int64 tables.
_TABLE_DTYPES = (np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64))


#: Each table dtype's sentinel, worked out once: a fill asks for it
#: several times, and ``np.iinfo`` costs more than a tiny fill's pass.
_SENTINELS = {dtype: int(np.iinfo(dtype).max) // 4 for dtype in _TABLE_DTYPES}


def unreachable_for(dtype: np.dtype) -> int:
    """The per-dtype "no packing" sentinel (``iinfo(dtype).max // 4``).

    Mirrors :data:`UNREACHABLE`'s construction so ``sentinel + 1`` can
    never overflow the narrow dtype either; :func:`widen_table` maps it
    back to the canonical int64 :data:`UNREACHABLE` at the end of a
    fill.
    """
    dtype = np.dtype(dtype)
    sentinel = _SENTINELS.get(dtype)
    return int(np.iinfo(dtype).max) // 4 if sentinel is None else sentinel


def pick_table_dtype(value_bound: int) -> np.dtype:
    """Smallest table dtype that can hold values up to ``value_bound``.

    ``value_bound`` is the largest finite value a fill can produce —
    ``sum(counts)`` for an exact fill, ``machines + 1`` for a clamped
    decision fill.  The chosen dtype must keep ``value_bound`` strictly
    below its :func:`unreachable_for` sentinel (so real values and the
    sentinel never collide) with headroom for the ``sentinel + 1``
    temporaries the relaxation kernels create.
    """
    bound = int(value_bound)
    for dtype in _TABLE_DTYPES:
        if bound + 2 <= unreachable_for(dtype):
            return dtype
    return _TABLE_DTYPES[-1]


def relaxation_scratch_bytes(sigma: int, dtype: np.dtype) -> int:
    """Transient footprint of one relaxation fill: two full-size buffers.

    The in-place relaxation kernels keep the table plus one same-shape
    scratch buffer alive at once; this is the quantity the ``auto``
    kernel's cost model compares against its memory budget.
    """
    return 2 * int(sigma) * int(dtype.itemsize)


def estimate_fill_bytes(counts, value_bound: Optional[int] = None) -> int:
    """Conservative peak-byte estimate for one dense DP fill — no allocation.

    The base estimate is ``sigma * (narrow_itemsize + 8)``: the
    narrow-dtype fill buffer (dtype from :func:`pick_table_dtype` at
    ``value_bound``, default ``sum(counts)``) plus the canonical int64
    table that :func:`widen_table` materialises at the end.

    Everything is arithmetic on the count vector, so admission control
    (:class:`repro.resilience.AdmissionController`) can reject an
    oversized probe *before* any array exists.
    """
    counts = tuple(int(c) for c in counts)
    sigma = 1
    for c in counts:
        sigma *= c + 1
    bound = int(value_bound) if value_bound is not None else sum(counts)
    dtype = pick_table_dtype(bound)
    return sigma * (int(dtype.itemsize) + int(np.dtype(np.int64).itemsize))


def widen_table(table: np.ndarray) -> np.ndarray:
    """Upcast a narrow-dtype fill to the canonical int64 table.

    Finite values are exact machine counts and carry over verbatim; the
    narrow dtype's :func:`unreachable_for` sentinel becomes the int64
    :data:`UNREACHABLE`, so the widened table is bit-identical to one
    filled in int64 directly (tested).  int64 input is returned as-is.
    """
    if table.dtype == np.int64:
        return table
    sentinel = unreachable_for(table.dtype)
    wide = table.astype(np.int64)
    wide[table >= sentinel] = UNREACHABLE
    return wide


@dataclass(frozen=True)
class DPResult:
    """Outcome of filling the DP-table for one ``(N, T)`` probe.

    Attributes
    ----------
    table:
        Dense int64 array of shape ``(n_1+1, ..., n_d+1)``.
        ``table[u] = OPT(u)`` — the minimum number of machines that
        schedule the job vector ``u`` within the target — or
        :data:`UNREACHABLE`.  ``table[0,...,0] == 0``.
    configs:
        The ``(num_configs, d)`` configuration set used (Equation 1's
        ``C``), in the library's canonical lexicographic order.
    clamp:
        ``None`` for an exact fill.  For a decision-mode fill
        (:func:`~repro.core.dp_vectorized.dp_vectorized` with
        ``machines=``) the saturation value
        ``machines + 1``: every cell whose true ``OPT`` is at least
        ``clamp`` — including unreachable cells — holds exactly
        ``clamp``, while values below it are exact.  Such a table
        answers ``fits(machines)`` and is backtrackable whenever the
        probe accepts, but must not be reused under a different
        machine budget (the probe cache keys clamped tables per
        budget).
    """

    table: np.ndarray
    configs: np.ndarray
    clamp: Optional[int] = None

    def __post_init__(self) -> None:
        if self.table.dtype != np.int64:
            raise DPError(f"DP table must be int64, got {self.table.dtype}")
        if self.configs.ndim != 2:
            raise DPError("configs must be a 2-D array")
        if self.table.ndim != self.configs.shape[1] and self.configs.shape[0] > 0:
            raise DPError(
                f"table has {self.table.ndim} dims but configs have "
                f"{self.configs.shape[1]} components"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        """DP-table shape ``(n_1+1, ..., n_d+1)``."""
        return tuple(self.table.shape)

    @property
    def opt(self) -> int:
        """``OPT(N)`` — machines needed for the full job vector.

        :data:`UNREACHABLE` means no packing exists for this target
        (possible when some single job exceeds ``T``).
        """
        return int(self.table[tuple(s - 1 for s in self.table.shape)])

    @property
    def feasible(self) -> bool:
        """Whether *any* packing of the full job vector exists.

        A clamped table cannot distinguish "needs more than the budget"
        from "no packing at all" — both saturate at :attr:`clamp` — so
        for decision-mode results check :attr:`decided_infeasible`
        first (the probe driver does).
        """
        return self.opt < UNREACHABLE

    @property
    def decided_infeasible(self) -> bool:
        """Decision-mode rejection: the corner cell hit the clamp.

        ``True`` means the fill proved ``OPT(N) > machines`` (or no
        packing exists at all) for the machine budget the table was
        clamped at; always ``False`` for exact fills.
        """
        return self.clamp is not None and self.opt >= self.clamp

    def fits(self, machines: int) -> bool:
        """``OPT(N) <= machines`` — the bisection predicate (Alg. 1 line 11).

        Valid on a clamped table only for budgets below the clamp
        (``machines < clamp``); larger budgets would read saturated
        values as real counts.
        """
        if self.clamp is not None and machines >= self.clamp:
            raise DPError(
                f"table is clamped at {self.clamp}; fits({machines}) is "
                "undecidable — re-solve with a larger machine budget"
            )
        return self.opt <= machines


def empty_dp_result() -> DPResult:
    """Result for the degenerate no-long-jobs case: a 0-d table with OPT=0.

    When the rounding step classifies every job as short, the DP is
    trivial — zero machines are needed for zero long jobs — and the
    bisection predicate reduces to whether the short jobs pack greedily.
    """
    table = np.zeros((), dtype=np.int64)
    return DPResult(table=table, configs=np.zeros((0, 0), dtype=np.int64))
