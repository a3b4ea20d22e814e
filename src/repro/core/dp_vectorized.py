"""Vectorized high-dimensional DP (the library's production solver).

Equation 1 defines a shortest-path problem on the lattice
``prod(n_i + 1)``: edges subtract one configuration, all edges have
weight 1, and ``OPT(u)`` is the distance from the origin.  Instead of
walking cells one by one (Algorithm 2), this solver runs *whole-table
relaxation rounds* over the maximal configurations only
(:mod:`repro.core.sparsify`): for each maximal ``c`` it takes the
elementwise minimum between a shifted view of the table and the table
plus one —

    ``OPT[c_1:, ..., c_d:] = min(OPT[c_1:, ..., c_d:], OPT[:-c_1, ..., :-c_d] + 1)``

— followed by one downward-closure sweep per axis that hands each
value on to the cells it dominates.  Rounds repeat until a fixpoint.
Because ``OPT`` values are machine counts, at most ``OPT(N) + 1``
rounds are needed (each round finalises all cells one more edge away
from the origin — in practice far fewer because in-place updates
propagate within a round).

**Block-contiguous passes** (the host counterpart of Algorithm 4's
data partitioning).  Written as a ``d``-dimensional slice, the box
pass above walks a strided view whose innermost contiguous run is one
axis long — 2-7 cells on the 7-14-dimensional tables of real probes —
and that short-run walk, not the arithmetic, is what a pass costs.
So each pass runs on ``table.reshape(outer + (S,))`` instead, the
trailing axes merged (a free C-order reshape) into one block of
``S >= MIN_BLOCK_CELLS`` cells: the destination is
``[c_outer:, off:]`` and the source ``[:-c_outer, :S - off]`` with
``off = c_inner . strides``, so every pass streams runs of the block's
length.  Block lane ``f`` then reads lane ``f - off``, which is the
cell ``u - c`` unless a merged digit would borrow (``u_i < c_i``); on
those lanes the pass adds the dtype's unreachable sentinel instead of
one, so the candidate never wins.  Every pass therefore updates
exactly the cells of the ``d``-dimensional box pass, to the same
values, and every round ends on the same table.  The closure sweeps
likewise run slab by slab (:func:`closure_views`).  Offsets, lane
masks and slice pairs depend only on the shape and the configurations,
so :class:`~repro.dptable.plan.ProbePlan` builds them once
(:func:`shift_selectors`).

The result is bit-identical to :func:`repro.core.dp_reference.dp_reference`
(tested).  With a machine budget the same loop runs *clamped* at
``m + 1`` — the decision fill the bisection predicate needs (see
:func:`dp_vectorized`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.configs import enumerate_configurations
from repro.core.dp_common import (
    DPResult,
    UNREACHABLE,
    empty_dp_result,
    pick_table_dtype,
    unreachable_for,
    widen_table,
)
from repro.core.rounding import RoundedInstance
from repro.core.sparsify import sparsify_configurations
from repro.errors import DPError
from repro.observability import context as obs


#: Fewest cells the merged trailing block of a box pass holds.  The
#: trailing axes of the table merge (a free C-order reshape) until
#: their product reaches this, so a pass streams runs of up to this
#: many cells.  Of 32/128/256/512, 128 filled batch-decision's tables
#: fastest, plan build included: larger blocks shorten the passes a
#: little but cost more lane masks.
MIN_BLOCK_CELLS = 128


@dataclass(frozen=True)
class PassPlan:
    """The block-contiguous box passes of one relaxation fill.

    ``blocked_shape`` is the table's shape with its trailing axes
    merged into one block of at least :data:`MIN_BLOCK_CELLS` cells
    (all axes when the table is smaller).  For each configuration
    ``c`` (in relaxation order), ``selectors`` holds the pair of
    selectors on the blocked table: the destination
    ``[c_outer:, off:]`` and the source ``[:-c_outer, :S - off]``,
    where ``off = c_inner . strides`` is ``c``'s flat offset inside
    the block.  Lane ``f`` of the destination reads lane ``f - off``
    of the source, which is the cell ``u - c`` unless some merged
    digit would borrow (``u_i < c_i``).  Row ``rows[k]`` of ``valid``
    marks pass ``k``'s block lanes without a borrow, and
    :meth:`increments` turns it into the per-lane addend (``1``, or
    the dtype's unreachable sentinel where the lane must not win).
    """

    blocked_shape: tuple[int, ...]
    selectors: tuple[tuple[tuple, tuple], ...]
    offsets: tuple[int, ...]
    rows: tuple[int, ...]
    valid: np.ndarray
    _increments: dict = field(default_factory=dict, compare=False, repr=False)

    def increments(self, dtype: np.dtype) -> tuple[np.ndarray, ...]:
        """Per-pass lane addends in ``dtype``, built once per dtype.

        A borrowed lane adds :func:`unreachable_for` ``(dtype)``: the
        source holds at most that sentinel, so the candidate stays
        within ``2 * (max // 4)`` (no overflow) and never undercuts the
        destination, which is at most the sentinel too.
        """
        dtype = np.dtype(dtype)
        rows = self._increments.get(dtype)
        if rows is None:
            full = np.where(self.valid, dtype.type(1), dtype.type(unreachable_for(dtype)))
            full.setflags(write=False)
            rows = tuple(full[r, off:] for r, off in zip(self.rows, self.offsets))
            self._increments[dtype] = rows
        return rows


def shift_selectors(
    shape: tuple[int, ...], configs: np.ndarray, order: np.ndarray
) -> PassPlan:
    """The :class:`PassPlan` of every configuration's relaxation pass.

    It depends only on ``(shape, configs, order)``, the probe *plan*,
    not on any concrete table, so
    :attr:`repro.dptable.plan.ProbePlan.sparse_passes` caches it across
    probes.  Offsets and lane masks come from array operations over
    all configurations at once.
    """
    split = len(shape)
    block = 1
    while split > 0 and block < MIN_BLOCK_CELLS:
        split -= 1
        block *= shape[split]
    inner = shape[split:]
    strides = np.array([math.prod(inner[i + 1 :]) for i in range(len(inner))], dtype=np.int64)
    configs = np.asarray(configs, dtype=np.int64)
    # Reordered as lists: numpy's fancy indexing releases the GIL, and
    # on a busy service thread each release can cost a switch interval.
    order = np.asarray(order).tolist()
    offsets = (configs[:, split:] @ strides).tolist()
    offsets = [offsets[k] for k in order]
    outer = configs[:, :split].tolist()
    # A lane mask depends only on c_inner, which its offset encodes, so
    # configurations sharing an offset share one mask row.
    distinct: dict[int, int] = {}
    rows = tuple(distinct.setdefault(off, len(distinct)) for off in offsets)
    # One (rows x block) comparison per merged axis: numpy releases the
    # GIL on operations over more than 500 elements, and a tiny table's
    # plan stays under that where a single 3-D comparison would not.
    lanes = np.arange(block, dtype=np.int64)
    starts = np.array(list(distinct), dtype=np.int64)
    valid = np.ones((starts.size, block), dtype=bool)
    for stride, size in zip(strides.tolist(), inner):
        valid &= (lanes // stride % size)[None, :] >= (starts // stride % size)[:, None]
    valid.setflags(write=False)
    heads = [[slice(v, None) for v in range(s)] for s in shape[:split]]
    tails = [[slice(None, s - v) for v in range(s)] for s in shape[:split]]
    selectors = tuple(
        (
            tuple(map(list.__getitem__, heads, row)) + (slice(off, None),),
            tuple(map(list.__getitem__, tails, row)) + (slice(None, block - off),),
        )
        for row, off in zip((outer[k] for k in order), offsets)
    )
    return PassPlan(
        blocked_shape=tuple(shape[:split]) + (block,),
        selectors=selectors,
        offsets=tuple(offsets),
        rows=rows,
        valid=valid,
    )


def closure_views(table: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Slab pairs of ``table`` for the downward-closure sweeps.

    Because the configuration set is downward closed, the exact table
    is coordinatewise monotone (a cover of ``v`` covers every ``u <=
    v``), so ``table[u] <= table[u + e_i]`` at the fixpoint.  Seen as
    ``table.reshape(A, s_i, B)``, axis ``i``'s suffix-min sweep is
    ``v[:, j] = min(v[:, j], v[:, j + 1])`` for ``j`` descending.  The
    pairs come in that order, axis by axis: one ufunc call per slab
    covers ``A`` runs of ``B`` contiguous cells, where an
    ``accumulate`` along the axis walks ``A * B`` lines of ``s_i``
    strided cells (2-7 on real probes).
    """
    pairs = []
    after = table.size
    before = 1
    for size in table.shape:
        after //= size
        slabs = list(table.reshape(before, size, after).swapaxes(0, 1))
        pairs.extend(zip(slabs[-2::-1], slabs[:0:-1]))
        before *= size
    return tuple(pairs)


def run_closure_sweeps(views: tuple[tuple[np.ndarray, np.ndarray], ...]) -> None:
    """One downward-closure round: a suffix-min sweep along every axis."""
    for lower, upper in views:
        np.minimum(lower, upper, out=lower)


def bind_passes(
    table: np.ndarray,
    passes: PassPlan,
    scratch: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Materialise per-pass working views against one concrete table.

    Each entry is ``(dst, src, cand, inc)``: the two blocked-table
    views of one configuration's shift, that pass's scratch window and
    its lane addend.  Binding them once lets the round loop run pure
    ufunc calls with zero per-pass Python construction.  Sharing one
    scratch across passes is safe because passes run sequentially and
    every pass overwrites its window before reading it.
    """
    blocked = table.reshape(passes.blocked_shape)
    bound = []
    for (dst_sel, src_sel), inc in zip(
        passes.selectors, passes.increments(table.dtype)
    ):
        src = blocked[src_sel]
        cand = scratch[: src.size].reshape(src.shape)
        bound.append((blocked[dst_sel], src, cand, inc))
    return bound


def seed_warm_table(
    table: np.ndarray, warm_table: np.ndarray, cap: int | None = None
) -> np.ndarray:
    """Min-fold a cached table into a freshly initialised fill table.

    ``warm_table`` is a canonical int64 table from a *smaller or equal*
    scaled budget of the same table family: its values are valid upper
    bounds on this fill's fixpoint (fewer configurations can only need
    more machines), so min-folding it preserves the
    upper-bound-and-monotone-decrease invariant of every relaxation
    kernel and Bellman–Ford still converges to the same unique
    fixpoint.  Sentinels at or above :data:`UNREACHABLE` map to the
    narrow dtype's own sentinel; ``cap`` (a decision clamp) bounds the
    seed for clamped fills.  Returns a copy of the seeded table so the
    caller can count ``warmstart.cells_reused`` at the end.
    """
    warm = np.asarray(warm_table)
    if warm.shape != table.shape:
        raise DPError(
            f"warm table shape {warm.shape} does not match fill shape "
            f"{table.shape}"
        )
    sentinel = unreachable_for(table.dtype)
    seed = np.where(warm >= UNREACHABLE, sentinel, warm)
    if cap is not None:
        seed = np.minimum(seed, int(cap))
    np.minimum(table, seed.astype(table.dtype), out=table)
    return table.copy()


def note_warm_convergence(table: np.ndarray, warm_init: np.ndarray) -> None:
    """Emit the warm-start reuse counters after a warm fill converged."""
    obs.count("warmstart.fills")
    obs.count(
        "warmstart.cells_reused", int(np.count_nonzero(table == warm_init))
    )


def dp_vectorized(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    configs: np.ndarray | None = None,
    max_rounds: int | None = None,
    model_token: tuple | None = None,
    sparse_configs: np.ndarray | None = None,
    sparse_passes: PassPlan | None = None,
    warm_table: np.ndarray | None = None,
    machines: int | None = None,
) -> DPResult:
    """Fill the DP-table by repeated vectorized relaxation.

    Parameters mirror :func:`repro.core.dp_reference.dp_reference`.

    ``max_rounds`` caps the relaxation loop (defaults to the number of
    long jobs plus one, the worst-case diameter, or to the clamp plus
    two when ``machines`` is set); reaching the cap without convergence
    indicates a bug and raises :class:`DPError`.

    The relaxation runs over the dominance-pruned maximal subset of
    ``configs`` only (:mod:`repro.core.sparsify`).  The cover
    recurrence ``OPT[u] = min_c OPT[clip(u - c)] + 1`` is realised as
    plain *box* passes over the maximal subset plus one
    downward-closure sweep per axis per round: for any maximal ``c``,
    ``clip(u - c) = v - c`` where ``v = max(u, c)`` elementwise, so the
    clipped candidate at ``u`` is the exact box candidate at ``v``
    propagated down by monotonicity (:func:`closure_views`).  On a
    downward-closed set that is the fixpoint of Equation 1, so the
    table is bit-identical to the reference fill's, and ``configs``
    (the full set, which the backtrack walks) is returned unchanged.
    ``sparse_configs`` / ``sparse_passes`` are the plan-cached layers
    (:attr:`~repro.dptable.plan.ProbePlan.sparse_configs` /
    :attr:`~repro.dptable.plan.ProbePlan.sparse_passes`); a call
    without them prunes ``configs`` itself.

    ``warm_table`` seeds the fill from a cached table of the same
    family at a smaller scaled budget (see :func:`seed_warm_table`);
    the fixpoint — and therefore the result — is unchanged, only the
    round count drops.

    ``machines`` turns the fill into the decision fill for
    ``OPT(N) <= machines`` (Algorithm 1 line 11): the table starts at
    the clamp ``machines + 1`` instead of the unreachable sentinel, so
    cells beyond the budget never update and the fixpoint arrives
    within ``min(OPT*, machines + 1) + 1`` rounds.  The result carries
    :attr:`~repro.core.dp_common.DPResult.clamp`; values below it are
    exact, because every stored value is the length of a real
    configuration chain and after ``r`` rounds every value ``<= r`` is
    final.  So the fill stops early once the corner holds a value
    ``<= min(machines, r)``: the backtrack only tests
    ``table[prev] == current - 1`` below the corner, and those tests
    pass iff they pass on the exact table — accepted tables extract the
    exact fill's schedule (tested).  Warm fills skip the early accept
    (seeded values are upper bounds, not chain lengths).  When the load
    alone proves the reject (``sum(counts * sizes) > machines * T``)
    the clamp-initialised table returns unfilled; rejected probes are
    never backtracked and the probe cache keys clamped tables per
    budget, so its clamped interior is never read.

    The fill runs in the narrowest dtype that holds ``sum(counts)``
    (or the clamp) — usually int16, a 4x cut in memory traffic per
    relaxation pass — and is widened to the canonical int64 table at
    the end, so the result is bit-identical to an int64 fill.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(class_sizes):
        raise DPError("counts and class_sizes must have equal length")
    clamp = None
    if machines is not None:
        machines = int(machines)
        if machines < 0:
            raise DPError(f"machines must be >= 0, got {machines}")
        clamp = machines + 1
    if len(counts) == 0:
        return empty_dp_result()
    if model_token is not None and configs is None:
        raise DPError(
            "model-filtered probes must supply their configuration set"
        )
    if configs is None:
        configs = enumerate_configurations(class_sizes, counts, target)

    kind = "vectorized" if clamp is None else "decision"
    dtype = pick_table_dtype(sum(counts) if clamp is None else clamp)
    shape = tuple(c + 1 for c in counts)
    table = np.full(
        shape, unreachable_for(dtype) if clamp is None else clamp, dtype=dtype
    )
    table[(0,) * len(counts)] = 0

    if configs.shape[0] == 0:
        # No machine can take even one job within T: only the origin is
        # reachable.
        return DPResult(table=widen_table(table), configs=configs, clamp=clamp)

    if clamp is not None and sum(
        c * int(s) for c, s in zip(counts, class_sizes)
    ) > machines * int(target):
        obs.count("dp.decision.calls")
        obs.count("dp.decision.load_rejects")
        obs.count("dp.decision.rejects")
        return DPResult(table=widen_table(table), configs=configs, clamp=clamp)

    warm_init = None
    if warm_table is not None:
        warm_init = seed_warm_table(table, warm_table, cap=clamp)

    if max_rounds is None:
        # The clamped fixpoint arrives within clamp rounds; +2 headroom
        # for the no-change detection round.
        max_rounds = (
            sum(counts) + 1 if clamp is None else min(sum(counts), clamp) + 2
        )

    if sparse_passes is None:
        if sparse_configs is None:
            sparse_configs, _ = sparsify_configurations(configs)
        sparse_order = np.argsort(-sparse_configs.sum(axis=1), kind="stable")
        sparse_passes = shift_selectors(shape, sparse_configs, sparse_order)
    views = closure_views(table)
    if warm_init is not None:
        # Close the seed: the round loop below stops on the first round
        # that changes nothing, which is a fixpoint only if each round
        # starts from a downward-closed table.
        run_closure_sweeps(views)

    # One scratch buffer reused by every pass: each pass needs a copy of
    # the shifted source (src may alias dst), and a fresh allocation per
    # pass makes the allocator the bottleneck on large tables.
    scratch = np.empty(table.size, dtype=dtype)
    bound = bind_passes(table, sparse_passes, scratch)
    corner = tuple(s - 1 for s in shape)
    early_accept = clamp is not None and warm_init is None
    # Values only ever decrease, so a round changed the table iff its
    # sum dropped.  A round whose box passes change nothing leaves its
    # sweeps nothing to do either, since every round starts closed.
    total = int(np.add.reduce(table, axis=None, dtype=np.int64))

    for rounds in range(1, max_rounds + 1):
        for dst, src, cand, inc in bound:
            np.add(src, inc, out=cand)
            np.minimum(dst, cand, out=dst)
        run_closure_sweeps(views)
        if early_accept and table[corner] <= min(machines, rounds):
            # Every stored value <= rounds is final: so are the corner
            # and the backtrack chain below it.
            obs.count("dp.decision.early_accept")
            break
        previous, total = total, int(np.add.reduce(table, axis=None, dtype=np.int64))
        if total == previous:
            break
    else:
        raise DPError(
            f"relaxation did not converge within {max_rounds} rounds "
            f"(shape={shape}, |passes|={len(bound)}, clamp={clamp})"
        )

    obs.count(f"dp.{kind}.calls")
    obs.count(f"dp.{kind}.rounds", rounds)
    obs.count(f"dp.{kind}.config_passes", rounds * len(bound))
    if warm_init is not None:
        note_warm_convergence(table, warm_init)
    result = DPResult(table=widen_table(table), configs=configs, clamp=clamp)
    if result.decided_infeasible:
        obs.count("dp.decision.rejects")
    return result


def dp_vectorized_for(rounded: RoundedInstance, configs: np.ndarray | None = None) -> DPResult:
    """Vectorized DP on a :class:`RoundedInstance`."""
    return dp_vectorized(rounded.counts, rounded.class_sizes, rounded.target, configs)
