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

— a single numpy slice operation touching every cell at once, followed
by one downward-closure sweep per axis that hands each value on to the
cells it dominates.  Rounds repeat until a fixpoint.  Because ``OPT``
values are machine counts, at most ``OPT(N) + 1`` rounds are needed
(each round finalises all cells one more edge away from the origin —
in practice far fewer because in-place updates propagate within a
round); each round costs ``O(|C_max| * sigma)`` flat numpy work with
no Python-level per-cell loop, following the vectorization idiom of
the HPC guides.

The result is bit-identical to :func:`repro.core.dp_reference.dp_reference`
(tested), at orders of magnitude higher throughput.  With a machine
budget the same loop runs *clamped* at ``m + 1`` — the decision fill
the bisection predicate needs (see :func:`dp_vectorized`).
"""

from __future__ import annotations

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


def shift_selectors(
    shape: tuple[int, ...], configs: np.ndarray, order: np.ndarray
) -> tuple[tuple[tuple, tuple], ...]:
    """Slice-selector pairs for every configuration's relaxation pass.

    For each config ``c`` (visited in ``order``) the pair selects the
    destination view ``dst[u] = table[u]`` for cells ``u >= c`` and the
    source view ``src[u] = table[u - c]``.  Selectors depend only on
    ``(shape, configs, order)`` — i.e. on the probe *plan*, not on any
    concrete table — so
    :attr:`repro.dptable.plan.ProbePlan.sparse_shift_slices` caches
    them across probes, and a single fill builds them once instead of
    once per relaxation round (the tuple-of-slices construction used
    to dominate small-table fills).
    """
    return tuple(
        (
            tuple(slice(int(c), None) for c in configs[idx]),
            tuple(
                slice(None, s - int(c)) for s, c in zip(shape, configs[idx])
            ),
        )
        for idx in order
    )


def closure_views(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reversed-axis views of ``table`` for the downward-closure sweeps.

    Because the configuration set is downward closed, the exact table
    is coordinatewise monotone (a cover of ``v`` covers every ``u <=
    v``), so ``table[u] <= table[u + e_i]`` at the fixpoint.  View
    ``i`` reverses axis ``i``; a ``np.minimum.accumulate`` over it is
    the suffix-min sweep that propagates each cell's value to all
    dominated cells along that axis.
    """
    d = table.ndim
    return tuple(
        table[tuple(slice(None, None, -1) if a == i else slice(None) for a in range(d))]
        for i in range(d)
    )


def run_closure_sweeps(views: tuple[np.ndarray, ...]) -> None:
    """One downward-closure round: a suffix-min sweep along every axis."""
    for axis, view in enumerate(views):
        np.minimum.accumulate(view, axis=axis, out=view)


def bind_passes(
    table: np.ndarray,
    shifts: tuple[tuple[tuple, tuple], ...],
    scratch: np.ndarray,
    mask: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Materialise per-pass working views against one concrete table.

    Each entry is ``(dst, src, cand, improved)``: the two table views
    of one configuration's shift plus that pass's scratch/mask windows.
    All four are views — binding them once lets the round loop run
    pure ufunc calls with zero per-pass Python construction.  Sharing
    one scratch and one mask across passes is safe because passes run
    sequentially and every pass overwrites its windows before reading.
    """
    bound = []
    for dst_sel, src_sel in shifts:
        dst = table[dst_sel]
        src = table[src_sel]
        cand = scratch[: src.size].reshape(src.shape)
        improved = mask[: src.size].reshape(src.shape)
        bound.append((dst, src, cand, improved))
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
    sparse_shifts: tuple | None = None,
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
    ``sparse_configs`` / ``sparse_shifts`` are the plan-cached layers
    (:attr:`~repro.dptable.plan.ProbePlan.sparse_configs` /
    :attr:`~repro.dptable.plan.ProbePlan.sparse_shift_slices`); a call
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

    if sparse_shifts is None:
        if sparse_configs is None:
            sparse_configs, _ = sparsify_configurations(configs)
        sparse_order = np.argsort(-sparse_configs.sum(axis=1), kind="stable")
        sparse_shifts = shift_selectors(shape, sparse_configs, sparse_order)
    views = closure_views(table)
    if warm_init is not None:
        # Close the seed: the round loop below stops on the first round
        # whose box passes change nothing, which is a fixpoint only if
        # each round starts from a downward-closed table.
        run_closure_sweeps(views)

    # One scratch buffer (plus one bool mask) reused by every config
    # pass: each pass needs a copy of the shifted source — src may
    # alias dst — but a fresh `src + 1` allocation per pass makes the
    # allocator the bottleneck on large tables.  Every pass's views
    # are at most table-sized, so slices of these two flats suffice.
    # All per-pass views are bound once, before the loop: the rounds
    # then execute pure ufunc calls (the np.add below copies src into
    # the scratch window first because src may alias dst).
    scratch = np.empty(table.size, dtype=dtype)
    mask = np.empty(table.size, dtype=bool)
    bound = bind_passes(table, sparse_shifts, scratch, mask)
    corner = tuple(s - 1 for s in shape)
    early_accept = clamp is not None and warm_init is None

    for rounds in range(1, max_rounds + 1):
        changed = False
        for dst, src, cand, improved in bound:
            np.add(src, 1, out=cand)
            np.less(cand, dst, out=improved)
            if improved.any():
                np.copyto(dst, cand, where=improved)
                changed = True
        run_closure_sweeps(views)
        if early_accept and table[corner] <= min(machines, rounds):
            # Every stored value <= rounds is final: so are the corner
            # and the backtrack chain below it.
            obs.count("dp.decision.early_accept")
            break
        if not changed:
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
