"""Configuration sparsification: dominance-pruned cover sets (PR 9).

Every configuration set the library enumerates is **downward closed**:
membership is defined by componentwise caps (``s <= counts``), a load
budget (``s . sizes <= T``), and optionally a cardinality cap
(``sum(s) <= B`` — the time-restricted model), all of which survive
decreasing any component.  Downward closure buys a classical
sparsification (the observation behind Jansen–Klein–Verschae's
makespan sparsification, applied here at the configuration-set level):

* Call ``c`` *maximal* if no ``c + e_j`` (one more job of any class)
  is still in the set.  Dominated configurations — those componentwise
  ``<=`` a maximal one — are redundant for the DP **provided the
  recurrence is read as a cover**: a machine assigned ``c`` may run any
  sub-vector of ``c``.
* Min-cover equals min-partition at *every* lattice cell: a partition
  is a cover, and any cover shrinks componentwise to a partition
  because the set is downward closed.  Covering with maximal
  configurations only is also lossless (replace any part by a maximal
  configuration dominating it).

The cover recurrence is ``OPT(u) = 1 + min_c OPT(clip(u - c))`` with
``clip`` the componentwise max against zero, restricted to
configurations that actually intersect ``u``'s support
(``clip(u - c) != u``; disjoint-support configurations cover nothing
and would self-depend).  The fixpoint of that recurrence over the
maximal set is **bit-identical** to the exact full-set table — the
``auto`` kernel exploits it via box passes plus downward-closure
sweeps in :func:`repro.core.dp_vectorized.dp_vectorized` (for any
maximal ``c``, ``clip(u - c) = max(u, c) - c``, so monotone
propagation recovers the clipped candidate from the exact box one),
and via clipped gathers on the fill fabric.

Plain maximal-only pruning under the *exact subtraction* recurrence is
unsound — with ``counts=(3,)``, ``sizes=(1,)``, ``T=2`` the maximal
set is ``{(2,)}`` and the cell ``(3,)`` becomes unreachable although
``OPT = 2`` — which is exactly why every sparse consumer in this
library clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import DPError
from repro.observability import context as obs


@dataclass(frozen=True)
class SparsifyStats:
    """Outcome of one sparsification pass."""

    #: configurations surviving dominance pruning (and the support cap).
    kept: int
    #: configurations removed.
    dropped: int


def maximal_mask(
    configs: np.ndarray,
    counts: Optional[Sequence[int]] = None,
    class_sizes: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
    max_jobs: Optional[int] = None,
) -> np.ndarray:
    """Boolean mask of the maximal configurations of a downward-closed set.

    With the defining constraints in hand (``counts``, ``class_sizes``,
    ``target``, and optionally ``max_jobs``) the test is pure
    arithmetic, ``O(|C| * d)``: ``c`` is maximal iff for every class
    ``j`` the unit increment ``c + e_j`` violates a constraint.

    Without them (model-filtered sets whose constraints live with the
    model) the test falls back to set membership — ``c`` is maximal iff
    no ``c + e_j`` is a row of ``configs`` — which is equivalent for
    any downward-closed set because dominance is generated by unit
    increments.  Membership is read from a boolean bitmap over the
    rows' bounding box, also ``O(|C| * d)`` whole-array work.  Both
    routes produce identical masks (tested).
    """
    if configs.ndim != 2:
        raise DPError("configs must be a 2-D array")
    n, d = configs.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    if class_sizes is not None and target is not None and counts is not None:
        sizes = np.asarray([int(s) for s in class_sizes], dtype=np.int64)
        caps = np.asarray([int(c) for c in counts], dtype=np.int64)
        if sizes.shape[0] != d or caps.shape[0] != d:
            raise DPError(
                f"constraint vectors must have {d} components, got "
                f"sizes={sizes.shape[0]}, counts={caps.shape[0]}"
            )
        loads = configs @ sizes
        blocked = (configs >= caps[None, :]) | (
            loads[:, None] + sizes[None, :] > int(target)
        )
        if max_jobs is not None:
            blocked |= (configs.sum(axis=1) + 1 > int(max_jobs))[:, None]
        return blocked.all(axis=1)
    if d == 0:
        return np.ones(n, dtype=bool)  # nothing to increment
    # Membership through a bitmap over the rows' bounding box
    # ``[0, max]`` (configurations are counts, never negative): row
    # ``c`` extends along axis ``j`` iff ``c_j + 1`` stays inside the
    # box and that cell (``flat + stride_j``) is marked.
    rows = np.asarray(configs, dtype=np.int64)
    box = rows.max(axis=0) + 1
    flat = np.ravel_multi_index(rows.T, box)
    member = np.zeros(int(np.prod(box)), dtype=bool)
    member[flat] = True
    strides = np.cumprod(np.append(1, box[:0:-1]))[::-1]
    inside = rows + 1 < box
    bumped = np.where(inside, flat[:, None] + strides, 0)
    return ~(inside & member[bumped]).any(axis=1)


def sparsify_configurations(
    configs: np.ndarray,
    counts: Optional[Sequence[int]] = None,
    class_sizes: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
    max_jobs: Optional[int] = None,
    support_cap: Optional[int] = None,
) -> tuple[np.ndarray, SparsifyStats]:
    """Dominance-prune ``configs`` down to its maximal subset.

    Returns ``(sparse, stats)``: the maximal configurations in their
    original (lexicographic) row order, read-only, plus the
    kept/dropped tally.  Emits the ``sparsify.kept`` /
    ``sparsify.dropped`` observability counters.

    ``support_cap`` additionally drops maximal configurations using
    more than that many distinct classes — the JKV-style support cap.
    Unlike dominance pruning it is **not** exactness-preserving in
    general, so nothing in the library applies it by default; it is an
    opt-in experiment knob for decision probes that can tolerate a
    one-sided (conservative) feasibility answer.
    """
    if configs.shape[0] == 0:
        return configs, SparsifyStats(kept=0, dropped=0)
    mask = maximal_mask(
        configs,
        counts=counts,
        class_sizes=class_sizes,
        target=target,
        max_jobs=max_jobs,
    )
    sparse = np.ascontiguousarray(configs[mask])
    if support_cap is not None:
        sparse = np.ascontiguousarray(
            sparse[(sparse != 0).sum(axis=1) <= int(support_cap)]
        )
    sparse.setflags(write=False)
    stats = SparsifyStats(
        kept=int(sparse.shape[0]),
        dropped=int(configs.shape[0] - sparse.shape[0]),
    )
    obs.count("sparsify.calls")
    obs.count("sparsify.kept", stats.kept)
    obs.count("sparsify.dropped", stats.dropped)
    return sparse, stats
