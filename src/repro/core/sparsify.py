"""Configuration sparsification: dominance-pruned cover sets.

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
maximal set is **bit-identical** to the exact full-set table — every
relaxation fill, :func:`repro.core.dp_vectorized.dp_vectorized` (which
``auto`` runs), exploits it via box passes plus downward-closure
sweeps (for any maximal ``c``, ``clip(u - c) = max(u, c) - c``, so
monotone propagation recovers the clipped candidate from the exact
box one), and the fill fabric via clipped gathers.

The maximal set is found one way, by set membership
(:func:`maximal_mask`), so it is a function of the configuration set
alone — whatever constraints (budget, caps, a model's filter)
generated it.

Plain maximal-only pruning under the *exact subtraction* recurrence is
unsound — with ``counts=(3,)``, ``sizes=(1,)``, ``T=2`` the maximal
set is ``{(2,)}`` and the cell ``(3,)`` becomes unreachable although
``OPT = 2`` — which is exactly why every sparse consumer in this
library clips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DPError
from repro.observability import context as obs


@dataclass(frozen=True)
class SparsifyStats:
    """Outcome of one sparsification pass."""

    #: configurations surviving dominance pruning.
    kept: int
    #: configurations removed.
    dropped: int


def maximal_mask(configs: np.ndarray) -> np.ndarray:
    """Boolean mask of the maximal configurations of a downward-closed set.

    ``c`` is maximal iff no ``c + e_j`` is a row of ``configs``, which
    for a downward-closed set is maximality itself, because dominance
    is generated by unit increments.  Membership is read from a
    boolean bitmap over the rows' bounding box: ``O(|C| * d)``
    whole-array work.
    """
    if configs.ndim != 2:
        raise DPError("configs must be a 2-D array")
    n, d = configs.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
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


def sparsify_configurations(configs: np.ndarray) -> tuple[np.ndarray, SparsifyStats]:
    """Dominance-prune ``configs`` down to its maximal subset.

    Returns ``(sparse, stats)``: the maximal configurations in their
    original (lexicographic) row order, read-only, plus the
    kept/dropped tally.  Emits the ``sparsify.calls`` /
    ``sparsify.kept`` / ``sparsify.dropped`` observability counters.
    """
    if configs.shape[0] == 0:
        return configs, SparsifyStats(kept=0, dropped=0)
    mask = maximal_mask(configs)
    sparse = np.ascontiguousarray(configs[mask])
    sparse.setflags(write=False)
    stats = SparsifyStats(
        kept=int(sparse.shape[0]),
        dropped=int(configs.shape[0] - sparse.shape[0]),
    )
    obs.count("sparsify.calls")
    obs.count("sparsify.kept", stats.kept)
    obs.count("sparsify.dropped", stats.dropped)
    return sparse, stats
