"""repro.core.kernels — the level-sweep kernel plus the ``auto`` selector.

The production DP fill is one function,
:func:`~repro.core.dp_vectorized.dp_vectorized`, whose optional
``machines=`` clamp turns the exact fill into the decision fill.  This
package adds a second fill with a different cost profile and a cost
model that routes each probe to the cheaper one:

* :func:`dp_levelsweep` / :class:`SweepKernel` — plan-driven single
  sweep; each cell computed once per anti-diagonal level, no fixpoint
  rounds.
* :class:`AutoKernel` / :func:`choose_kernel` — the per-probe router
  (the ``"auto"`` backend): the clamped decision fill when the machine
  budget is known, the exact fill otherwise.

See ``docs/PERFORMANCE.md`` ("Choosing a DP kernel") for when each
wins.
"""

from repro.core.kernels.auto import (
    AutoKernel,
    KernelChoice,
    choose_kernel,
    estimate_rounds,
)
from repro.core.kernels.sweep import SweepKernel, dp_levelsweep

__all__ = [
    "AutoKernel",
    "KernelChoice",
    "choose_kernel",
    "estimate_rounds",
    "SweepKernel",
    "dp_levelsweep",
]
