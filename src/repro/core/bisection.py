"""Plain bisection over the target makespan (Algorithm 1, lines 5–14).

This is the search loop of the original PTAS and of the OpenMP baseline
[1]: probe the midpoint ``T`` of ``[LB, UB]``; if the dual approximation
accepts (``machines_needed <= m``) move ``UB`` down to ``T``, otherwise
move ``LB`` up to ``T + 1``.  The loop maintains the invariant that the
optimum lies in ``[LB, UB]`` and that every accepted probe has a
schedule of makespan at most ``(1 + eps) T``.

That is exactly the quarter split (Algorithm 3) over one segment — one
midpoint per round, and the five-way update collapses to the two-way
one — so :func:`bisection_search` runs
:func:`~repro.core.quarter_split.quarter_split_search` with
``segments=1`` rather than keeping a second copy of the loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance
from repro.core.ptas import SEARCH_SEGMENTS, DPSolver, PtasResult
from repro.core.quarter_split import quarter_split_search
from repro.observability import Tracer, TraceSink

if TYPE_CHECKING:
    from repro.core.executor import ProbeExecutor
    from repro.core.probe_cache import ProbeCache


def bisection_search(
    instance: Instance,
    eps: float = 0.3,
    dp_solver: DPSolver = dp_vectorized,
    cache: Optional["ProbeCache"] = None,
    trace: Optional[Union[Tracer, TraceSink]] = None,
    executor: Optional["ProbeExecutor"] = None,
) -> PtasResult:
    """Run the PTAS with plain bisection; see module docstring.

    ``cache`` and ``trace`` are the cross-probe cache and observability
    hooks of :func:`repro.core.ptas.ptas_schedule`; ``executor`` is the
    probe executor (default
    :class:`~repro.core.executor.SequentialExecutor`).  None of the
    three changes the result.
    """
    return quarter_split_search(
        instance,
        eps,
        dp_solver,
        segments=SEARCH_SEGMENTS["bisection"],
        cache=cache,
        trace=trace,
        executor=executor,
    )
