"""Real host parallelism: execute the wavefront DP on this machine's cores.

The simulators model the paper's hardware; this package actually runs
the DP in parallel on the reproduction host, following the HPC-Python
guides: shared-memory numpy buffers (no pickling of the table),
process-based workers (sidestepping the GIL), and level-wise barriers
that mirror the paper's wavefront structure.

The load-bearing layer is :mod:`repro.parallel.fabric` — the shared-
memory fill fabric: a persistent process pool
(:class:`~repro.parallel.fabric.BlockExecutor`) over context-managed
narrow-dtype table arenas, with plans shipped once per worker.  No
registered backend, engine or service front end uses it; its only
in-library client is :class:`~repro.core.kernels.AutoKernel` built with
``fill_fabric=`` (the ``hostpar`` kernel route).  Measured against the
single-core kernels it loses at every table size on a 2-core host
(``docs/PERFORMANCE.md``), so nothing imports this package on a
request path.
"""

from repro.parallel.chunking import split_evenly, split_by_cost
from repro.parallel.fabric import BlockExecutor, SharedTableArena

__all__ = [
    "BlockExecutor",
    "SharedTableArena",
    "split_evenly",
    "split_by_cost",
]
