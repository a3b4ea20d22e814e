"""The resilience policy: one object the executors consult per probe.

:class:`ResiliencePolicy` bundles the four recovery mechanisms —
fault injection (for chaos testing), admission control, retry with
simulated backoff, and per-probe deadlines — behind a single
:meth:`~ResiliencePolicy.run_probe` that the probe executors
(:mod:`repro.core.executor`) call in place of a bare
:func:`~repro.core.ptas.probe_target`.  The order of operations per
probe:

1. **Admission** — estimate the fill footprint from the probe's
   rounding and refuse over-budget probes with
   :class:`~repro.errors.MemoryBudgetExceeded` *before* anything is
   allocated.
2. **Fault check** — an armed :class:`~repro.resilience.FaultInjector`
   may crash the "worker" (site ``"probe"``) or poison the DP solver
   (site ``"dp"``, via a transparent wrapper).
3. **The probe itself**, wall-timed; exceeding ``deadline_s`` raises
   :class:`~repro.errors.ProbeTimeoutError` (the oversized result is
   discarded — a deadline is a promise to the caller, not a hint).
4. **Retry** — transient failures re-enter at step 2 while the
   :class:`~repro.resilience.RetryPolicy` budget lasts, charging
   exponential backoff to the ``resilience.backoff_s`` counter in
   simulated time (no real sleeping).

Invariant: when retries eventually succeed, the returned
:class:`~repro.core.ptas.ProbeResult` is bit-identical to a fault-free
probe — solvers are deterministic and a failed attempt leaves no
partial state behind (caches insert only on success).  This is the
property the hypothesis suite in ``tests/resilience`` pins down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.instance import Instance
from repro.core.probe_cache import as_cache
from repro.errors import ProbeTimeoutError
from repro.observability import context as obs
from repro.resilience.admission import AdmissionController
from repro.resilience.faults import FaultInjector, fault_scope
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.core.probe_cache import ProbeCache
    from repro.core.ptas import DPSolver, ProbeResult


@dataclass(frozen=True)
class ResiliencePolicy:
    """What the executors do when a probe fails (or must not start).

    All four parts are optional; an all-``None`` policy behaves exactly
    like no policy (a plain ``probe_target`` call).
    """

    faults: Optional[FaultInjector] = None
    retry: Optional[RetryPolicy] = None
    deadline_s: Optional[float] = None
    admission: Optional[AdmissionController] = None

    def run_probe(
        self,
        instance: Instance,
        target: int,
        eps: float,
        dp_solver: "DPSolver",
        cache: Optional["ProbeCache"] = None,
    ) -> "ProbeResult":
        """One probe under this policy; see the module docstring."""
        from repro.core.ptas import probe_target

        if self.admission is not None:
            # The admission estimate costs one rounding plus arithmetic
            # and runs strictly before any table allocation.
            # admit_probe is model-aware: multi-fill models are
            # charged every fill.
            rounded = as_cache(cache).rounding(instance, int(target), eps)
            self.admission.admit_probe(rounded, target=int(target))

        retry = self.retry if self.retry is not None else RetryPolicy(max_attempts=1)
        attempt = 0
        while True:
            attempt += 1
            try:
                solver = dp_solver
                if self.faults is not None:
                    self.faults.check("probe", instance=instance, target=int(target))
                    solver = self.faults.wrap_solver(
                        dp_solver, site="dp", instance=instance
                    )
                start = time.perf_counter()
                # fault_scope lets nested check sites (a fallback
                # chain's per-member wrappers) key on this instance.
                with fault_scope(instance):
                    probe = probe_target(instance, target, eps, solver, cache=cache)
                elapsed = time.perf_counter() - start
                if self.deadline_s is not None and elapsed > self.deadline_s:
                    obs.count("resilience.timeout")
                    raise ProbeTimeoutError(
                        f"probe at T={target} took {elapsed:.4f}s, over the "
                        f"{self.deadline_s}s deadline"
                    )
                return probe
            except Exception as exc:
                if not retry.should_retry(exc, attempt):
                    raise
                obs.count("resilience.retry")
                obs.count("resilience.backoff_s", retry.backoff_s(attempt))
