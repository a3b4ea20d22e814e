"""Fallback chains: step down to a cheaper backend instead of failing.

A :class:`FallbackChain` is a :class:`~repro.core.ptas.DPSolver` that
tries an ordered list of registry backends and steps down on
*non-transient* failure: a ``MemoryError`` in the first member routes
the fill to the second, and so on.  Transient failures
(:func:`repro.resilience.retry.is_transient`) propagate immediately —
the retry layer re-attempts the *whole* probe, which re-enters the
chain at its head, so a flaky-but-preferred backend is never abandoned
permanently for one bad fill.

Chains resolve from the registry by name: ``"fallback:auto,vectorized"``
builds this class over those two members, and the bare ``"fallback"``
name is the recommended production chain
(``auto → sweep → vectorized``).  Every step-down emits the
``resilience.fallback`` counter; a chain whose members *all* fail
raises the last failure with a ``fault_chain`` attribute listing every
member's error — which is what the batch service records on a degraded
result.

Correctness: all exact solvers produce bit-identical tables for
identical inputs (property-tested across the registry), so stepping
down never changes a probe's outcome, only its cost.  Simulated
engines are allowed as members, but their per-fill time accounting
stays on the member that actually served the fill.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import BackendError, ReproError
from repro.observability import context as obs
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import is_transient


class FallbackChain:
    """Ordered multi-backend DPSolver with step-down on hard failure.

    Parameters
    ----------
    members:
        Registry backend names, most- to least-preferred.  Each is
        resolved fresh at construction (engines are stateful).
    plan_cache:
        Shared plan cache, forwarded to plan-aware members.
    faults:
        Optional :class:`~repro.resilience.FaultInjector`; when set,
        each member's fill is checked at site ``"dp.<member>"`` so
        chaos tests can poison one named member.
    """

    def __init__(
        self,
        members: Sequence[str],
        plan_cache=None,
        faults: Optional[FaultInjector] = None,
        machines: Optional[int] = None,
    ) -> None:
        # Imported here, not at module top: repro.backends registers the
        # "fallback:" family at import time, so a top-level import would
        # be circular.
        from repro.backends import get_spec, resolve

        names = [m.strip() for m in members if m.strip()]
        if not names:
            raise BackendError("a fallback chain needs at least one member backend")
        resolved: List[Tuple[str, object]] = []
        for name in names:
            spec = get_spec(name)  # raises BackendError for unknown members
            kwargs = {"plan_cache": plan_cache} if spec.plan_aware else {}
            resolved.append((spec.name, resolve(name, **kwargs)))
        self.members = tuple(name for name, _ in resolved)
        self._solvers = resolved
        self.plan_cache = plan_cache
        self.faults = faults
        self.machines = None if machines is None else int(machines)
        #: member that served the most recent successful fill.
        self.last_served_by: Optional[str] = None
        #: per-member error strings of the most recent fill's step-downs.
        self.fault_chain: Tuple[str, ...] = ()
        # bound views report outcomes back to the chain the caller holds.
        self._root: "FallbackChain" = self

    def bind_machines(self, machines: Optional[int]) -> "FallbackChain":
        """A budget-bound view of this chain (members bind per fill).

        ``None`` *unbinds*: members are used exact, even on a view
        derived from a previously bound chain.
        """
        bound = FallbackChain.__new__(FallbackChain)
        bound.members = self.members
        bound._solvers = self._solvers
        bound.plan_cache = self.plan_cache
        bound.faults = self.faults
        bound.machines = None if machines is None else int(machines)
        bound.last_served_by = None
        bound.fault_chain = ()
        bound._root = self._root
        return bound

    @property
    def dp_cache_token(self) -> Optional[tuple]:
        """Per-budget probe-cache key, mirroring the auto kernel's.

        A bound chain may serve fills from a bound ``auto`` member,
        whose tables can be clamped at the machine budget; isolating
        them under the same ``("decision", m)`` token the auto kernel
        uses keeps exact consumers safe and still shares tables that
        are valid for this budget.
        """
        if self.machines is None:
            return None
        return ("decision", self.machines)

    def __call__(self, counts, class_sizes, target, configs=None, model_token=None):
        chain_log: List[str] = []
        last: Optional[BaseException] = None
        extra = {} if model_token is None else {"model_token": model_token}
        for name, solver in self._solvers:
            attempt = solver
            if self.machines is not None:
                bind = getattr(attempt, "bind_machines", None)
                if bind is not None:
                    attempt = bind(self.machines)
            if self.faults is not None:
                attempt = self.faults.wrap_solver(attempt, site=f"dp.{name}")
            try:
                result = attempt(counts, class_sizes, target, configs=configs, **extra)
            except (MemoryError, ReproError) as exc:
                if is_transient(exc):
                    # Transient failures belong to the retry layer: the
                    # whole probe re-runs and re-enters at the head.
                    raise
                chain_log.append(f"{name}: {type(exc).__name__}: {exc}")
                obs.count("resilience.fallback")
                last = exc
                continue
            if chain_log:
                obs.count("resilience.fallback.recovered")
            self.last_served_by = self._root.last_served_by = name
            self.fault_chain = self._root.fault_chain = tuple(chain_log)
            return result
        assert last is not None  # members is non-empty by construction
        self.fault_chain = self._root.fault_chain = tuple(chain_log)
        last.fault_chain = tuple(chain_log)  # type: ignore[attr-defined]
        raise last

    def __repr__(self) -> str:
        bound = "unbound" if self.machines is None else f"m={self.machines}"
        return f"FallbackChain({'->'.join(self.members)}, {bound})"
