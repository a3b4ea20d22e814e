"""Admission control: reject oversized probes before any allocation.

The DP-table for a probe has ``prod(n_i + 1)`` cells, so one
adversarial ``(eps, T)`` pair can request a table orders of magnitude
larger than every other probe in a batch.  Waiting for the resulting
``MemoryError`` means the allocation was already attempted — possibly
taking the whole process (and every sibling request) down with it.

:class:`AdmissionController` closes that hole: the peak footprint of a
fill is pure arithmetic on the rounded count vector
(:func:`repro.core.dp_common.estimate_fill_bytes` — table size times
the narrow dtype :func:`~repro.core.dp_common.pick_table_dtype` would
choose, plus the widened int64 table), so the controller can refuse
with :class:`~repro.errors.MemoryBudgetExceeded` *before* a single
array exists.  Rejections emit the ``admission.rejected`` counter.

Rejection composes with re-routing: the ``auto`` kernel
(:mod:`repro.core.kernels.auto`) accepts its own
``memory_budget_bytes`` and re-routes over-budget fills to the
low-footprint sweep kernel, so a deployment typically sets the kernel
budget below the admission budget — probes between the two run on the
sweep, probes above the admission budget are refused outright (and a
:class:`~repro.service.batch.BatchScheduler` degrades them to a
bounded baseline answer instead of erroring the request).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core.dp_common import estimate_fill_bytes
from repro.dptable.table import TableGeometry
from repro.errors import (
    InvalidInstanceError,
    MemoryBudgetExceeded,
    QuotaExceededError,
)
from repro.observability import context as obs


@dataclass(frozen=True)
class AdmissionController:
    """Pre-allocation gate on the estimated DP fill footprint.

    ``memory_budget_bytes`` is the per-probe ceiling; probes whose
    estimate exceeds it are refused with
    :class:`~repro.errors.MemoryBudgetExceeded`.
    """

    memory_budget_bytes: int

    def __post_init__(self) -> None:
        if self.memory_budget_bytes < 1:
            raise InvalidInstanceError(
                f"memory_budget_bytes must be >= 1, got {self.memory_budget_bytes}"
            )

    def estimate(self, counts: Sequence[int], value_bound: Optional[int] = None) -> int:
        """Estimated peak bytes for a fill over ``counts`` (no allocation)."""
        return estimate_fill_bytes(counts, value_bound=value_bound)

    def admit(
        self,
        counts: Sequence[int],
        value_bound: Optional[int] = None,
        target: Optional[int] = None,
    ) -> int:
        """Admit or refuse one probe; returns the estimate on admission.

        Raises :class:`~repro.errors.MemoryBudgetExceeded` (and counts
        ``admission.rejected``) when the estimate exceeds the budget.
        """
        estimate = self.estimate(counts, value_bound=value_bound)
        if estimate > self.memory_budget_bytes:
            obs.count("admission.rejected")
            shape = tuple(int(c) + 1 for c in counts)
            at = f" at T={target}" if target is not None else ""
            raise MemoryBudgetExceeded(
                f"probe{at} needs an estimated {estimate} bytes "
                f"(table shape {shape}) but the memory budget is "
                f"{self.memory_budget_bytes} bytes; raise the budget, loosen "
                "eps, or let the batch service degrade this request"
            )
        obs.count("admission.admitted")
        return estimate

    def admit_probe(self, rounded, target: Optional[int] = None) -> int:
        """Admit or refuse one probe across its model's DP fills.

        ``rounded`` is a :class:`~repro.core.rounding.RoundedInstance`;
        its instance's :class:`~repro.models.base.MachineModel` defines
        the fills the probe will run.  A single-fill probe (identical,
        time-restricted) admits through :meth:`admit` with that fill's
        geometry — for the identical model this is exactly the
        historical ``admit(rounded.counts, m + 1)`` gate.  Multi-fill
        models (few-types) are charged the *sum* of their fills plus
        the model's composition scratch
        (:meth:`~repro.models.base.MachineModel.admission_extra_bytes`),
        since every per-type table must be alive at composition time.
        """
        from repro.models import model_for

        model = model_for(rounded.instance)
        fills = model.fills(rounded)
        if len(fills) <= 1:
            fill = fills[0] if fills else None
            counts = fill.counts if fill is not None else rounded.counts
            value_bound = (
                fill.value_bound
                if fill is not None
                else rounded.instance.machines + 1
            )
            return self.admit(counts, value_bound=value_bound, target=target)
        total = sum(
            self.estimate(f.counts, value_bound=f.value_bound) for f in fills
        )
        total += int(model.admission_extra_bytes(rounded))
        if total > self.memory_budget_bytes:
            obs.count("admission.rejected")
            at = f" at T={target}" if target is not None else ""
            raise MemoryBudgetExceeded(
                f"probe{at} needs an estimated {total} bytes across "
                f"{len(fills)} {model.name} fills but the memory budget is "
                f"{self.memory_budget_bytes} bytes; raise the budget, loosen "
                "eps, or let the batch service degrade this request"
            )
        obs.count("admission.admitted")
        return total

    def admit_geometry(self, geometry: TableGeometry, value_bound: int) -> int:
        """:meth:`admit` from a :class:`~repro.dptable.table.TableGeometry`.

        Convenience for callers already holding a probe plan's geometry
        (``ProbePlan.geometry``); extents are ``n_i + 1``, hence the
        ``- 1`` when reconstructing the count vector.
        """
        return self.admit([s - 1 for s in geometry.shape], value_bound=value_bound)


class TenantQuota:
    """Per-tenant in-flight admission quota for the scheduling service.

    The byte-budget :class:`AdmissionController` protects the process
    from one oversized *probe*; this gate protects it from one noisy
    *tenant* — a client that floods the always-on service's queues and
    starves everyone else.  Each tenant may hold at most ``limit``
    requests admitted (queued or running) at once; an over-quota
    ``acquire`` raises :class:`~repro.errors.QuotaExceededError` and
    counts ``quota.rejected`` — the request is refused before any queue
    slot, bound computation, or probe work exists, mirroring the
    admission controller's refuse-before-allocating discipline.

    Parameters
    ----------
    default_limit:
        In-flight ceiling for tenants without an explicit entry;
        ``None`` means unlimited (the quota still tracks occupancy for
        introspection).
    per_tenant:
        Optional ``{tenant: limit}`` overrides.
    """

    def __init__(
        self,
        default_limit: Optional[int] = None,
        per_tenant: Optional[Mapping[str, int]] = None,
    ) -> None:
        if default_limit is not None and default_limit < 1:
            raise InvalidInstanceError(
                f"default_limit must be >= 1 (or None), got {default_limit}"
            )
        for tenant, limit in (per_tenant or {}).items():
            if limit < 1:
                raise InvalidInstanceError(
                    f"limit for tenant {tenant!r} must be >= 1, got {limit}"
                )
        self.default_limit = default_limit
        self.per_tenant = dict(per_tenant or {})
        self._in_flight: Dict[str, int] = {}
        self._lock = threading.Lock()

    def limit_for(self, tenant: str) -> Optional[int]:
        """The in-flight ceiling applying to ``tenant`` (None = unlimited)."""
        return self.per_tenant.get(tenant, self.default_limit)

    def acquire(self, tenant: str) -> None:
        """Admit one request for ``tenant`` or refuse it.

        Raises :class:`~repro.errors.QuotaExceededError` (and counts
        ``quota.rejected``) when the tenant is already at its limit;
        otherwise the tenant's occupancy is incremented (and
        ``quota.admitted`` counted) — pair every successful ``acquire``
        with exactly one :meth:`release`.
        """
        limit = self.limit_for(tenant)
        with self._lock:
            held = self._in_flight.get(tenant, 0)
            if limit is not None and held >= limit:
                refused = True
            else:
                refused = False
                self._in_flight[tenant] = held + 1
        if refused:
            obs.count("quota.rejected")
            raise QuotaExceededError(
                f"tenant {tenant!r} already has {held} request(s) in flight "
                f"(limit {limit}); back off and resubmit, or raise the "
                "tenant's quota"
            )
        obs.count("quota.admitted")

    def release(self, tenant: str) -> None:
        """Return one admitted slot for ``tenant`` (request finished)."""
        with self._lock:
            held = self._in_flight.get(tenant, 0)
            if held <= 1:
                self._in_flight.pop(tenant, None)
            else:
                self._in_flight[tenant] = held - 1

    def snapshot(self) -> Dict[str, int]:
        """``{tenant: in-flight count}`` for every occupied tenant."""
        with self._lock:
            return dict(self._in_flight)
