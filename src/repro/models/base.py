"""The machine-model protocol behind the probe pipeline.

A :class:`MachineModel` owns everything about a scheduling model that
the generic probe driver (:func:`repro.core.ptas.probe_target`) must
not hard-code: instance validation, baseline makespan bounds, job-class
rounding, which dense DP fills a probe needs (:class:`FillSpec`), how
the filled tables assemble into machines (:meth:`MachineModel.assemble`),
model-specific baselines for degraded mode, and feasibility checking of
finished schedules.

The original ``P || Cmax`` stack is the ``identical`` model
(:mod:`repro.models.identical`); ``unrelated-few-types`` and
``time-restricted`` reuse the same solvers, engines, caches, and search
loops through the same protocol.  See docs/MODELS.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.bounds import MakespanBounds
    from repro.core.dp_common import DPResult
    from repro.core.instance import Instance
    from repro.core.rounding import RoundedInstance
    from repro.core.schedule import Schedule
    from repro.observability.timers import PhaseTimer


@dataclass(frozen=True)
class FillSpec:
    """One dense DP fill a probe needs.

    The identical model needs exactly one fill per probe — the classic
    configuration DP at budget ``T`` — while ``unrelated-few-types``
    needs one per machine type (budget ``speed * T``) and
    ``time-restricted`` one with a per-machine job-count cap.  The
    probe cache keys tables on ``(counts, class_sizes, budget, max_jobs)``
    normalized by the rounding unit, so coinciding fills from different
    models correctly share (a 1-type lift of an identical instance hits
    the identical model's cached tables bit-for-bit).

    Attributes
    ----------
    counts / class_sizes:
        The job-class vector the table is indexed by (always the
        rounded instance's own classes for the shipped models).
    budget:
        The per-machine capacity the configuration set is enumerated
        against (``sum_i s_i * size_i <= budget``).
    max_jobs:
        Optional per-machine cardinality cap on configurations
        (``time-restricted``'s B); ``None`` leaves enumeration exact.
    machine_clamp:
        When set, decision-capable solvers may clamp the fill at this
        machine budget (``bind_machines``); ``None`` demands an exact
        table (required when tables compose across fills).
    label:
        Short display name for traces and admission errors.
    token:
        Plan-cache discriminator appended to ``plan_signature`` so a
        filtered configuration set never aliases an unfiltered one.
        ``None`` (the identical/few-types case) keeps signatures
        bit-identical to the pre-model library.

    Every fill's configuration set is downward closed (componentwise
    caps, a load budget, and optionally a job-count cap all survive
    decreasing a component), which is the property the ``auto``
    kernel's dominance pruning needs (:mod:`repro.core.sparsify`).
    """

    counts: Tuple[int, ...]
    class_sizes: Tuple[int, ...]
    budget: int
    max_jobs: Optional[int] = None
    machine_clamp: Optional[int] = None
    label: str = "dp"
    token: Optional[Tuple] = None

    @property
    def value_bound(self) -> int:
        """Largest finite table value this fill can produce.

        Clamped decision fills saturate at ``machine_clamp + 1``; exact
        fills are bounded by the total long-job count.  Feeds dtype
        selection in admission estimates.
        """
        if self.machine_clamp is not None:
            return int(self.machine_clamp) + 1
        return int(sum(self.counts))

    def enumerate(self) -> np.ndarray:
        """Enumerate this fill's configuration set (uncached)."""
        from repro.core.configs import enumerate_configurations

        return enumerate_configurations(
            self.class_sizes, self.counts, self.budget, max_jobs=self.max_jobs
        )


@dataclass(frozen=True)
class ProbeOutcome:
    """What a model's :meth:`~MachineModel.assemble` concluded for one probe.

    ``machine_jobs`` is the per-machine job-index lists (positionally
    aligned with the instance's machines when the model distinguishes
    them) or ``None`` when the probe certifies the target infeasible;
    ``machines_needed`` may exceed ``m`` on rejection.
    """

    machines_needed: int
    machine_jobs: Optional[list] = None

    @property
    def accepted(self) -> bool:
        return self.machine_jobs is not None


class MachineModel(ABC):
    """Everything the probe pipeline delegates per scheduling model."""

    #: Registry name; also the value of ``Instance.model``.
    name: str = ""

    # -- instance-level ------------------------------------------------------

    def validate(self, instance: "Instance") -> None:
        """Model-specific structural validation beyond ``Instance.__post_init__``.

        The default accepts anything the instance constructor accepted.
        """

    @abstractmethod
    def bounds(self, instance: "Instance") -> "MakespanBounds":
        """The bisection interval ``[LB, UB]`` for this model."""

    def lower_bound(self, instance: "Instance") -> int:
        """A certified lower bound on the optimal makespan."""
        return self.bounds(instance).lower

    @abstractmethod
    def baseline(self, instance: "Instance") -> tuple:
        """Cheap certified schedule: ``(schedule, name, proven_bound)``.

        ``proven_bound`` is a factor ``r`` such that the schedule's
        makespan is provably at most ``r`` times the optimum — an
        a-priori ratio for identical machines, an a-posteriori
        ``makespan / lower_bound`` certificate for the other models.
        Degraded mode and the daemon's bound-first stream both rely on
        it being *true*, never a guessed constant.
        """

    def completion_times(self, instance: "Instance", loads: np.ndarray) -> np.ndarray:
        """Per-machine completion times given per-machine total load."""
        return loads

    # -- probe-level ---------------------------------------------------------

    def round(self, instance: "Instance", target: int, eps: float) -> "RoundedInstance":
        """Short/long split and class rounding at target ``T``.

        All shipped models share the identical model's rounding (long
        iff ``t > T/k``, sizes floored to multiples of ``T/k^2``); a
        model may override to change the split.
        """
        from repro.core.rounding import round_instance

        return round_instance(instance, target, eps)

    @abstractmethod
    def fills(self, rounded: "RoundedInstance") -> Tuple[FillSpec, ...]:
        """The dense DP fills one probe at this target needs, in order."""

    @abstractmethod
    def assemble(
        self,
        rounded: "RoundedInstance",
        fills: Tuple[FillSpec, ...],
        dp_results: Tuple["DPResult", ...],
        timer: "PhaseTimer",
    ) -> ProbeOutcome:
        """Turn the filled tables into machines (or certify rejection).

        Receives the probe's :class:`~repro.observability.timers.PhaseTimer`
        so models keep emitting the library's canonical phase names
        (``extract`` / ``place_long`` / ``short_jobs``).
        """

    # -- schedule-level ------------------------------------------------------

    def check_schedule(self, schedule: "Schedule") -> None:
        """Raise ``InvalidScheduleError`` if the schedule violates the model.

        ``Schedule`` itself validates the assignment function; this adds
        model constraints (e.g. per-machine job-count caps).  The
        default has none.
        """

    # -- resource accounting -------------------------------------------------

    def admission_extra_bytes(self, rounded: "RoundedInstance") -> int:
        """Model overhead beyond the per-fill table estimates.

        ``unrelated-few-types`` composes per-type boolean feasibility
        lattices; others need nothing.
        """
        return 0
