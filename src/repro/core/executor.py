"""Probe executors: who runs a search round's probes, at what time cost.

Both target searches (:mod:`repro.core.bisection`,
:mod:`repro.core.quarter_split`) proceed in *rounds*: pick one or more
targets from the current interval, probe them all, update the interval.
How those probes execute — one after another on a host, or concurrently
on a device with four Hyper-Q process queues — is a property of the
*hardware*, not of the search logic.  Historically the GPU runner
re-implemented the whole quarter-split loop just to charge concurrent
device time, a divergence bug waiting to happen; this module is the
seam that makes that duplication unnecessary.

A :class:`ProbeExecutor` receives each round's targets, runs
:func:`~repro.core.ptas.probe_target` for every one, and accounts the
round's *simulated* time by inspecting the DP solver's run log (every
simulated engine appends an
:class:`~repro.engines.base.EngineRun`-shaped record to its ``runs``
list; pure solvers such as :func:`~repro.core.dp_vectorized.dp_vectorized`
have no log and charge nothing):

* :class:`SequentialExecutor` — probes run back to back; the round
  costs the **sum** of its probe times.  Models one host device
  (serial or OpenMP engine) and is the default.
* :class:`ConcurrentDeviceExecutor` — the round's probes share one
  device with ``warp_slots`` concurrent warp slots; the round costs
  the **work/span bound** ``max(span, work / warp_slots)`` where the
  span is the longest single probe and the work is the total busy
  warp-time.  Exact when the probes interleave ideally, pessimistic
  otherwise — the standard bound, previously hard-coded in the GPU
  runner's ``_concurrent_time``.

The executors are deliberately *accounting-only*: probes execute in
submission order in this process (the simulators model the hardware),
so results are bit-identical whichever executor runs the search — only
the charged time differs (tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

from repro.core.instance import Instance
from repro.core.ptas import DPSolver, ProbeResult, probe_target
from repro.errors import InvalidInstanceError
from repro.observability import context as obs

if TYPE_CHECKING:
    from repro.core.probe_cache import ProbeCache
    from repro.resilience.policy import ResiliencePolicy


@runtime_checkable
class SimulatedRun(Protocol):
    """The slice of :class:`~repro.engines.base.EngineRun` executors read."""

    simulated_s: float
    metrics: object


@runtime_checkable
class ProbeExecutor(Protocol):
    """Anything that can run a search round's probes and bill its time."""

    #: accumulated simulated seconds across every round executed.
    elapsed_s: float
    #: number of rounds executed.
    rounds: int

    def run_round(
        self,
        instance: Instance,
        targets: Sequence[int],
        eps: float,
        dp_solver: DPSolver,
        cache: Optional["ProbeCache"] = None,
    ) -> list[ProbeResult]:
        """Probe every target of one round; returns results in target order."""
        ...


class _AccountingExecutor:
    """Shared round loop: run the probes, bill the new engine runs.

    Subclasses implement :meth:`charge` — the round's simulated cost as
    a function of the engine runs the round triggered.  Solvers without
    a ``runs`` log (the pure DP functions) produce an empty run list
    and a zero charge.

    ``resilience`` is an optional
    :class:`~repro.resilience.ResiliencePolicy`: when set, every probe
    of every round runs through
    :meth:`~repro.resilience.ResiliencePolicy.run_probe` — admission
    control, fault-injection hooks, bounded retries, and the per-probe
    deadline (:class:`~repro.errors.ProbeTimeoutError`) — instead of a
    bare :func:`~repro.core.ptas.probe_target`.  Successful probes are
    bit-identical either way (tested).
    """

    def __init__(self, resilience: Optional["ResiliencePolicy"] = None) -> None:
        self.elapsed_s = 0.0
        self.rounds = 0
        self.resilience = resilience

    def _probe(
        self,
        instance: Instance,
        target: int,
        eps: float,
        dp_solver: DPSolver,
        cache: Optional["ProbeCache"],
    ) -> ProbeResult:
        """One probe, through the resilience policy when one is set."""
        if self.resilience is None:
            return probe_target(instance, target, eps, dp_solver, cache=cache)
        return self.resilience.run_probe(instance, target, eps, dp_solver, cache=cache)

    def run_round(
        self,
        instance: Instance,
        targets: Sequence[int],
        eps: float,
        dp_solver: DPSolver,
        cache: Optional["ProbeCache"] = None,
    ) -> list[ProbeResult]:
        """Probe every target in order and account the round's time."""
        run_log = getattr(dp_solver, "runs", None)
        mark = len(run_log) if run_log is not None else 0
        probes = [
            self._probe(instance, t, eps, dp_solver, cache) for t in targets
        ]
        new_runs: list[SimulatedRun] = (
            list(run_log[mark:]) if run_log is not None else []
        )
        charge = self.charge(new_runs)
        self.elapsed_s += charge
        self.rounds += 1
        obs.count("executor.rounds")
        if charge:
            obs.count("executor.simulated_s", charge)
        return probes

    def charge(self, runs: Sequence[SimulatedRun]) -> float:
        """Simulated seconds one round of ``runs`` costs (subclass hook)."""
        raise NotImplementedError


class SequentialExecutor(_AccountingExecutor):
    """Probes run back to back on one device: the round costs their sum."""

    def charge(self, runs: Sequence[SimulatedRun]) -> float:
        """Sum of the round's probe times."""
        return float(sum(r.simulated_s for r in runs))


class ConcurrentDeviceExecutor(_AccountingExecutor):
    """Probes share one device: the round costs the work/span bound.

    ``span`` is the longest single probe (no amount of concurrency
    beats the critical path); ``work / warp_slots`` is the time the
    device needs just to issue the total busy warp-time (reported by
    the GPU simulator as ``warp_seconds_paid``) through its
    ``warp_slots`` concurrent slots.  The charge is the larger of the
    two — exact under ideal interleaving, a lower bound otherwise, and
    never more than the sequential sum (tested).
    """

    def __init__(
        self, warp_slots: int, resilience: Optional["ResiliencePolicy"] = None
    ) -> None:
        super().__init__(resilience=resilience)
        if warp_slots < 1:
            raise InvalidInstanceError(
                f"warp_slots must be a positive integer, got {warp_slots}"
            )
        self.warp_slots = int(warp_slots)

    @classmethod
    def for_engine(cls, engine: object) -> "ConcurrentDeviceExecutor":
        """Executor sized to ``engine``'s device (``engine.spec.warp_slots``)."""
        spec = getattr(engine, "spec", None)
        warp_slots = getattr(spec, "warp_slots", None)
        if warp_slots is None:
            raise InvalidInstanceError(
                f"{type(engine).__name__} has no device spec with warp_slots; "
                "use SequentialExecutor for host backends"
            )
        return cls(int(warp_slots))

    def charge(self, runs: Sequence[SimulatedRun]) -> float:
        """``max(span, work / warp_slots)`` over the round's probes."""
        if not runs:
            return 0.0
        span = max(float(r.simulated_s) for r in runs)
        busy = sum(
            float(getattr(r, "metrics", {}).get("warp_seconds_paid", 0.0))
            for r in runs
        )
        return max(span, busy / self.warp_slots)


def default_executor(
    dp_solver: object, resilience: Optional["ResiliencePolicy"] = None
) -> _AccountingExecutor:
    """The executor a backend would pick for itself.

    Device engines (anything exposing ``spec.warp_slots``) get a
    :class:`ConcurrentDeviceExecutor` — their search rounds genuinely
    overlap on the device — and every other backend (host engines,
    pure DP functions, the hybrid dispatcher) gets a
    :class:`SequentialExecutor`.  Used by the runner and the request
    pipeline, which do not choose explicitly.  ``resilience`` is threaded
    through to whichever executor is built.
    """
    warp_slots = getattr(getattr(dp_solver, "spec", None), "warp_slots", None)
    if warp_slots is not None:
        return ConcurrentDeviceExecutor(int(warp_slots), resilience=resilience)
    return SequentialExecutor(resilience=resilience)
