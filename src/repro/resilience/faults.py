"""Deterministic, seedable fault injection for the probe path.

A production scheduler meets failures the paper never mentions: a
worker OOMs on one adversarial table, a device resets mid-fill, a probe
stalls behind a noisy neighbour.  Testing the recovery machinery
(retries, fallback chains, graceful degradation) against *real*
chaos is flaky by construction; :class:`FaultInjector` makes the chaos
deterministic instead.

Design constraints, in order:

* **Determinism under concurrency.**  Decisions are *keyed*, not
  sequenced: whether a check at ``(site, instance, target, attempt)``
  fires is a pure function of the injector's ``seed`` and that key
  (via a BLAKE2 hash — never Python's salted ``hash``), so the
  interleavings of the daemon's worker threads or the batch pool
  cannot change which probes fail.  Two runs with
  the same seed inject the same faults (tested).
* **Bounded per-probe damage.**  Each key fires at most
  ``max_failures`` times, then passes forever.  The cap is *per key*
  — and a probe's attempt crosses every armed site on its path
  (``"probe"`` then ``"dp"``), each with its own key — so the eventual-
  success guarantee is ``armed_sites_on_path * max_failures <
  RetryPolicy.max_attempts``: with both sites armed at
  ``max_failures=2``, give the policy ``max_attempts >= 5`` and every
  transient fault clears within the retry budget — the property the
  bit-identity hypothesis suite relies on.
* **Realistic failure types.**  The injector raises the same
  exceptions real code would: ``MemoryError`` for ``"oom"``,
  :class:`~repro.errors.TransientDPError` for ``"dperror"``,
  :class:`~repro.errors.WorkerCrashError` for ``"crash"``; ``"slow"``
  sleeps ``slow_s`` real seconds so per-probe deadlines trip.
  Recovery code therefore cannot special-case "injected" failures.

Hook sites (strings; an injector only acts on sites listed in its
``sites``):

* ``"probe"`` — checked by
  :meth:`~repro.resilience.ResiliencePolicy.run_probe` before the
  probe starts (models a worker crash in the executor fan-out);
* ``"dp"`` — checked when the (wrapped) DP solver is invoked, i.e.
  inside the kernel/engine call of an actual fill (cache hits skip
  the solver and therefore the fault — exactly like real hardware);
* ``"dp.<backend>"`` — per-member checks inside a
  :class:`~repro.resilience.FallbackChain`, so a chain can be driven
  to step down from one named backend to the next.
* ``"fabric.worker"`` — consulted (via :meth:`FaultInjector.decide`,
  the non-raising entry point) by the fill fabric once per dispatched
  parallel wave; a hit **SIGKILLs a live pool worker** instead of
  raising, so the supervision/respawn machinery of
  :class:`~repro.parallel.fabric.BlockExecutor` is exercised against a
  genuinely dead process, not a simulated one.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.errors import (
    InvalidInstanceError,
    TransientDPError,
    WorkerCrashError,
)
from repro.observability import context as obs

#: The fault kinds an injector can produce.
FAULT_KINDS = ("oom", "dperror", "crash", "slow")

_RAISERS = {
    "oom": MemoryError,
    "dperror": TransientDPError,
    "crash": WorkerCrashError,
}

#: The instance whose probe is currently executing.  DPSolvers receive
#: only (counts, class_sizes, target) — never the instance — so nested
#: check sites (a fallback chain's ``dp.<member>`` wrappers) resolve
#: the ambient instance from here for keying and ``match`` predicates.
#: A ContextVar survives the thread-pool fan-outs, which propagate the
#: submitting context via ``contextvars.copy_context``.
_AMBIENT_INSTANCE: contextvars.ContextVar[Optional[Instance]] = (
    contextvars.ContextVar("repro_fault_instance", default=None)
)


@contextlib.contextmanager
def fault_scope(instance: Optional[Instance]) -> Iterator[None]:
    """Mark ``instance`` as the one whose probe is executing.

    Entered by :meth:`~repro.resilience.ResiliencePolicy.run_probe`
    around the probe body; :meth:`FaultInjector.check` calls with
    ``instance=None`` fall back to this scope's instance.
    """
    token = _AMBIENT_INSTANCE.set(instance)
    try:
        yield
    finally:
        _AMBIENT_INSTANCE.reset(token)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: where, what, and on which attempt."""

    site: str
    kind: str
    target: int
    attempt: int


#: faults fired per ``(site, instance signature, target)`` key.
FiredCounts = Dict[Tuple[str, str, int], int]


class FaultInjector:
    """Deterministic seeded fault source for the probe path.

    Parameters
    ----------
    seed:
        Determines every injection decision (with the check's key).
    rate:
        Probability in ``[0, 1]`` that an eligible check fires.
    kinds:
        Subset of :data:`FAULT_KINDS` to draw from.
    sites:
        Hook sites the injector acts on; checks at other sites pass
        untouched.  See the module docstring for the site vocabulary.
    max_failures:
        Per-key failure cap: after this many injected faults for one
        ``(site, instance, target)`` the key passes forever.  Keep it
        below the retry budget to guarantee eventual success.
    slow_s:
        Real seconds the ``"slow"`` kind sleeps (it does not raise).
    match:
        Optional predicate ``match(site, instance, target) -> bool``;
        checks it rejects pass untouched.  Lets a test poison exactly
        one request of a batch.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 1.0,
        kinds: Sequence[str] = ("dperror",),
        sites: Sequence[str] = ("dp",),
        max_failures: int = 2,
        slow_s: float = 0.05,
        match: Optional[Callable[[str, Optional[Instance], int], bool]] = None,
    ) -> None:
        if not (0.0 <= rate <= 1.0):
            raise InvalidInstanceError(f"rate must be in [0, 1], got {rate}")
        bad = [k for k in kinds if k not in FAULT_KINDS]
        if bad or not kinds:
            raise InvalidInstanceError(
                f"kinds must be a non-empty subset of {FAULT_KINDS}, got {tuple(kinds)}"
            )
        if max_failures < 0:
            raise InvalidInstanceError(
                f"max_failures must be >= 0, got {max_failures}"
            )
        if slow_s < 0:
            raise InvalidInstanceError(f"slow_s must be >= 0, got {slow_s}")
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = tuple(kinds)
        self.sites = tuple(sites)
        self.max_failures = int(max_failures)
        self.slow_s = float(slow_s)
        self.match = match
        #: every injected fault, in injection order (thread-unordered
        #: under parallel executors; compare as multisets there).
        self.events: List[FaultEvent] = []
        self._fired: FiredCounts = {}
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Build an injector from a CLI spec string.

        Format: comma-separated ``key=value`` pairs, e.g.
        ``"seed=7,rate=0.5,kinds=dperror|crash,sites=dp,max=1,slow=0.02"``.
        Unknown keys are rejected loudly.
        """
        kwargs: Dict[str, object] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise InvalidInstanceError(
                    f"bad --inject-faults entry {part!r}: expected key=value"
                )
            key, value = part.split("=", 1)
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "rate":
                kwargs["rate"] = float(value)
            elif key == "kinds":
                kwargs["kinds"] = tuple(value.split("|"))
            elif key == "sites":
                kwargs["sites"] = tuple(value.split("|"))
            elif key == "max":
                kwargs["max_failures"] = int(value)
            elif key == "slow":
                kwargs["slow_s"] = float(value)
            else:
                raise InvalidInstanceError(
                    f"unknown --inject-faults key {key!r}; valid keys: "
                    "seed, rate, kinds, sites, max, slow"
                )
        return cls(**kwargs)  # type: ignore[arg-type]

    # -- decision machinery -------------------------------------------------

    @staticmethod
    def _instance_sig(instance: Optional[Instance]) -> str:
        # A stable (unsalted) identity: Python's hash() is salted per
        # process, which would break same-seed replay across CLI runs.
        if instance is None:
            return "-"
        return f"{instance.machines}:{','.join(map(str, instance.times))}"

    def _draw(self, site: str, sig: str, target: int, attempt: int) -> Optional[str]:
        payload = f"{self.seed}|{site}|{sig}|{target}|{attempt}".encode()
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        if u >= self.rate:
            return None
        return self.kinds[int.from_bytes(digest[8:], "big") % len(self.kinds)]

    def decide(
        self,
        site: str,
        instance: Optional[Instance] = None,
        target: int = 0,
    ) -> Optional[str]:
        """Draw one injection decision at ``site`` without acting on it.

        Returns the fault kind to realise, or ``None`` when the site is
        not armed, the ``match`` predicate rejects, the per-key failure
        cap is spent, or the seeded draw passes.  A returned kind is
        *recorded* (event log, counter, per-key cap) exactly like a
        :meth:`check` hit — the caller owns realising it.  This is the
        hook for fault sites that cannot be expressed as a raise: the
        fill fabric's ``"fabric.worker"`` site turns any returned kind
        into a real ``SIGKILL`` of a live pool worker.
        """
        decision = self._decide(site, instance, target)
        if decision is None:
            return None
        return decision[0]

    def _decide(
        self,
        site: str,
        instance: Optional[Instance],
        target: int,
    ) -> Optional[Tuple[str, int]]:
        """The shared decision core: ``(kind, attempt)`` or ``None``."""
        if site not in self.sites:
            return None
        if instance is None:
            instance = _AMBIENT_INSTANCE.get()
        if self.match is not None and not self.match(site, instance, target):
            return None
        sig = self._instance_sig(instance)
        key = (site, sig, int(target))
        with self._lock:
            fired = self._fired.get(key, 0)
            if fired >= self.max_failures:
                return None
            kind = self._draw(site, sig, int(target), fired)
            if kind is None:
                return None
            self._fired[key] = fired + 1
            self.events.append(FaultEvent(site, kind, int(target), fired))
        obs.count(f"faults.injected.{kind}")
        return kind, fired

    def check(
        self,
        site: str,
        instance: Optional[Instance] = None,
        target: int = 0,
    ) -> None:
        """Possibly inject one fault at ``site`` (raises or sleeps).

        A no-op when the site is not armed, the ``match`` predicate
        rejects, the per-key failure cap is spent, or the seeded draw
        passes.  ``instance=None`` resolves the ambient
        :func:`fault_scope` instance (if any) first.
        """
        decision = self._decide(site, instance, target)
        if decision is None:
            return
        kind, fired = decision
        if kind == "slow":
            time.sleep(self.slow_s)
            return
        raise _RAISERS[kind](
            f"injected {kind} fault at {site} (T={target}, attempt {fired})"
        )

    def wrap_solver(
        self,
        dp_solver,
        site: str = "dp",
        instance: Optional[Instance] = None,
    ):
        """A DPSolver proxy that checks ``site`` before every real fill."""
        return _FaultWrappedSolver(dp_solver, self, site, instance)

    # -- introspection ------------------------------------------------------

    def replay_signature(self) -> Tuple[FaultEvent, ...]:
        """Order-independent view of the injected faults (for replay tests)."""
        with self._lock:
            return tuple(
                sorted(self.events, key=lambda e: (e.site, e.target, e.attempt, e.kind))
            )

    def mark(self) -> Tuple[int, FiredCounts]:
        """Where the injection record stands now (for :meth:`since`)."""
        with self._lock:
            return len(self.events), dict(self._fired)

    def since(
        self, mark: Tuple[int, FiredCounts]
    ) -> Tuple[List[FaultEvent], FiredCounts]:
        """Injections recorded after ``mark``: events and per-key fire counts."""
        count, fired = mark
        with self._lock:
            return self.events[count:], {
                key: n - fired.get(key, 0)
                for key, n in self._fired.items()
                if n != fired.get(key, 0)
            }

    def fold(self, injections: Tuple[List[FaultEvent], FiredCounts]) -> None:
        """Record a copy's :meth:`since` here (a forked batch worker's).

        Afterwards the event log and the per-key caps read as if this
        injector had made those injections itself.
        """
        events, fired = injections
        with self._lock:
            self.events.extend(events)
            for key, n in fired.items():
                self._fired[key] = self._fired.get(key, 0) + n

    def reset(self) -> None:
        """Forget fired-fault history and events (the seed is retained)."""
        with self._lock:
            self._fired.clear()
            self.events.clear()

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, rate={self.rate}, "
            f"kinds={self.kinds}, sites={self.sites}, "
            f"max_failures={self.max_failures})"
        )


class _FaultWrappedSolver:
    """DPSolver proxy: one injector check per actual fill.

    Transparent otherwise — ``bind_machines`` re-wraps the bound copy
    (so the check survives the probe driver's budget binding), and
    every other attribute (``runs``, ``dp_cache_token``, ...) forwards
    to the wrapped solver.
    """

    def __init__(
        self,
        inner,
        injector: FaultInjector,
        site: str,
        instance: Optional[Instance],
    ) -> None:
        self._inner = inner
        self._injector = injector
        self._site = site
        self._instance = instance

    def __call__(self, counts, class_sizes, target, configs=None, **kwargs):
        self._injector.check(self._site, instance=self._instance, target=int(target))
        return self._inner(counts, class_sizes, target, configs=configs, **kwargs)

    def bind_machines(self, machines: Optional[int]):
        bind = getattr(self._inner, "bind_machines", None)
        inner = bind(machines) if bind is not None else self._inner
        return _FaultWrappedSolver(inner, self._injector, self._site, self._instance)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"faulted({self._inner!r}, site={self._site!r})"
