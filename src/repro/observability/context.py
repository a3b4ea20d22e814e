"""The ambient tracer: activate once, instrument everywhere.

Threading a collector object through every call of the search →
probe → DP → engine stack would contaminate a dozen signatures with a
parameter that is ``None`` in production.  Instead the collector is
*ambient*: :class:`Tracer` installs itself in a :class:`ContextVar`
for the duration of a ``with tracer.activate():`` block, and
instrumented library code calls the module-level helpers
(:func:`count`, :func:`phase`, :func:`add_time`,
:func:`record_probe`), which no-op when no tracer is active.

``ContextVar`` (not a module global) keeps concurrent searches
independent: each thread/task sees only the tracer it activated, so
e.g. the host-parallel wavefront workers or two interleaved PTAS runs
cannot pollute each other's counters.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

from repro.observability.timers import PhaseTimer
from repro.observability.trace import ProbeTrace, TraceSink

_ACTIVE: ContextVar[Optional["Tracer"]] = ContextVar("repro_tracer", default=None)

#: Number of currently-active tracer activations, process-wide.  The
#: module-level helpers check this plain integer before touching the
#: ContextVar: in production (no tracer anywhere) the per-config-pass
#: counters in the kernel hot loops then cost one global load and a
#: falsy test instead of a ContextVar lookup.  Over-counting across
#: threads is harmless — a non-zero count merely routes a call to the
#: exact ContextVar check, which still answers per-context.
_ACTIVATIONS = 0


class Tracer:
    """Collects phases, counters, and probe events for one activation.

    Parameters
    ----------
    sink:
        Optional :class:`~repro.observability.trace.TraceSink`
        receiving every probe event as it happens (the tracer also
        keeps its own list in :attr:`probes`).

    Example::

        tracer = Tracer()
        with tracer.activate():
            ptas_schedule(inst, eps=0.3)   # instrumented internally
        tracer.counters["probe.count"]
        tracer.timer.seconds["probe.dp"]
    """

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink
        #: accumulated wall seconds per named phase.
        self.timer = PhaseTimer()
        #: accumulated named counters.
        self.counters: Dict[str, float] = {}
        #: every probe event recorded while active.
        self.probes: List[ProbeTrace] = []
        # One tracer may receive events from several threads at once
        # (the parallel host executor propagates the ambient context
        # into its probe workers); the read-modify-write tallies take
        # a lock so no increment is lost.
        self._lock = threading.Lock()

    # -- collection ---------------------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def record_probe(self, probe: ProbeTrace) -> None:
        """Record one probe event (and forward it to the sink)."""
        with self._lock:
            self.probes.append(probe)
        if self.sink is not None:
            self.sink.record(probe)

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's collections into this one.

        Phases and counters accumulate; probe events append in order
        (and flow to this tracer's sink).  Used by the batch service to
        combine the per-request tracers of a fan-out into one
        aggregate report.
        """
        self.timer.merge(other.timer)
        for name, delta in other.counters.items():
            self.count(name, delta)
        for probe in other.probes:
            self.record_probe(probe)

    def __getstate__(self) -> Dict[str, object]:
        # Pickles without its lock, so a forked batch worker can send
        # its request's tracer back to the parent.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- activation ---------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer as the ambient collector for the block."""
        global _ACTIVATIONS
        token = _ACTIVE.set(self)
        _ACTIVATIONS += 1
        try:
            yield self
        finally:
            _ACTIVATIONS -= 1
            _ACTIVE.reset(token)

    # -- reporting ----------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """JSON-ready summary: phases, counters, and probe events."""
        return {
            "phases": self.timer.as_dict(),
            "counters": dict(self.counters),
            "probes": [p.to_dict() for p in self.probes],
        }


def as_tracer(trace: object) -> Optional[Tracer]:
    """Coerce a ``trace=`` argument into a :class:`Tracer`.

    Accepts ``None`` (no tracing), an existing :class:`Tracer` (used
    as-is), or a bare :class:`~repro.observability.trace.TraceSink`
    (wrapped in a fresh tracer that forwards probe events to it).
    """
    if trace is None:
        return None
    if isinstance(trace, Tracer):
        return trace
    if hasattr(trace, "record"):
        return Tracer(sink=trace)  # type: ignore[arg-type]
    raise TypeError(
        f"trace must be None, a Tracer, or a TraceSink; got {type(trace).__name__}"
    )


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when nothing is being traced.

    Costs one global load when no tracer exists anywhere in the
    process — the common production case.
    """
    if not _ACTIVATIONS:
        return None
    return _ACTIVE.get()


def count(name: str, delta: float = 1) -> None:
    """Increment counter ``name`` on the ambient tracer (no-op if none).

    Hot loops should accumulate locally and call this once — with no
    tracer active anywhere the no-op path is a single global check,
    cheap enough for per-config-pass call sites.
    """
    if not _ACTIVATIONS:
        return
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.count(name, delta)


def add_time(name: str, seconds: float) -> None:
    """Credit ``seconds`` to phase ``name`` on the ambient tracer."""
    if not _ACTIVATIONS:
        return
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.timer.add(name, seconds)


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a block as phase ``name`` on the ambient tracer.

    A fast no-op when no tracer is active (a global check plus, with
    tracers elsewhere, the ``ContextVar`` lookup).
    """
    if not _ACTIVATIONS:
        yield
        return
    tracer = _ACTIVE.get()
    if tracer is None:
        yield
        return
    with tracer.timer.phase(name):
        yield


def record_probe(probe: ProbeTrace) -> None:
    """Record a probe event on the ambient tracer (no-op if none)."""
    if not _ACTIVATIONS:
        return
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.record_probe(probe)
