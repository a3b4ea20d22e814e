"""Accumulating named-phase timers.

:class:`repro.util.timing.Timer` times one block; :class:`PhaseTimer`
times *many named blocks*, accumulating re-entries to the same name —
which is what a search loop needs ("total seconds spent in the DP fill
across all probes") and what the per-probe events record ("seconds of
*this* probe's rounding step").

The clock is ``time.perf_counter`` throughout, matching the rest of
the harness.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Example::

        timer = PhaseTimer()
        with timer.phase("rounding"):
            ...
        with timer.phase("dp"):
            ...
        timer.seconds["dp"]     # float seconds, accumulated
        timer.total             # sum over all phases

    Phases may nest (distinct names each accumulate their own wall
    time; nested seconds are therefore counted once per enclosing
    name, which is the conventional inclusive-time reading).
    """

    __slots__ = ("seconds", "entries", "_lock")

    def __init__(self) -> None:
        #: phase name -> accumulated seconds.
        self.seconds: Dict[str, float] = {}
        #: phase name -> number of times the phase was entered.
        self.entries: Dict[str, int] = {}
        # The ambient tracer's timer receives add() calls from the
        # parallel host executor's probe threads; the accumulation is
        # a read-modify-write, so it takes a lock.
        self._lock = threading.Lock()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one entry of phase ``name`` (accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` to ``name`` directly (merge path; thread-safe)."""
        with self._lock:
            self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)
            self.entries[name] = self.entries.get(name, 0) + 1

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulations into this one."""
        for name, secs in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + secs
            self.entries[name] = self.entries.get(name, 0) + other.entries.get(name, 0)

    def __getstate__(self) -> Dict[str, Dict]:
        # The lock cannot cross a process boundary; the tallies can
        # (the batch scheduler ships each worker's tracer home).
        return {"seconds": self.seconds, "entries": self.entries}

    def __setstate__(self, state: Dict[str, Dict]) -> None:
        self.seconds = state["seconds"]
        self.entries = state["entries"]
        self._lock = threading.Lock()

    @property
    def total(self) -> float:
        """Sum of all phase seconds (nested phases count per name)."""
        return float(sum(self.seconds.values()))

    def as_dict(self) -> Dict[str, float]:
        """Plain ``{name: seconds}`` copy for reports and JSON."""
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:.3g}s" for k, v in sorted(self.seconds.items()))
        return f"PhaseTimer({inner})"
