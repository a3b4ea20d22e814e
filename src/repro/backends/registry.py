"""The backend registry: every DP solver under one string name.

A *backend* is anything satisfying the
:class:`~repro.core.ptas.DPSolver` protocol — the pure in-process
solvers (``dp_vectorized``, the kernels, ``dp_reference``) and the
five simulator engines (serial, OpenMP, naive GPU, partitioned GPU,
hybrid).  Before this registry existed every call site constructed its
backend inline (the CLI hard-coded one list, the runner another, each
experiment a third); now construction happens in exactly one place and
callers say ``resolve("gpu-dim6")``.

Each backend registers a :class:`BackendSpec` carrying:

* ``name`` — the canonical string (``"vectorized"``, ``"omp-28"``,
  ``"gpu-dim6"``, ...), plus optional ``aliases`` (``"openmp-28"``);
* ``factory`` — builds a **fresh** solver per :func:`resolve` call
  (engines are stateful: they accumulate ``runs`` and simulated time,
  so sharing instances across runs would corrupt accounting);
* capability metadata — ``simulated`` (charges modelled hardware time
  vs. a pure function) and ``concurrency`` (``"none"`` /
  ``"host-threads"`` / ``"device-streams"``), which is what the runner
  uses to pick a :class:`~repro.core.executor.ProbeExecutor`.

Parameterised families (``omp-<threads>``, ``gpu-dim<d>``) resolve any
member by name even if only the common sizes are listed canonically:
``resolve("omp-40")`` or ``resolve("gpu-dim5")`` synthesise the right
spec on the fly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ptas import DPSolver
from repro.errors import BackendError

#: concurrency capability values a BackendSpec may declare.
CONCURRENCY_MODELS = ("none", "host-threads", "device-streams")


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend: identity, factory, and capabilities."""

    #: canonical name, e.g. ``"gpu-dim6"``.
    name: str
    #: builds a fresh solver; keyword arguments are forwarded verbatim
    #: (e.g. ``resolve("gpu-naive", check_memory=False)``).
    factory: Callable[..., DPSolver]
    #: True when the backend charges simulated hardware time per probe.
    simulated: bool
    #: one of :data:`CONCURRENCY_MODELS` — how the backend overlaps work.
    concurrency: str
    #: one-line human description (shown by ``repro engines``/docs).
    description: str = ""
    #: accepted alternative names.
    aliases: Tuple[str, ...] = ()
    #: True when the factory accepts a ``plan_cache=`` keyword — the
    #: backend consumes the :class:`~repro.dptable.plan.ProbePlan` IR
    #: and can share plans across probes (see
    #: :class:`~repro.core.probe_cache.PlanCache`).  The batch service
    #: and the runners use this to inject a shared plan cache.
    plan_aware: bool = False

    def __post_init__(self) -> None:
        if self.concurrency not in CONCURRENCY_MODELS:
            raise BackendError(
                f"concurrency must be one of {CONCURRENCY_MODELS}, "
                f"got {self.concurrency!r}"
            )

    def create(self, **kwargs: object) -> DPSolver:
        """Build a fresh solver instance (engines) or the solver function."""
        return self.factory(**kwargs)


_REGISTRY: Dict[str, BackendSpec] = {}
_ALIASES: Dict[str, str] = {}
#: (compiled pattern, spec-builder) pairs for parameterised families.
_FAMILIES: List[Tuple[re.Pattern[str], Callable[[re.Match[str]], BackendSpec]]] = []


def register(spec: BackendSpec) -> BackendSpec:
    """Add ``spec`` to the registry (idempotent per name; re-register to replace)."""
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def register_family(
    pattern: str, build: Callable[[re.Match[str]], BackendSpec]
) -> None:
    """Register a parameterised name family.

    ``pattern`` is a full-match regex; when :func:`get_spec` misses the
    canonical table, the first matching family builds (and caches) a
    spec from the match — e.g. ``omp-(\\d+)`` → an OpenMP engine with
    that thread count.
    """
    _FAMILIES.append((re.compile(pattern), build))


def backend_names(simulated: Optional[bool] = None) -> List[str]:
    """Canonical names in registration order, optionally filtered.

    ``simulated=True`` keeps only the simulator engines,
    ``simulated=False`` only the pure solvers, ``None`` everything.
    """
    return [
        s.name
        for s in _REGISTRY.values()
        if simulated is None or s.simulated == simulated
    ]


def iter_backends(simulated: Optional[bool] = None) -> List[BackendSpec]:
    """Registered specs in registration order, optionally filtered."""
    return [
        s
        for s in _REGISTRY.values()
        if simulated is None or s.simulated == simulated
    ]


def get_spec(name: str) -> BackendSpec:
    """Look up a backend spec by canonical name, alias, or family match.

    Raises :class:`~repro.errors.BackendError` (listing every valid
    canonical name) when nothing matches.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name in _ALIASES:
        return _REGISTRY[_ALIASES[name]]
    for pattern, build in _FAMILIES:
        match = pattern.fullmatch(name)
        if match:
            # Synthesised on the fly, deliberately NOT added to the
            # canonical table: the listing stays the curated set while
            # any family member still resolves.
            return build(match)
    raise BackendError(
        f"unknown backend {name!r}; valid backends: "
        + ", ".join(backend_names())
        + " (plus the omp-<threads> and gpu-dim<d> families)"
    )


def resolve(name: str, **kwargs: object) -> DPSolver:
    """Build a fresh solver for backend ``name``.

    Keyword arguments are forwarded to the backend factory (engines
    accept their constructor keywords, e.g.
    ``resolve("gpu-dim6", num_streams=2)`` or
    ``resolve("gpu-naive", check_memory=False)``; the pure solver
    factories accept none).
    """
    return get_spec(name).create(**kwargs)


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves (canonical, alias, or family member)."""
    try:
        get_spec(name)
    except BackendError:
        return False
    return True
