"""Cross-probe solver cache: stop re-deriving what adjacent probes share.

Every dual-approximation probe at a target ``T`` performs three
derivations before any scheduling happens: round the instance
(:func:`repro.core.rounding.round_instance`), enumerate the machine
configurations ``C`` (:func:`repro.core.configs.enumerate_configurations`),
and fill the DP-table.  A PTAS search performs dozens of probes —
and the instrumentation layer (:mod:`repro.observability`) shows that
configuration enumeration plus the DP fill dominate every probe.
Much of that work is *identical across probes*:

* The final clean-up probe of both searches re-probes a target that
  was usually already probed inside the loop.
* Batch workloads (``examples/cluster_batch_scheduling.py``) schedule
  related instances over several accuracies and searches, repeating
  probes wholesale.
* Most importantly, the rounded view is **scale-invariant**: rounding
  maps each long job to class index ``c = t // unit`` with
  ``unit = floor(T/k^2)``, and a configuration ``s`` is feasible iff
  ``sum_i s_i * (c_i * unit) <= T``, i.e. iff
  ``sum_i s_i * c_i <= T // unit``.  Two probes at *different* targets
  whose rounding produced the same class-index vector, the same job
  counts, and the same scaled budget ``T // unit`` therefore have
  **bit-identical configuration sets and DP-tables**, even though
  their absolute ``class_sizes`` differ.  Nearby targets frequently
  collide this way — the sparsification observation of
  Jansen–Klein–Verschae, applied at the probe level.

:class:`ProbeCache` memoizes all three artifacts.  Rounding is keyed
on the exact ``(instance, target, k)``; configurations and DP results
are keyed on the *normalized* ``(class-index vector, counts,
T // unit)`` so hits occur across targets, across the four concurrent
quarter-split segments, across both search strategies, and across the
instances of a batch run that happen to round identically.

Correctness: the DP-table's values are machine counts determined
solely by the configuration set and the count vector, both functions
of the normalized key — so a cache hit returns exactly the table the
solver would have produced (property-tested: cached and uncached runs
yield identical final targets, makespans, and schedules).

The cache is **opt-in** (``ptas_schedule(..., cache=ProbeCache())``):
the simulated engines charge hardware time per DP fill as a side
effect, and a cache hit legitimately skips that charge, which is the
right accounting for a real system but not for reproducing the
paper's no-cache Table VII numbers.

Thread-safety: plain dicts guarded by the GIL; safe for the
concurrent quarter-split segments (which in this reproduction execute
sequentially) and for multi-threaded readers.  Do not share one cache
across processes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from collections import OrderedDict

from repro.core.configs import enumerate_configurations
from repro.core.dp_common import DPResult
from repro.core.instance import Instance
from repro.core.rounding import RoundedInstance, accuracy_k, round_instance

if TYPE_CHECKING:
    from repro.models.base import FillSpec
from repro.dptable.plan import (
    ProbePlan,
    build_probe_plan,
    configs_signature,
    plan_signature,
)
from repro.dptable.table import TableGeometry
from repro.observability import context as obs

#: Normalized probe key: (class-index vector, counts, scaled target).
NormalizedKey = Tuple[Tuple[int, ...], Tuple[int, ...], int]

#: Normalized request key: (model, instance, accuracy k, search, backend).
RequestKey = Tuple[str, Instance, int, str, Optional[str]]

#: Sentinel distinguishing "not cached" from a cached falsy artifact.
_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss (and eviction) tallies per cached artifact kind."""

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    evictions: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, hit: bool) -> None:
        """Tally one lookup of ``kind``."""
        bucket = self.hits if hit else self.misses
        bucket[kind] = bucket.get(kind, 0) + 1

    def record_eviction(self, kind: str) -> None:
        """Tally one capacity eviction of ``kind``."""
        self.evictions[kind] = self.evictions.get(kind, 0) + 1

    def hit_rate(self, kind: str) -> float:
        """Fraction of ``kind`` lookups served from the cache."""
        h = self.hits.get(kind, 0)
        m = self.misses.get(kind, 0)
        return h / (h + m) if (h + m) else 0.0

    @property
    def total_hits(self) -> int:
        """Hits summed over every artifact kind."""
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        """Misses summed over every artifact kind."""
        return sum(self.misses.values())

    @property
    def total_evictions(self) -> int:
        """Evictions summed over every artifact kind."""
        return sum(self.evictions.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view with per-kind rates.

        The ``evictions`` entry appears only for kinds that actually
        evicted — unbounded caches keep the historical compact shape.
        """
        kinds = sorted(set(self.hits) | set(self.misses) | set(self.evictions))
        out: Dict[str, object] = {}
        for kind in kinds:
            spec: Dict[str, object] = {
                "hits": self.hits.get(kind, 0),
                "misses": self.misses.get(kind, 0),
                "hit_rate": round(self.hit_rate(kind), 4),
            }
            if self.evictions.get(kind, 0):
                spec["evictions"] = self.evictions[kind]
            out[kind] = spec
        return out

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{kind}={spec['hits']}/{spec['hits'] + spec['misses']}"  # type: ignore[index]
            for kind, spec in self.as_dict().items()
        )
        return f"CacheStats({parts or 'empty'})"


class NullProbeCache:
    """Pass-through stand-in for :class:`ProbeCache`: same interface, no reuse.

    :func:`repro.core.ptas.probe_target` always talks to a cache object
    so the probe has one code path instead of parallel cached/uncached
    branches; when the caller passed ``cache=None`` it talks to this
    one, which simply performs every derivation fresh.  ``last_events``
    stays empty (there are no hits or misses to report), matching the
    cacheless trace output exactly.
    """

    #: mirrors ProbeCache.share_dp: the DP solver runs on every probe.
    share_dp = False

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.last_events: Dict[str, str] = {}

    def rounding(self, instance: Instance, target: int, eps: float) -> RoundedInstance:
        """Uncached :func:`~repro.core.rounding.round_instance`."""
        return round_instance(instance, target, eps)

    def configurations(
        self, rounded: RoundedInstance, fill: Optional["FillSpec"] = None
    ) -> np.ndarray:
        """Uncached configuration enumeration (``fill`` overrides budget/cap)."""
        if _is_default_fill(rounded, fill):
            return enumerate_configurations(
                rounded.class_sizes, rounded.counts, rounded.target
            )
        return fill.enumerate()

    def dp(
        self, rounded: RoundedInstance, solver, fill: Optional["FillSpec"] = None
    ) -> DPResult:
        """Run ``solver`` directly (it enumerates configurations itself)."""
        if _is_default_fill(rounded, fill):
            return solver(
                rounded.counts,
                rounded.class_sizes,
                rounded.target,
                **_solver_kwargs(fill, solver),
            )
        configs = fill.enumerate()
        return solver(
            fill.counts,
            fill.class_sizes,
            fill.budget,
            configs=configs,
            **_solver_kwargs(fill, solver),
        )

    def geometry(self, counts: Tuple[int, ...]) -> TableGeometry:
        """Uncached :meth:`TableGeometry.from_counts`."""
        return TableGeometry.from_counts(tuple(int(c) for c in counts))

    def begin_probe(self) -> None:
        """No per-probe state to reset."""

    def clear(self) -> None:
        """Nothing cached, nothing to drop."""

    def __len__(self) -> int:
        return 0


def as_cache(cache: Optional["ProbeCache"]) -> "ProbeCache | NullProbeCache":
    """Coerce a ``cache=`` argument into a cache object.

    ``None`` becomes a fresh :class:`NullProbeCache`; anything else is
    returned as-is.  This is what lets every caller hold exactly one
    code path regardless of whether caching was requested.
    """
    return cache if cache is not None else NullProbeCache()


def normalized_probe_key(rounded: RoundedInstance) -> NormalizedKey:
    """The scale-invariant identity of a rounded probe.

    ``class_sizes[i] == index_i * unit`` exactly (rounding is a floor
    to a multiple of ``unit``), so the integer divisions below are
    lossless; see the module docstring for why ``target // unit``
    completes the key.
    """
    unit = rounded.unit
    indices = tuple(s // unit for s in rounded.class_sizes)
    return (indices, rounded.counts, rounded.target // unit)


def _is_default_fill(rounded: RoundedInstance, fill: Optional["FillSpec"]) -> bool:
    """Whether ``fill`` is the classic identical-model fill of ``rounded``.

    The default fill (budget ``T``, no job cap, no plan token, the
    rounded instance's own classes) is exactly what the pre-model
    library solved, so it keeps the pre-model cache keys and solver
    call shapes — including across models: a 1-type unit-speed lift
    produces this same default fill and therefore shares tables with
    the identical model bit-for-bit.
    """
    return fill is None or (
        fill.budget == rounded.target
        and fill.max_jobs is None
        and fill.token is None
        and fill.counts == rounded.counts
        and fill.class_sizes == rounded.class_sizes
    )


def _fill_key(rounded: RoundedInstance, fill: "FillSpec"):
    """Scale-invariant identity of a non-default fill.

    Mirrors :func:`normalized_probe_key`: sizes are exact multiples of
    the unit and a configuration is feasible iff the *scaled* budget
    admits it, so ``budget // unit`` is lossless.  The job cap joins
    the key because it filters the configuration set.  Being a 4-tuple
    it can never collide with the default fills' 3-tuple keys.
    """
    unit = rounded.unit
    indices = tuple(s // unit for s in fill.class_sizes)
    return (indices, fill.counts, fill.budget // unit, fill.max_jobs)


def _fill_kwargs(fill: "FillSpec") -> Dict[str, object]:
    """Extra solver kwargs a fill demands (the plan token, when set)."""
    return {} if fill.token is None else {"model_token": fill.token}


def _solver_kwargs(
    fill: Optional["FillSpec"], solver
) -> Dict[str, object]:
    """Solver kwargs for one fill, shaped to what ``solver`` accepts.

    The plan token passes through whenever set.  A fill that opted out
    of sparsification (``FillSpec.sparsify=False`` — a model whose
    configuration set is not downward closed) forces ``sparsify=False``
    onto solvers that advertise ``supports_sparsify``; solvers without
    the attribute never prune, so they get the historical call shape
    untouched.
    """
    if fill is None:
        return {}
    kwargs = _fill_kwargs(fill)
    if not fill.sparsify and getattr(solver, "supports_sparsify", False):
        kwargs["sparsify"] = False
    return kwargs


def _warm_family(base_key) -> tuple:
    """The warm-start family of a DP key: everything but the budget.

    Default-fill keys are ``(indices, counts, scaled_budget)``;
    non-default fills append ``max_jobs``.  Two fills in one family
    differ only in the scaled budget, so the smaller budget's
    configuration set is a subset of the larger's and its table values
    are pointwise upper bounds on the larger fill's fixpoint — exactly
    the seeding precondition of
    :func:`~repro.core.dp_vectorized.seed_warm_table`.
    """
    indices, counts = base_key[0], base_key[1]
    max_jobs = base_key[3] if len(base_key) > 3 else None
    return (indices, counts, max_jobs)


def _warm_budget(base_key) -> int:
    """The scaled budget component of a DP key."""
    return int(base_key[2])


def normalized_request_key(
    instance: Instance,
    eps: float,
    search: str,
    backend: Optional[str] = None,
) -> RequestKey:
    """The coalescing identity of one *whole scheduling request*.

    Two requests with this key produce bit-identical PTAS outcomes, so
    an in-flight pipeline can be shared between them (the always-on
    service's request coalescer keys its in-flight table on this).

    The key extends the probe-level normalization one level up: ``eps``
    enters the scheduling path only through the accuracy parameter
    ``k = ceil(1/eps)`` (rounding, configuration enumeration, and the
    DP all see ``k``, never ``eps`` itself — the same collapse
    :meth:`ProbeCache.rounding` exploits), so requests at different
    ``eps`` with equal ``k`` coalesce.  The search strategy and backend
    stay in the key: both searches converge to the same final target
    but keep different best-schedule tie-breaks and iteration counts,
    and simulated backends charge different modelled time.

    The machine model leads the key explicitly: requests for different
    models over coincidentally-equal job arrays must never share a
    pipeline run (the frozen instance hash already covers the model
    fields, but the leading element makes the discriminator structural
    rather than incidental).
    """
    return (instance.model, instance, accuracy_k(eps), str(search), backend)


class ProbeCache:
    """Memoizes rounding, configuration enumeration, and DP-tables.

    Share one instance across an entire search — and across searches
    and instances of a batch — to reuse everything reusable.  See the
    module docstring for the keying scheme and the opt-in rationale;
    ``docs/PERFORMANCE.md`` for tuning guidance.

    Parameters
    ----------
    share_dp:
        When ``False``, only rounding and configuration enumeration
        are cached and every probe still runs its DP solver.  Use
        this when the solver's side effects matter (e.g. the
        simulated engines accumulating per-probe hardware time).
    capacity:
        Maximum entries *per artifact kind*; least-recently-used
        entries are evicted past it (tallied in ``stats.evictions``
        and the ``cache.<kind>.evicted`` counter).  ``None`` keeps the
        historical unbounded behaviour.  The default bounds a
        long-lived batch service: DP entries hold full tables, so an
        unbounded cache fed adversarial probe mixes grows without
        limit.
    warm_start:
        When ``True`` (default), a DP miss whose solver advertises
        ``supports_warm_start`` is seeded from the cached table of the
        *nearest smaller scaled budget* in the same key family (same
        class indices, counts, job cap, and solver token): that
        table's values are pointwise upper bounds on the new fill's
        fixpoint, so relaxing from them converges to the exact same
        table as a cold fill while skipping the rounds that rebuilt
        the shared structure.  Warm results are stored under a
        ``("warm", token)`` key extension — a warm table is the full
        no-change fixpoint while a cold decision fill may have
        early-accepted with non-final interior cells, so the two must
        never alias.  Lookups consult the cold key first, then the
        warm key (a warm table answers strictly more).
    """

    def __init__(
        self,
        share_dp: bool = True,
        capacity: Optional[int] = 4096,
        warm_start: bool = True,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("ProbeCache capacity must be >= 1 (or None)")
        self.share_dp = share_dp
        self.capacity = capacity
        self.warm_start = bool(warm_start)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._rounding: "OrderedDict[Tuple[Instance, int, int], RoundedInstance]" = (
            OrderedDict()
        )
        self._configs: "OrderedDict[NormalizedKey, np.ndarray]" = OrderedDict()
        self._dp: "OrderedDict[Tuple[NormalizedKey, object], DPResult]" = OrderedDict()
        self._geometry: "OrderedDict[Tuple[int, ...], TableGeometry]" = OrderedDict()
        #: warm-start index: (family, token) -> {scaled budget: dp key}.
        #: Entries are validated against ``_dp`` lazily (evictions there
        #: leave stale pointers here, pruned on the next lookup).
        self._warm_index: Dict[tuple, Dict[int, tuple]] = {}
        #: cache outcomes of the most recent probe ("hit"/"miss" per
        #: kind) — consumed by the per-probe trace events.
        self.last_events: Dict[str, str] = {}

    # -- artifacts ----------------------------------------------------------

    def rounding(self, instance: Instance, target: int, eps: float) -> RoundedInstance:
        """Memoized :func:`~repro.core.rounding.round_instance`.

        Keyed on the exact ``(instance, target, k)`` — rounding
        depends on nothing else (:class:`~repro.core.instance.Instance`
        is frozen and hashable).
        """
        key = (instance, int(target), accuracy_k(eps))
        value = self._lookup(self._rounding, key)
        hit = value is not _MISS
        if not hit:
            value = round_instance(instance, target, eps)
            value = self._store("rounding", self._rounding, key, value)
        self._note("rounding", hit)
        return value

    def configurations(
        self, rounded: RoundedInstance, fill: Optional["FillSpec"] = None
    ) -> np.ndarray:
        """Memoized configuration set ``C`` for a rounded probe.

        Returned arrays are shared and marked read-only; copy before
        mutating (no library code mutates them).  A non-default
        ``fill`` (other budget or job cap — the new machine models) is
        keyed by its own normalized identity.
        """
        if _is_default_fill(rounded, fill):
            key = normalized_probe_key(rounded)
        else:
            key = _fill_key(rounded, fill)
        value = self._lookup(self._configs, key)
        hit = value is not _MISS
        if not hit:
            if _is_default_fill(rounded, fill):
                configs = enumerate_configurations(
                    rounded.class_sizes, rounded.counts, rounded.target
                )
            else:
                configs = fill.enumerate()
            configs.setflags(write=False)
            value = self._store("configs", self._configs, key, configs)
        self._note("configs", hit)
        return value

    def dp(
        self, rounded: RoundedInstance, solver, fill: Optional["FillSpec"] = None
    ) -> DPResult:
        """DP-table for a rounded probe, via ``solver`` on a miss.

        ``solver`` follows the :class:`~repro.core.ptas.DPSolver`
        protocol and receives the (cached) configuration set, so a
        miss still skips re-enumeration.  All *exact* solvers produce
        identical tables for identical inputs (tested), so their
        tables share one entry per normalized key.  Solvers whose
        results are valid only under extra context — a budget-bound
        ``auto`` kernel, whose clamped tables depend on the budget —
        advertise a ``dp_cache_token`` that extends the key, so a
        clamped table is never served to a different budget (or to an
        exact solver).  ``fill`` (a model's
        :class:`~repro.models.base.FillSpec`) selects the budget, job
        cap, and plan token; the default fill keeps the pre-model keys
        and call shape exactly.
        """
        default = _is_default_fill(rounded, fill)
        if not self.share_dp:
            configs = self.configurations(rounded, fill=fill)
            if default:
                return solver(
                    rounded.counts,
                    rounded.class_sizes,
                    rounded.target,
                    configs=configs,
                    **_solver_kwargs(fill, solver),
                )
            return solver(
                fill.counts,
                fill.class_sizes,
                fill.budget,
                configs=configs,
                **_solver_kwargs(fill, solver),
            )
        base_key = (
            normalized_probe_key(rounded) if default else _fill_key(rounded, fill)
        )
        token = getattr(solver, "dp_cache_token", None)
        key = (base_key, token)
        warm_key = (base_key, ("warm", token))
        value = self._lookup(self._dp, key)
        if value is _MISS:
            # A warm-started table is the full fixpoint — it answers
            # anything a cold table would, so serve it when present.
            value = self._lookup(self._dp, warm_key)
        hit = value is not _MISS
        if not hit:
            configs = self.configurations(rounded, fill=fill)
            kwargs = _solver_kwargs(fill, solver)
            warm_table = None
            if (
                self.warm_start
                and getattr(solver, "supports_warm_start", False)
                and kwargs.get("sparsify") is not False
            ):
                warm_table = self._warm_source(base_key, token)
                self._note("warmstart", warm_table is not None)
            if warm_table is not None:
                kwargs["warm_table"] = warm_table
            if default:
                result = solver(
                    rounded.counts,
                    rounded.class_sizes,
                    rounded.target,
                    configs=configs,
                    **kwargs,
                )
            else:
                result = solver(
                    fill.counts,
                    fill.class_sizes,
                    fill.budget,
                    configs=configs,
                    **kwargs,
                )
            store_key = warm_key if warm_table is not None else key
            value = self._store("dp", self._dp, store_key, result)
            self._register_warm(base_key, token, store_key)
        self._note("dp", hit)
        return value

    def _warm_source(self, base_key, token) -> Optional[np.ndarray]:
        """The cached table of the nearest smaller same-family budget.

        Returns the table array (or ``None``).  Stale index entries —
        pointers into evicted ``_dp`` slots — are pruned as they are
        encountered.
        """
        family = (_warm_family(base_key), token)
        budget = _warm_budget(base_key)
        with self._lock:
            budgets = self._warm_index.get(family)
            if not budgets:
                return None
            best = None
            for b in sorted(budgets, reverse=True):
                dp_key = budgets[b]
                if dp_key not in self._dp:
                    del budgets[b]  # evicted since registration
                    continue
                if b < budget:
                    best = self._dp[dp_key]
                    break
            if best is None:
                return None
        table = best.table
        return None if table.ndim == 0 else table

    def _register_warm(self, base_key, token, store_key) -> None:
        """Index one stored DP result as a future warm-start source."""
        family = (_warm_family(base_key), token)
        with self._lock:
            self._warm_index.setdefault(family, {})[
                _warm_budget(base_key)
            ] = store_key

    def geometry(self, counts: Tuple[int, ...]) -> TableGeometry:
        """Memoized :meth:`TableGeometry.from_counts` (strides reuse)."""
        counts = tuple(int(c) for c in counts)
        value = self._lookup(self._geometry, counts)
        hit = value is not _MISS
        if not hit:
            value = self._store(
                "geometry", self._geometry, counts, TableGeometry.from_counts(counts)
            )
        self._note("geometry", hit)
        return value

    # -- bookkeeping --------------------------------------------------------

    def _lookup(self, store: "OrderedDict", key: object) -> object:
        """Locked LRU read: hit refreshes recency, miss returns ``_MISS``."""
        with self._lock:
            if key in store:
                store.move_to_end(key)
                return store[key]
        return _MISS

    def _store(self, kind: str, store: "OrderedDict", key: object, value: object):
        """Locked insert with LRU eviction past ``capacity``.

        Returns the entry actually cached — a concurrent double-miss
        keeps the first writer's artifact so every caller shares one
        object, matching the idempotent-insert contract.
        """
        evicted = 0
        with self._lock:
            if key in store:
                store.move_to_end(key)
                return store[key]
            store[key] = value
            if self.capacity is not None:
                while len(store) > self.capacity:
                    store.popitem(last=False)
                    self.stats.record_eviction(kind)
                    evicted += 1
        for _ in range(evicted):
            obs.count(f"cache.{kind}.evicted")
        return value

    def _note(self, kind: str, hit: bool) -> None:
        # The lock covers the read-modify-write tallies; the artifact
        # dicts themselves rely on the GIL (idempotent inserts — a
        # concurrent double-miss wastes one solve, never corrupts).
        with self._lock:
            self.stats.record(kind, hit)
            self.last_events[kind] = "hit" if hit else "miss"
        obs.count(f"cache.{kind}.{'hit' if hit else 'miss'}")

    def begin_probe(self) -> None:
        """Reset the per-probe event snapshot (called by the probe)."""
        self.last_events = {}

    def clear(self) -> None:
        """Drop every cached artifact (stats are retained)."""
        self._rounding.clear()
        self._configs.clear()
        self._dp.clear()
        self._geometry.clear()
        self._warm_index.clear()

    def __len__(self) -> int:
        """Total number of cached artifacts across all kinds."""
        return (
            len(self._rounding)
            + len(self._configs)
            + len(self._dp)
            + len(self._geometry)
        )


def _require_configs_for_token(model_token: Optional[tuple], configs) -> None:
    """Filtered-model plans cannot be enumerated by the plan layer itself."""
    if model_token is not None and configs is None:
        from repro.errors import DPError

        raise DPError(
            f"plan lookup with model_token={model_token!r} requires an explicit "
            "configuration set (the filtered enumeration lives with the model)"
        )


class NullPlanCache:
    """Pass-through stand-in for :class:`PlanCache`: builds every plan fresh.

    Mirrors :class:`NullProbeCache` — engines always talk to *a* plan
    cache so they hold one code path; this one never reuses anything.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()

    def plan(
        self,
        counts: Tuple[int, ...],
        class_sizes: Tuple[int, ...],
        target: int,
        configs: Optional[np.ndarray] = None,
        eager: bool = True,
        model_token: Optional[tuple] = None,
        sparsify: bool = False,
    ) -> ProbePlan:
        """Uncached :func:`~repro.dptable.plan.build_probe_plan`."""
        _require_configs_for_token(model_token, configs)
        return build_probe_plan(
            counts, class_sizes, target, configs, eager=eager, sparsify=sparsify
        )

    def clear(self) -> None:
        """Nothing cached, nothing to drop."""

    def __len__(self) -> int:
        return 0


class PlanCache:
    """LRU cache of :class:`~repro.dptable.plan.ProbePlan` objects.

    The plan layer is pure structure — functions of the table shape and
    configuration set only — so it is *always* safe to share, even for
    the simulated engines whose DP results must not be shared
    (``ProbeCache(share_dp=False)``): a plan hit skips re-deriving
    levels, work profiles, and block schedules, while every engine
    still pays its own modelled hardware time for executing them.

    Keys (see :func:`~repro.dptable.plan.plan_signature`):

    * when the caller already holds the configuration set, the exact
      ``("cfg", shape, configs)`` identity;
    * otherwise the gcd-normalized ``("norm", counts, sizes/g, T//g)``
      signature, which makes probes at different absolute targets
      collide whenever their rounded structure agrees — the same
      scale-invariance the probe cache exploits (quarter-split rounds
      frequently probe four targets that normalize to one plan).

    Both keys for one plan alias the same object, so a probe that
    first arrives with configurations in hand still seeds later
    normalized lookups.  Lookups emit ``plan.cache.hit`` /
    ``plan.cache.miss`` observability counters; construction cost
    flows to ``plan.build_ms``.

    Plans for big tables hold several int64 arrays of table size, so
    the cache is bounded: least-recently-used plans are evicted past
    ``capacity``.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("PlanCache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        # The LRU reorder (move_to_end) plus eviction are not safe
        # under the GIL alone; the parallel host executor's probe
        # threads share this cache, so the bookkeeping takes a lock.
        # Plan *construction* happens outside it (a concurrent
        # double-miss builds one redundant plan, never corrupts).
        self._lock = threading.Lock()
        self._plans: "OrderedDict[tuple, ProbePlan]" = OrderedDict()
        #: normalized-signature aliases pointing into ``_plans`` keys.
        self._aliases: Dict[tuple, tuple] = {}
        #: table shape -> key of a resident plan; the level schedule is
        #: a pure function of the shape, so a brand-new plan over a
        #: known shape inherits its mate's schedule instead of
        #: rebuilding it (recorded as the ``warmstart`` stats kind).
        self._by_shape: Dict[tuple, tuple] = {}

    def plan(
        self,
        counts: Tuple[int, ...],
        class_sizes: Tuple[int, ...],
        target: int,
        configs: Optional[np.ndarray] = None,
        eager: bool = True,
        model_token: Optional[tuple] = None,
        sparsify: bool = False,
    ) -> ProbePlan:
        """The memoized plan for one probe (built on the first miss).

        With ``configs`` the lookup is exact; without, it falls back to
        the normalized signature and enumerates configurations only on
        a miss.  ``eager=False`` skips the up-front build of the
        expensive layers on a miss — the relaxation kernels only need
        :attr:`~repro.dptable.plan.ProbePlan.relaxation_order`, and an
        engine that later hits the same plan builds (and then shares)
        the heavy layers on first touch.

        ``model_token`` extends the *normalized* signature (see
        :func:`~repro.dptable.plan.plan_signature`) so a plan over a
        model-filtered configuration set never registers a normalized
        alias that a token-less lookup for the same shape would hit.
        Callers with a token must supply ``configs`` — the cache cannot
        enumerate a filtered set itself.

        ``sparsify=True`` additionally wants the dominance-pruned
        layers: with ``eager`` they are built (and shared) here, and
        either way the lookup is tallied under the ``sparsify`` stats
        kind (hit = the sparse layers were already materialised on the
        plan).  A brand-new plan over an already-cached table *shape*
        inherits that mate's level schedule — the schedule is a pure
        function of the shape — tallied as the ``warmstart`` kind.
        """
        _require_configs_for_token(model_token, configs)
        norm_key = plan_signature(counts, class_sizes, target, model_token=model_token)
        if configs is not None:
            lookup = configs_signature(
                TableGeometry.from_counts(tuple(int(c) for c in counts)), configs
            )
        else:
            lookup = norm_key
        with self._lock:
            key = self._aliases.get(lookup, lookup)
            hit = key in self._plans
            if hit:
                self._plans.move_to_end(key)
                plan = self._plans[key]
        if not hit:
            # Build lazily here even when ``eager``: the shape-mate
            # schedule seed below must land before the first touch.
            plan = build_probe_plan(counts, class_sizes, target, configs, eager=False)
            warm_seeded = False
            with self._lock:
                existing = self._aliases.get(lookup, lookup)
                if existing in self._plans:
                    # Another thread built it first; keep theirs.
                    plan = self._plans[existing]
                    key = existing
                else:
                    mate_key = self._by_shape.get(plan.geometry.shape)
                    mate = (
                        self._plans.get(mate_key)
                        if mate_key is not None
                        else None
                    )
                    if mate is not None and "level_schedule" in mate.__dict__:
                        plan.__dict__["level_schedule"] = mate.__dict__[
                            "level_schedule"
                        ]
                        warm_seeded = True
                    self._plans[key] = plan
                    self._by_shape[plan.geometry.shape] = key
                    self.stats.record("warmstart", warm_seeded)
                    self._evict()
            if warm_seeded:
                obs.count("plan.cache.warm_seeded")
            if eager:
                plan.level_schedule
                plan.candidates
                if sparsify:
                    plan.sparse_configs
                    plan.sparse_valid
                else:
                    plan.valid
        if sparsify:
            sparse_ready = "sparse_configs" in plan.__dict__
            with self._lock:
                self.stats.record("sparsify", sparse_ready)
            if eager and not sparse_ready:
                plan.sparse_configs
                plan.sparse_valid
        with self._lock:
            # Register both signatures so config-keyed and target-keyed
            # lookups for the same structure converge on one plan object.
            self._aliases.setdefault(norm_key, key)
            self._aliases.setdefault(
                configs_signature(plan.geometry, plan.configs), key
            )
        self._note(hit)
        return plan

    def _evict(self) -> None:
        while len(self._plans) > self.capacity:
            stale_key, _ = self._plans.popitem(last=False)
            self.stats.record_eviction("plan")
            obs.count("plan.cache.evicted")
            for alias, key in list(self._aliases.items()):
                if key == stale_key:
                    del self._aliases[alias]
            for shape, key in list(self._by_shape.items()):
                if key == stale_key:
                    del self._by_shape[shape]

    def _note(self, hit: bool) -> None:
        with self._lock:
            self.stats.record("plan", hit)
        obs.count(f"plan.cache.{'hit' if hit else 'miss'}")

    def clear(self) -> None:
        """Drop every cached plan (stats are retained)."""
        with self._lock:
            self._plans.clear()
            self._aliases.clear()
            self._by_shape.clear()

    def __len__(self) -> int:
        return len(self._plans)


#: Process-wide default plan cache: plans are pure structure, so a
#: shared ambient cache is always sound (see :class:`PlanCache`).
#: Engines resolve ``plan_cache=None`` to this instance at run time.
_DEFAULT_PLAN_CACHE: Optional[PlanCache] = None


def default_plan_cache() -> PlanCache:
    """The lazily-created process-wide :class:`PlanCache`."""
    global _DEFAULT_PLAN_CACHE
    if _DEFAULT_PLAN_CACHE is None:
        _DEFAULT_PLAN_CACHE = PlanCache()
    return _DEFAULT_PLAN_CACHE
