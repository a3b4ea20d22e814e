"""Cross-probe DP-table cache: stop refilling what adjacent probes share.

Every dual-approximation probe at a target ``T`` rounds the instance
(:func:`repro.core.rounding.round_instance`), enumerates the machine
configurations ``C`` of each fill
(:func:`repro.core.configs.enumerate_configurations`), and fills the
DP-table.  A PTAS search performs dozens of probes, and the fill
dominates every one of them.  Much of that work is *identical across
probes*:

* The final clean-up probe of both searches re-probes a target that
  was usually already probed inside the loop.
* Batch workloads (``examples/cluster_batch_scheduling.py``) schedule
  related instances over several accuracies and searches, repeating
  probes wholesale.
* Most importantly, the rounded view is **scale-invariant**: rounding
  maps each long job to class index ``c = t // unit`` with
  ``unit = floor(T/k^2)``, and a configuration ``s`` is feasible iff
  ``sum_i s_i * (c_i * unit) <= B`` for the fill's budget ``B``, i.e.
  iff ``sum_i s_i * c_i <= B // unit``.  Two probes at *different*
  targets whose rounding produced the same class-index vector, the
  same job counts, and the same scaled budget ``B // unit`` therefore
  have **bit-identical configuration sets and DP-tables**, even though
  their absolute ``class_sizes`` differ.  Nearby targets frequently
  collide this way — the sparsification observation of
  Jansen–Klein–Verschae, applied at the probe level.

:class:`ProbeCache` memoizes one artifact, the DP-table, keyed on
:func:`fill_key` — ``(class-index vector, counts, B // unit,
max_jobs)`` — so hits occur across targets, across the four
concurrent quarter-split segments, across both search strategies,
across the instances of a batch run that happen to round identically,
and across machine models whose fills coincide (a 1-type unit-speed
lift shares the identical model's tables).  Rounding and configuration
enumeration are cheap next to a fill and are derived fresh on every
call, in one place (:class:`NullProbeCache`).

Correctness: the DP-table's values are machine counts determined
solely by the configuration set and the count vector, both functions
of the fill key — so a cache hit returns exactly the table the solver
would have produced (property-tested: cached and uncached runs yield
identical final targets, makespans, and schedules).

The cache is **opt-in** (``ptas_schedule(..., cache=ProbeCache())``):
the simulated engines charge hardware time per DP fill as a side
effect, and a cache hit legitimately skips that charge, which is the
right accounting for a real system but not for reproducing the
paper's no-cache Table VII numbers — pass ``cache=None`` for those.

Thread-safety: the table store and its warm-start index are guarded
by a lock, so one cache may serve concurrent probe threads (a
concurrent double-miss wastes one solve and keeps the first writer's
table).  Do not share one cache across processes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from collections import OrderedDict

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

#: Fill key: (class-index vector, counts, scaled budget, job cap).
FillKey = Tuple[Tuple[int, ...], Tuple[int, ...], int, Optional[int]]

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

    def merge(self, other: "CacheStats") -> None:
        """Add another tally's counts into this one."""
        for mine, theirs in (
            (self.hits, other.hits),
            (self.misses, other.misses),
            (self.evictions, other.evictions),
        ):
            for kind, n in theirs.items():
                mine[kind] = mine.get(kind, 0) + n

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

    The derivations live here once: :class:`ProbeCache` inherits
    :meth:`rounding` and :meth:`configurations` and memoizes only
    :meth:`dp`, whose miss path is :meth:`_solve`.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.last_events: Dict[str, str] = {}

    def rounding(self, instance: Instance, target: int, eps: float) -> RoundedInstance:
        """:func:`~repro.core.rounding.round_instance`, derived fresh."""
        rounded = round_instance(instance, target, eps)
        self._note("rounding", False)
        return rounded

    def configurations(
        self, rounded: RoundedInstance, fill: Optional["FillSpec"] = None
    ) -> np.ndarray:
        """The configuration set of ``fill`` (default: the identical fill).

        Returned read-only: the plan layer adopts a read-only set
        without copying it.
        """
        configs = _resolve_fill(rounded, fill).enumerate()
        configs.setflags(write=False)
        self._note("configs", False)
        return configs

    def dp(
        self, rounded: RoundedInstance, solver, fill: Optional["FillSpec"] = None
    ) -> DPResult:
        """Run ``solver`` on ``fill`` (default: the identical fill)."""
        return self._solve(rounded, solver, _resolve_fill(rounded, fill))

    def _solve(
        self, rounded: RoundedInstance, solver, fill: "FillSpec", **kwargs
    ) -> DPResult:
        """The one solver call: ``fill``'s classes, budget, and configurations.

        ``kwargs`` carries the warm-start seed on :class:`ProbeCache`
        misses; a fill's plan token rides along as ``model_token``.
        """
        if fill.token is not None:
            kwargs["model_token"] = fill.token
        return solver(
            fill.counts,
            fill.class_sizes,
            fill.budget,
            configs=self.configurations(rounded, fill=fill),
            **kwargs,
        )

    def _note(self, kind: str, hit: bool) -> None:
        """Nothing is tallied without a cache."""

    def begin_probe(self) -> None:
        """Reset the per-probe event snapshot (called by the probe)."""
        self.last_events = {}

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


def _resolve_fill(rounded: RoundedInstance, fill: Optional["FillSpec"]) -> "FillSpec":
    """``fill``, or the identical-machines fill of ``rounded`` when ``None``.

    Every machine model hands the probe explicit fills; ``None`` is the
    direct-call shorthand for the classic configuration DP at budget
    ``T`` over the rounded instance's own classes.
    """
    if fill is not None:
        return fill
    from repro.models.base import FillSpec

    return FillSpec(
        counts=rounded.counts,
        class_sizes=rounded.class_sizes,
        budget=rounded.target,
    )


def fill_key(rounded: RoundedInstance, fill: Optional["FillSpec"] = None) -> FillKey:
    """The scale-invariant identity of one fill's DP-table.

    ``class_sizes[i] == index_i * unit`` exactly (rounding is a floor
    to a multiple of ``unit``) and a configuration is feasible iff the
    *scaled* budget admits it, so ``budget // unit`` is lossless; see
    the module docstring.  The job cap joins the key because it
    filters the configuration set.  Fills from different models that
    coincide share one key — a 1-type unit-speed lift of an identical
    instance keys exactly like the identical fill.
    """
    fill = _resolve_fill(rounded, fill)
    unit = rounded.unit
    indices = tuple(s // unit for s in fill.class_sizes)
    return (indices, fill.counts, fill.budget // unit, fill.max_jobs)


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
    DP all see ``k``, never ``eps`` itself), so requests at different
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


class ProbeCache(NullProbeCache):
    """Memoizes DP-tables across probes, keyed on :func:`fill_key`.

    Share one instance across an entire search — and across searches
    and instances of a batch — to reuse every table reusable.  See the
    module docstring for the keying scheme and the opt-in rationale;
    ``docs/PERFORMANCE.md`` for tuning guidance.

    Parameters
    ----------
    capacity:
        Maximum number of cached DP results; least-recently-used
        entries are evicted past it (tallied in ``stats.evictions``
        and the ``cache.dp.evicted`` counter).  ``None`` keeps the
        historical unbounded behaviour.  The default bounds a
        long-lived batch service: entries hold full tables, so an
        unbounded cache fed adversarial probe mixes grows without
        limit.

    All *exact* solvers produce identical tables for identical inputs
    (tested), so their tables share one entry per key.  Solvers whose
    results are valid only under extra context — a budget-bound
    ``auto`` kernel, whose clamped tables depend on the machine budget
    — advertise a ``dp_cache_token`` that extends the key, so a
    clamped table is never served to a different budget (or to an
    exact solver).

    A DP miss whose solver advertises ``supports_warm_start`` is
    seeded from the cached table of the *nearest smaller scaled
    budget* in the same key family (same class indices, counts, job
    cap, and solver token): that table's values are pointwise upper
    bounds on the new fill's fixpoint, so relaxing from them converges
    to the exact same table as a cold fill while skipping the rounds
    that rebuilt the shared structure.  Warm results are stored under
    a ``("warm", token)`` key extension — a warm table is the full
    no-change fixpoint while a cold decision fill may have
    early-accepted with non-final interior cells, so the two must
    never alias.  Lookups consult the cold key first, then the warm
    key (a warm table answers strictly more).

    :meth:`rounding` and :meth:`configurations` are inherited: they
    derive fresh and tally one ``miss`` per call under the
    ``rounding`` / ``configs`` kinds, so ``stats.misses["configs"]``
    counts real enumerations.
    """

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("ProbeCache capacity must be >= 1 (or None)")
        super().__init__()
        self.capacity = capacity
        self._lock = threading.Lock()
        self._dp: "OrderedDict[tuple, DPResult]" = OrderedDict()
        #: warm-start index: (family, token) -> {scaled budget: dp key}.
        #: Entries are validated against ``_dp`` lazily (evictions there
        #: leave stale pointers here, pruned on the next lookup).
        self._warm_index: Dict[tuple, Dict[int, tuple]] = {}

    def dp(
        self, rounded: RoundedInstance, solver, fill: Optional["FillSpec"] = None
    ) -> DPResult:
        """DP-table for one fill of a rounded probe, via ``solver`` on a miss.

        ``solver`` follows the :class:`~repro.core.ptas.DPSolver`
        protocol; ``fill`` (a model's :class:`~repro.models.base.FillSpec`,
        default the identical fill) selects the budget, job cap, and
        plan token.
        """
        fill = _resolve_fill(rounded, fill)
        base_key = fill_key(rounded, fill)
        token = getattr(solver, "dp_cache_token", None)
        key = (base_key, token)
        warm_key = (base_key, ("warm", token))
        value = self._lookup(key)
        if value is _MISS:
            # A warm-started table is the full fixpoint — it answers
            # anything a cold table would, so serve it when present.
            value = self._lookup(warm_key)
        hit = value is not _MISS
        if not hit:
            warm_table = None
            if getattr(solver, "supports_warm_start", False):
                warm_table = self._warm_source(base_key, token)
                self._note("warmstart", warm_table is not None)
            if warm_table is None:
                store_key = key
                result = self._solve(rounded, solver, fill)
            else:
                store_key = warm_key
                result = self._solve(rounded, solver, fill, warm_table=warm_table)
            value = self._store(store_key, result)
            self._register_warm(base_key, token, store_key)
        self._note("dp", hit)
        return value

    def _warm_source(self, base_key: FillKey, token) -> Optional[np.ndarray]:
        """The cached table of the nearest smaller same-family budget.

        Returns the table array (or ``None``).  Stale index entries —
        pointers into evicted ``_dp`` slots — are pruned as they are
        encountered.
        """
        indices, counts, budget, max_jobs = base_key
        with self._lock:
            budgets = self._warm_index.get(((indices, counts, max_jobs), token))
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

    def _register_warm(self, base_key: FillKey, token, store_key) -> None:
        """Index one stored DP result as a future warm-start source.

        A key's family is everything but the scaled budget: two fills
        in one family differ only in the budget, so the smaller
        budget's configuration set is a subset of the larger's and its
        table values are pointwise upper bounds on the larger fill's
        fixpoint — exactly the seeding precondition of
        :func:`~repro.core.dp_vectorized.seed_warm_table`.
        """
        indices, counts, budget, max_jobs = base_key
        family = ((indices, counts, max_jobs), token)
        with self._lock:
            self._warm_index.setdefault(family, {})[budget] = store_key

    # -- bookkeeping --------------------------------------------------------

    def _lookup(self, key: tuple) -> object:
        """Locked LRU read: hit refreshes recency, miss returns ``_MISS``."""
        with self._lock:
            if key in self._dp:
                self._dp.move_to_end(key)
                return self._dp[key]
        return _MISS

    def _store(self, key: tuple, value: DPResult) -> DPResult:
        """Locked insert with LRU eviction past ``capacity``.

        Returns the entry actually cached — a concurrent double-miss
        keeps the first writer's table so every caller shares one
        object, matching the idempotent-insert contract.
        """
        evicted = 0
        with self._lock:
            if key in self._dp:
                self._dp.move_to_end(key)
                return self._dp[key]
            self._dp[key] = value
            if self.capacity is not None:
                while len(self._dp) > self.capacity:
                    self._dp.popitem(last=False)
                    self.stats.record_eviction("dp")
                    evicted += 1
        for _ in range(evicted):
            obs.count("cache.dp.evicted")
        return value

    def _note(self, kind: str, hit: bool) -> None:
        with self._lock:
            self.stats.record(kind, hit)
            self.last_events[kind] = "hit" if hit else "miss"
        obs.count(f"cache.{kind}.{'hit' if hit else 'miss'}")

    def clear(self) -> None:
        """Drop every cached table (stats are retained)."""
        with self._lock:
            self._dp.clear()
            self._warm_index.clear()

    def __len__(self) -> int:
        """Number of cached DP results."""
        return len(self._dp)


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
    ) -> ProbePlan:
        """Uncached :func:`~repro.dptable.plan.build_probe_plan`."""
        _require_configs_for_token(model_token, configs)
        return build_probe_plan(counts, class_sizes, target, configs, eager=eager)

    def clear(self) -> None:
        """Nothing cached, nothing to drop."""

    def __len__(self) -> int:
        return 0


class PlanCache:
    """LRU cache of :class:`~repro.dptable.plan.ProbePlan` objects.

    The plan layer is pure structure — functions of the table shape and
    configuration set only — so it is *always* safe to share, even for
    the simulated engines whose DP results must not be shared
    (they run with ``cache=None``): a plan hit skips re-deriving
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
        # under the GIL alone, and the daemon runs concurrent requests
        # on the event loop's thread pool against its pipeline's one
        # plan cache, so the bookkeeping takes a lock.  Plan
        # *construction* happens outside it (a concurrent double-miss
        # builds one redundant plan, never corrupts).
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

        A brand-new plan over an already-cached table *shape*
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
                plan.valid
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
