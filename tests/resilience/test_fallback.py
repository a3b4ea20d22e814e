"""Unit tests for fallback chains (registry name family + step-down)."""

import pytest

from repro.backends import get_spec, is_registered, resolve
from repro.core.instance import Instance
from repro.core.ptas import ptas_schedule
from repro.errors import BackendError, TransientDPError
from repro.resilience import FallbackChain, FaultInjector

INST = Instance(machines=3, times=(5, 7, 3, 9, 4, 6, 2))


class TestRegistryFamily:
    def test_canonical_fallback_resolves(self):
        chain = resolve("fallback")
        assert isinstance(chain, FallbackChain)
        assert chain.members == ("auto", "sweep", "vectorized")

    def test_family_resolves_custom_chains(self):
        chain = resolve("fallback:sweep,vectorized")
        assert chain.members == ("sweep", "vectorized")
        assert is_registered("fallback:auto,reference")

    def test_spec_is_plan_aware_and_pure(self):
        spec = get_spec("fallback")
        assert spec.plan_aware
        assert not spec.simulated

    def test_unknown_member_rejected(self):
        # Rejected when the spec is built, before any solver exists.
        with pytest.raises(BackendError, match="unknown backend"):
            get_spec("fallback:auto,not-a-backend")
        assert not is_registered("fallback:auto,not-a-backend")
        with pytest.raises(BackendError, match="unknown backend"):
            resolve("fallback:auto,not-a-backend")

    def test_empty_chain_rejected(self):
        with pytest.raises(BackendError, match="at least one member"):
            FallbackChain([])


class TestStepDown:
    def test_bit_identical_to_direct_backend(self):
        direct = ptas_schedule(INST, eps=0.3, dp_solver=resolve("vectorized"))
        chained = ptas_schedule(INST, eps=0.3, dp_solver=resolve("fallback"))
        assert chained.makespan == direct.makespan
        assert chained.final_target == direct.final_target

    def test_steps_down_on_hard_failure(self):
        poison = FaultInjector(
            seed=0, rate=1.0, kinds=("oom",), sites=("dp.auto",),
            max_failures=10**9,
        )
        chain = FallbackChain(("auto", "vectorized"), faults=poison)
        result = ptas_schedule(INST, eps=0.3, dp_solver=chain)
        baseline = ptas_schedule(INST, eps=0.3)
        assert result.makespan == baseline.makespan
        assert chain.last_served_by == "vectorized"
        assert any("auto: MemoryError" in entry for entry in chain.fault_chain)

    def test_all_members_failing_raises_with_chain(self):
        poison = FaultInjector(
            seed=0, rate=1.0, kinds=("oom",),
            sites=("dp.auto", "dp.vectorized"), max_failures=10**9,
        )
        chain = FallbackChain(("auto", "vectorized"), faults=poison)
        with pytest.raises(MemoryError) as err:
            ptas_schedule(INST, eps=0.3, dp_solver=chain)
        log = err.value.fault_chain
        assert len(log) == 2
        assert log[0].startswith("auto:") and log[1].startswith("vectorized:")

    def test_transient_failure_propagates_not_steps_down(self):
        # One transient fault on the preferred member: the chain must
        # NOT abandon it — the retry layer re-enters at the head.
        poison = FaultInjector(
            seed=0, rate=1.0, kinds=("dperror",), sites=("dp.auto",),
            max_failures=1,
        )
        chain = FallbackChain(("auto", "vectorized"), faults=poison)
        with pytest.raises(TransientDPError):
            chain((2, 1), (5, 10), 15)

    def test_counters_emitted(self):
        from repro.observability import Tracer

        poison = FaultInjector(
            seed=0, rate=1.0, kinds=("oom",), sites=("dp.auto",),
            max_failures=10**9,
        )
        chain = FallbackChain(("auto", "vectorized"), faults=poison)
        tracer = Tracer()
        ptas_schedule(INST, eps=0.3, dp_solver=chain, trace=tracer)
        assert tracer.counters.get("resilience.fallback", 0) >= 1
        assert tracer.counters.get("resilience.fallback.recovered", 0) >= 1


class TestBinding:
    def test_bound_view_reports_to_root(self):
        poison = FaultInjector(
            seed=0, rate=1.0, kinds=("oom",), sites=("dp.auto",),
            max_failures=10**9,
        )
        chain = resolve("fallback:auto,vectorized", faults=poison)
        ptas_schedule(INST, eps=0.3, dp_solver=chain)
        # The probe driver binds per probe; outcomes must still be
        # visible on the chain object the caller holds.
        assert chain.last_served_by == "vectorized"

    def test_bound_chain_has_decision_token(self):
        chain = resolve("fallback")
        assert chain.dp_cache_token is None
        assert chain.bind_machines(4).dp_cache_token == ("decision", 4)
