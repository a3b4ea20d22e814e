"""Model-aware admission accounting.

The admission controller must charge a probe for *all* the fills its
model runs — one table for identical and time-restricted, one per type
plus the composition lattices for few-types.
"""

import pytest

from repro.core.instance import Instance, uniform_instance
from repro.core.rounding import round_instance
from repro.errors import MemoryBudgetExceeded
from repro.models import lift_to_few_types, model_for
from repro.resilience import AdmissionController


class TestModelAwareAdmission:
    def rounded(self, inst, eps=0.3):
        target = inst.area_bound + inst.max_time
        return round_instance(inst, target, eps)

    def test_identical_probe_admits_through_the_historical_gate(self):
        inst = uniform_instance(14, 3, low=5, high=60, seed=21)
        rounded = self.rounded(inst)
        admission = AdmissionController(memory_budget_bytes=1 << 30)
        probe_bytes = admission.admit_probe(rounded, target=rounded.target)
        legacy = admission.admit(
            rounded.counts, value_bound=inst.machines + 1, target=rounded.target
        )
        assert probe_bytes == legacy

    def test_few_types_probe_is_charged_per_type_plus_composition(self):
        inst = Instance(
            times=uniform_instance(14, 4, low=5, high=60, seed=22).times,
            machines=4,
            model="unrelated-few-types",
            type_speeds=(1, 2, 3),
            machines_per_type=(2, 1, 1),
        )
        rounded = self.rounded(inst)
        model = model_for(inst)
        assert len(model.fills(rounded)) == 3
        admission = AdmissionController(memory_budget_bytes=1 << 30)
        total = admission.admit_probe(rounded, target=rounded.target)
        one_fill = admission.estimate(
            rounded.counts, value_bound=int(sum(rounded.counts))
        )
        assert total >= 3 * one_fill
        assert total >= 3 * one_fill + model.admission_extra_bytes(rounded)

    def test_multi_fill_refusal_names_the_fills(self):
        inst = lift_to_few_types(uniform_instance(14, 3, low=5, high=60, seed=23))
        inst = Instance(
            times=inst.times,
            machines=inst.machines,
            model=inst.model,
            type_speeds=(1, 2),
            machines_per_type=(2, 1),
        )
        rounded = self.rounded(inst)
        admission = AdmissionController(memory_budget_bytes=16)
        with pytest.raises(MemoryBudgetExceeded, match="fills"):
            admission.admit_probe(rounded, target=rounded.target)
