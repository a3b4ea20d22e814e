"""Unit tests for repro.engines.costmodel and the plan's work profile."""

import numpy as np
import pytest

from repro.core.configs import enumerate_configurations
from repro.dptable.plan import build_probe_plan
from repro.engines.costmodel import CostConstants, DEFAULT_COSTS
from repro.errors import CalibrationError, DPError


class TestCostConstants:
    def test_defaults_positive(self):
        c = DEFAULT_COSTS
        assert c.candidate_ops > 0 and c.scan_ops_per_element > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(CalibrationError):
            CostConstants(candidate_ops=0)

    def test_with_overrides(self):
        c = DEFAULT_COSTS.with_overrides(candidate_ops=2.5)
        assert c.candidate_ops == 2.5
        assert c.setopt_ops == DEFAULT_COSTS.setopt_ops
        assert DEFAULT_COSTS.candidate_ops != 2.5  # original untouched


class TestWorkProfile:
    """The per-cell work quantities a probe plan carries (Algorithm 5)."""

    @pytest.fixture
    def profile(self):
        return build_probe_plan([3, 2], [3, 7], 12)

    def test_candidates_formula(self, profile):
        # candidates(v) = prod(v_i + 1) for every cell.
        cells = profile.geometry.all_cells()
        expected = [(a + 1) * (b + 1) for a, b in cells.tolist()]
        assert profile.candidates.tolist() == expected

    def test_candidates_at_origin_is_one(self, profile):
        assert profile.candidates[0] == 1

    def test_total_candidates_closed_form(self, profile):
        # sum over the lattice = prod_i (e_i (e_i + 1) / 2).
        assert profile.total_candidates == (4 * 5 // 2) * (3 * 4 // 2)

    def test_valid_counts_match_bruteforce(self, profile):
        cells = profile.geometry.all_cells()
        for flat, cell in enumerate(cells):
            expected = int(
                np.count_nonzero((profile.configs <= cell).all(axis=1))
            )
            assert profile.valid[flat] == expected

    def test_valid_zero_at_origin(self, profile):
        assert profile.valid[0] == 0  # configs are non-zero

    def test_levels(self, profile):
        levels = profile.level_schedule.levels
        assert levels.tolist() == profile.geometry.all_cells().sum(axis=1).tolist()

    def test_thread_ops_positive_off_origin(self, profile):
        ops = profile.thread_ops(DEFAULT_COSTS)
        assert (ops[1:] > 0).all()

    def test_scan_elements_scalar_scope(self, profile):
        scan = profile.scan_elements(100)
        assert scan.tolist() == (profile.valid * 50.0).tolist()

    def test_scan_elements_vector_scope(self, profile):
        scope = np.full(profile.geometry.size, 10.0)
        scan = profile.scan_elements(scope)
        assert scan.tolist() == (profile.valid * 5.0).tolist()

    def test_shared_configs(self):
        configs = enumerate_configurations([3, 7], [3, 2], 12)
        configs.setflags(write=False)
        p = build_probe_plan([3, 2], [3, 7], 12, configs)
        assert p.configs is configs

    def test_rejects_arity_mismatch(self):
        with pytest.raises(DPError):
            build_probe_plan([1, 2], [3], 10)
