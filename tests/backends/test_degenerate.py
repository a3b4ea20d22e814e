"""Degenerate DP probes across *every* registered backend.

The probe-plan refactor routes all engines through one IR, so the edge
cases — a 0-d table (no long jobs), an empty configuration set (no
single machine can hold even one job), a single job class — must
behave identically on every backend the registry knows about, pure
solvers and simulated engines alike.
"""

import numpy as np
import pytest

from repro.backends import backend_names, resolve
from repro.core.dp_common import UNREACHABLE
from repro.core.dp_reference import dp_reference

ALL_BACKENDS = backend_names()


def _resolve(name):
    if name.startswith("gpu"):
        return resolve(name, check_memory=False)
    return resolve(name)


def _assert_bit_identical(result, reference, name):
    assert result.table.dtype == np.int64, name
    assert result.table.shape == reference.table.shape, name
    assert np.array_equal(result.table, reference.table), name


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestDegenerateProbes:
    def test_zero_dim_table(self, name):
        # All jobs short: the rounded instance has no classes at all.
        result = _resolve(name)((), (), 9)
        assert result.table.shape == ()
        assert result.opt == 0
        assert result.feasible
        _assert_bit_identical(result, dp_reference((), (), 9), name)

    def test_empty_configuration_set(self, name):
        # Every class size exceeds the target, so no non-empty machine
        # configuration exists: only the origin is reachable.
        counts, sizes, target = (2, 2), (5, 7), 4
        result = _resolve(name)(counts, sizes, target)
        reference = dp_reference(counts, sizes, target)
        assert result.configs.shape[0] == 0
        assert result.opt == UNREACHABLE
        assert not result.feasible
        _assert_bit_identical(result, reference, name)

    def test_explicit_empty_configs(self, name):
        counts, sizes, target = (2, 2), (3, 5), 11
        empty = np.zeros((0, 2), dtype=np.int64)
        result = _resolve(name)(counts, sizes, target, configs=empty)
        reference = dp_reference(counts, sizes, target, configs=empty)
        _assert_bit_identical(result, reference, name)
        assert not result.feasible

    def test_single_class(self, name):
        counts, sizes, target = (6,), (4,), 9
        result = _resolve(name)(counts, sizes, target)
        reference = dp_reference(counts, sizes, target)
        _assert_bit_identical(result, reference, name)
        # 2 jobs of size 4 fit a machine of budget 9: OPT = ceil(6/2).
        assert result.opt == 3

    def test_single_job(self, name):
        counts, sizes, target = (1,), (5,), 5
        result = _resolve(name)(counts, sizes, target)
        _assert_bit_identical(result, dp_reference(counts, sizes, target), name)
        assert result.opt == 1
