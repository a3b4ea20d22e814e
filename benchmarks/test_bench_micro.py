"""Microbenchmarks of the library's real (wall-clock) hot paths.

Unlike the exhibit benches (which report *simulated* hardware time),
these measure the reproduction's own throughput with pytest-benchmark:
the vectorized DP fill, configuration enumeration, the blocked-layout
permutation, the group-fill kernel, and a full PTAS run.
They guard against performance regressions in the library itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.synthetic import synthetic_probe
from repro.core.configs import enumerate_configurations
from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import uniform_instance
from repro.core.ptas import ptas_schedule
from repro.dptable.antidiagonal import wavefront
from repro.dptable.layout import BlockedLayout
from repro.dptable.partition import BlockPartition, compute_divisor
from repro.dptable.table import TableGeometry
from repro.engines.base import fill_by_groups

PROBE = synthetic_probe((4, 4, 6, 6, 2, 3, 3, 2))  # 20736 cells


@pytest.fixture(scope="module")
def configs():
    return PROBE.configs()


@pytest.mark.benchmark(group="micro")
def test_micro_config_enumeration(benchmark):
    result = benchmark(
        enumerate_configurations, PROBE.class_sizes, PROBE.counts, PROBE.target
    )
    assert result.shape[0] > 0


@pytest.mark.benchmark(group="micro")
def test_micro_dp_vectorized(benchmark, configs):
    result = benchmark(
        dp_vectorized, PROBE.counts, PROBE.class_sizes, PROBE.target, configs
    )
    assert result.feasible


@pytest.mark.benchmark(group="micro")
def test_micro_fill_by_groups(benchmark, configs):
    geometry = TableGeometry.from_counts(PROBE.counts)
    groups = list(wavefront(geometry))
    table = benchmark(fill_by_groups, geometry, configs, groups)
    assert table[0] == 0


@pytest.mark.benchmark(group="micro")
def test_micro_blocked_layout_permutation(benchmark):
    geometry = TableGeometry.from_counts(PROBE.counts)
    partition = BlockPartition(geometry, compute_divisor(geometry.shape, 6))
    table = np.arange(geometry.size).reshape(geometry.shape)

    def reorganize_and_restore():
        layout = BlockedLayout(partition)
        return layout.restore(layout.reorganize(table))

    result = benchmark(reorganize_and_restore)
    assert np.array_equal(result, table)


@pytest.mark.benchmark(group="micro")
def test_micro_full_ptas(benchmark):
    inst = uniform_instance(60, 8, low=10, high=100, seed=21)
    result = benchmark(ptas_schedule, inst, 0.3)
    assert result.makespan > 0
