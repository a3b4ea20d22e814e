"""Tests for the shared-memory fill fabric (repro.parallel.fabric)."""

from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.core.dp_common import pick_table_dtype, unreachable_for
from repro.core.dp_reference import dp_reference
from repro.dptable.plan import build_probe_plan
from repro.errors import DPError
from repro.observability import Tracer
from repro.parallel import fabric as fabric_mod
from repro.parallel.fabric import BlockExecutor, SharedTableArena


def _assert_unlinked(name: str) -> None:
    with pytest.raises(FileNotFoundError):
        SharedMemory(name=name)


class TestSharedTableArena:
    def test_initialised_to_sentinel_with_origin_zero(self):
        dtype = pick_table_dtype(9)
        with SharedTableArena(12, dtype) as arena:
            assert arena.table.dtype == dtype
            assert arena.table[0] == 0
            assert (arena.table[1:] == unreachable_for(dtype)).all()

    def test_widened_is_owned_int64(self):
        with SharedTableArena(4, pick_table_dtype(3)) as arena:
            wide = arena.widened()
        # Usable after close: the copy does not alias the segment.
        assert wide.dtype == np.int64
        assert wide[0] == 0

    def test_widened_copies_even_when_already_int64(self):
        with SharedTableArena(4, np.dtype(np.int64)) as arena:
            wide = arena.widened()
            assert wide is not arena.table
        assert wide[0] == 0

    def test_close_unlinks_and_is_idempotent(self):
        arena = SharedTableArena(8, np.dtype(np.int16))
        name = arena.name
        arena.close()
        arena.close()
        _assert_unlinked(name)

    def test_error_inside_block_still_unlinks(self):
        with pytest.raises(DPError, match="boom"):
            with SharedTableArena(8, np.dtype(np.int16)) as arena:
                name = arena.name
                raise DPError("boom")
        _assert_unlinked(name)

    def test_rejects_empty_size(self):
        with pytest.raises(DPError):
            SharedTableArena(0, np.dtype(np.int16))


class TestBlockExecutorFill:
    def test_levels_fill_matches_reference_inline(self):
        counts, sizes, target = (3, 2, 2), (3, 5, 7), 14
        plan = build_probe_plan(counts, sizes, target)
        with BlockExecutor(workers=1) as fab:
            flat = fab.fill(plan)
        ref = dp_reference(counts, sizes, target)
        assert np.array_equal(flat.reshape(plan.geometry.shape), ref.table)

    def test_levels_fill_matches_reference_parallel(self):
        counts, sizes, target = (4, 3, 2), (4, 6, 9), 18
        plan = build_probe_plan(counts, sizes, target)
        with BlockExecutor(workers=2) as fab:
            flat = fab.fill(plan, min_parallel_cells=1)
        ref = dp_reference(counts, sizes, target)
        assert np.array_equal(flat.reshape(plan.geometry.shape), ref.table)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_blocked_fill_matches_reference(self, blocks):
        # Including blocks=1: the degenerate single-block schedule must
        # tile the table exactly like the plain level schedule.
        counts, sizes, target = (3, 3), (4, 5), 12
        plan = build_probe_plan(counts, sizes, target)
        with BlockExecutor(workers=2) as fab:
            flat = fab.fill(plan, blocked_dim=blocks, min_parallel_cells=1)
        ref = dp_reference(counts, sizes, target)
        assert np.array_equal(flat.reshape(plan.geometry.shape), ref.table)

    def test_zero_dim_plan_is_single_final_cell(self):
        plan = build_probe_plan((), (), 5)
        with BlockExecutor(workers=2) as fab:
            flat = fab.fill(plan)
        assert flat.shape == (1,)
        assert flat[0] == 0

    def test_table_is_widened_to_int64(self):
        plan = build_probe_plan((3, 2), (3, 5), 11)
        assert pick_table_dtype(plan.geometry.max_level).itemsize < 8
        with BlockExecutor(workers=1) as fab:
            assert fab.fill(plan).dtype == np.int64

    def test_rejects_zero_workers(self):
        with pytest.raises(DPError):
            BlockExecutor(workers=0)


class TestPlanShipments:
    def test_plan_shipped_once_then_reused(self):
        plan = build_probe_plan((3, 2), (3, 5), 11)
        tracer = Tracer()
        with BlockExecutor(workers=1) as fab:
            with tracer.activate():
                fab.fill(plan)
                fab.fill(plan)
        assert tracer.counters.get("fabric.plan.shipped") == 1
        assert tracer.counters.get("fabric.plan.reused") == 1

    def test_levels_and_blocked_are_distinct_shipments(self):
        plan = build_probe_plan((3, 3), (4, 5), 12)
        tracer = Tracer()
        with BlockExecutor(workers=1) as fab:
            with tracer.activate():
                fab.fill(plan)
                fab.fill(plan, blocked_dim=2)
        assert tracer.counters.get("fabric.plan.shipped") == 2
        assert "fabric.plan.reused" not in tracer.counters

    def test_lru_evicts_and_unlinks_oldest_shipment(self):
        plan_a = build_probe_plan((3, 2), (3, 5), 11)
        plan_b = build_probe_plan((2, 2), (4, 7), 13)
        with BlockExecutor(workers=1, max_plans=1) as fab:
            fab.fill(plan_a)
            name_a = next(iter(fab._shipments.values())).name
            fab.fill(plan_b)
            assert len(fab._shipments) == 1
            _assert_unlinked(name_a)

    def test_close_unlinks_every_shipment(self):
        plan = build_probe_plan((3, 2), (3, 5), 11)
        fab = BlockExecutor(workers=1)
        fab.fill(plan)
        name = next(iter(fab._shipments.values())).name
        fab.close()
        _assert_unlinked(name)
        assert fab._shipments == {}


class TestExecutorLifecycle:
    def test_pool_starts_lazily_and_only_when_needed(self):
        plan = build_probe_plan((3, 2), (3, 5), 11)
        with BlockExecutor(workers=2) as fab:
            assert not fab.alive
            fab.fill(plan, min_parallel_cells=10_000)  # all waves inline
            assert not fab.alive
            fab.fill(plan, min_parallel_cells=1)
            assert fab.alive

    def test_close_is_idempotent_and_executor_stays_reusable(self):
        counts, sizes, target = (3, 3), (4, 5), 12
        plan = build_probe_plan(counts, sizes, target)
        ref = dp_reference(counts, sizes, target)
        fab = BlockExecutor(workers=2)
        try:
            fab.fill(plan, min_parallel_cells=1)
            fab.close()
            fab.close()
            assert not fab.alive
            flat = fab.fill(plan, min_parallel_cells=1)  # pool restarts
            assert fab.alive
            assert np.array_equal(flat.reshape(plan.geometry.shape), ref.table)
        finally:
            fab.close()

    def test_force_close_terminates_pool(self):
        plan = build_probe_plan((3, 3), (4, 5), 12)
        fab = BlockExecutor(workers=2)
        fab.fill(plan, min_parallel_cells=1)
        fab.close(force=True)
        assert not fab.alive

    def test_fill_error_does_not_leak_table_segment(self, monkeypatch):
        plan = build_probe_plan((3, 3), (4, 5), 12)
        created = []
        real_shm = fabric_mod.SharedMemory

        def tracking_shm(*args, **kwargs):
            segment = real_shm(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        def exploding_fill(*args, **kwargs):
            raise DPError("injected mid-fill failure")

        monkeypatch.setattr(fabric_mod, "SharedMemory", tracking_shm)
        monkeypatch.setattr(fabric_mod, "_fill_range", exploding_fill)
        fab = BlockExecutor(workers=1)
        with pytest.raises(DPError, match="injected"):
            fab.fill(plan)
        assert len(created) == 2  # shipment, then table arena
        _assert_unlinked(created[1])  # arena gone the moment fill unwinds
        fab.close()
        _assert_unlinked(created[0])  # shipment gone at the latest on close
