"""Tests for the fill fabric's self-healing: real worker-crash
recovery, table integrity, the orphan reaper, and the close-race
contract (repro.parallel.fabric)."""

import os
import subprocess
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from multiprocessing.shared_memory import SharedMemory

from repro.dptable.plan import build_probe_plan
from repro.engines.base import fill_by_groups
from repro.errors import TableIntegrityError, WorkerCrashError
from repro.observability import Tracer
from repro.parallel import fabric as fabric_mod
from repro.parallel.fabric import (
    BlockExecutor,
    SharedTableArena,
    fabric_start_method,
    reap_orphans,
)
from repro.resilience import FaultInjector

#: One small probe whose every wave dispatches at min_parallel_cells=1:
#: 5x4x3 = 60 cells over 10 anti-diagonal waves.
PLAN_ARGS = ((4, 3, 2), (4, 6, 9), 18)


def _segments() -> set:
    try:
        return {
            n for n in os.listdir("/dev/shm") if n.startswith("repro_fab_")
        }
    except FileNotFoundError:  # platform without /dev/shm
        return set()


def _serial_reference(plan) -> np.ndarray:
    """The single-process fill the fabric must be bit-identical to."""
    return fill_by_groups(plan.geometry, plan.configs, plan.level_groups())


def _killer(
    seed: int = 3, max_failures: int = 1, match=None
) -> FaultInjector:
    """A fabric.worker chaos injector that always fires (rate 1)."""
    return FaultInjector(
        seed=seed,
        rate=1.0,
        kinds=("crash",),
        sites=("fabric.worker",),
        max_failures=max_failures,
        match=match,
    )


class TestStartMethod:
    def test_pinned_method_is_never_fork(self):
        # Recovery cannot reason about a forked child's inherited locks
        # and thread state, so the fabric must pin forkserver or spawn.
        assert fabric_start_method() in ("forkserver", "spawn")

    def test_context_is_cached(self):
        assert fabric_mod._fabric_context() is fabric_mod._fabric_context()


class TestWorkerCrashRecovery:
    def test_single_kill_recovers_bit_identical(self):
        plan = build_probe_plan(*PLAN_ARGS)
        ref = _serial_reference(plan)
        # Pin the kill to one wave so recovery stays inside the restart
        # budget: one SIGKILL, one respawn, one re-executed wave.
        inj = _killer(match=lambda site, inst, target: target == 2)
        tracer = Tracer()
        with BlockExecutor(workers=2, faults=inj) as fab:
            with tracer.activate():
                got = fab.fill(plan, min_parallel_cells=1)
            health = fab.health()
        assert np.array_equal(ref, got)
        assert health.workers_killed == 1
        assert health.pool_restarts == 1
        assert health.waves_reexecuted == 1
        assert health.inline_fallbacks == 0
        assert tracer.counters.get("fabric.recovery.worker_kills") == 1
        assert tracer.counters.get("fabric.recovery.restarts") == 1
        assert tracer.counters.get("fabric.recovery.waves_reexecuted") == 1

    def test_exhausted_budget_degrades_to_inline_fill(self):
        plan = build_probe_plan(*PLAN_ARGS)
        ref = _serial_reference(plan)
        tracer = Tracer()
        # Every dispatched wave is killed and the budget is zero: the
        # first loss must pin the rest of the fill to the parent.
        with BlockExecutor(
            workers=2, faults=_killer(max_failures=5), max_pool_restarts=0
        ) as fab:
            with tracer.activate():
                got = fab.fill(plan, min_parallel_cells=1)
            health = fab.health()
        assert np.array_equal(ref, got)
        assert health.inline_fallbacks == 1
        assert health.pool_restarts == 1  # the post-budget teardown
        assert tracer.counters.get("fabric.recovery.inline_fills") == 1

    def test_no_inline_fallback_surfaces_worker_crash_error(self):
        plan = build_probe_plan(*PLAN_ARGS)
        before = _segments()
        fab = BlockExecutor(
            workers=2,
            faults=_killer(max_failures=5),
            max_pool_restarts=0,
            inline_fallback=False,
        )
        try:
            with pytest.raises(WorkerCrashError, match="recovery budget"):
                fab.fill(plan, min_parallel_cells=1)
        finally:
            fab.close()
        # The arena died with the fill, the shipment with close():
        # a failed recovery leaks nothing.
        assert _segments() == before

    def test_recovered_executor_stays_usable(self):
        plan = build_probe_plan(*PLAN_ARGS)
        ref = _serial_reference(plan)
        inj = _killer(match=lambda site, inst, target: target == 1)
        with BlockExecutor(workers=2, faults=inj) as fab:
            first = fab.fill(plan, min_parallel_cells=1)
            # The injector's per-wave cap is spent: this fill is clean.
            second = fab.fill(plan, min_parallel_cells=1)
        assert np.array_equal(ref, first)
        assert np.array_equal(ref, second)

    def test_kill_after_the_last_wave_never_hangs_close(self):
        # A kill that lands once the last wave's futures completed can
        # leave a survivor blocked on the call-queue lock the killed
        # worker held; a clean close() then waited on it forever.  The
        # delivered kill must retire the pool and re-run the wave.
        plan = build_probe_plan(*PLAN_ARGS)
        ref = _serial_reference(plan)
        last_wave = len(plan.level_schedule.boundaries) - 2
        before = _segments()
        hung = []
        for seed in range(12):
            inj = _killer(
                seed=seed, match=lambda site, inst, target: target == last_wave
            )
            fab = BlockExecutor(workers=2, faults=inj)
            got = fab.fill(plan, min_parallel_cells=1)
            health = fab.health()
            assert np.array_equal(ref, got)
            assert health.workers_killed == 1
            assert health.waves_reexecuted == 1
            pool = fab._pool
            closer = threading.Thread(target=fab.close, daemon=True)
            closer.start()
            closer.join(timeout=30)
            if closer.is_alive():
                # Unblock the stuck shutdown so the suite can go on.
                hung.append(seed)
                for proc in BlockExecutor._worker_processes(pool):
                    proc.kill()
                closer.join(timeout=30)
        assert hung == [], f"close() hung in {len(hung)} of 12 runs"
        assert _segments() == before

    def test_wave_deadline_is_treated_as_a_lost_wave(self):
        plan = build_probe_plan(*PLAN_ARGS)
        ref = _serial_reference(plan)
        # A deadline no wave can meet: the first dispatch expires while
        # the pool is still spawning its workers, which must look
        # exactly like a crash (respawn, then inline past the budget).
        with BlockExecutor(
            workers=2, wave_deadline_s=1e-6, max_pool_restarts=0
        ) as fab:
            got = fab.fill(plan, min_parallel_cells=1)
            health = fab.health()
        assert np.array_equal(ref, got)
        assert health.inline_fallbacks == 1
        assert health.pool_restarts == 1

    def test_close_mid_fill_raises_clean_retryable_error(self, monkeypatch):
        plan = build_probe_plan(*PLAN_ARGS)
        fab = BlockExecutor(workers=2)

        def closing_dispatch(self, pool, tasks, wave):
            # A concurrent owner calls close(force=True) while this
            # fill's wave is in flight; the dispatch then fails.
            fab.close(force=True)
            return None, "worker-death"

        monkeypatch.setattr(BlockExecutor, "_ensure_pool", lambda self: object())
        monkeypatch.setattr(BlockExecutor, "_dispatch_once", closing_dispatch)
        with pytest.raises(WorkerCrashError, match="closed during an in-flight"):
            fab.fill(plan, min_parallel_cells=1)
        # The error is retryable and the executor reusable: the next
        # fill (inline here) succeeds on a fresh generation.
        monkeypatch.undo()
        ref = _serial_reference(plan)
        try:
            assert np.array_equal(ref, fab.fill(plan, min_parallel_cells=10_000))
        finally:
            fab.close()

    def test_close_mid_fill_does_not_count_as_a_crash(self, monkeypatch):
        plan = build_probe_plan(*PLAN_ARGS)
        fab = BlockExecutor(workers=2)
        monkeypatch.setattr(BlockExecutor, "_ensure_pool", lambda self: object())
        monkeypatch.setattr(
            BlockExecutor,
            "_dispatch_once",
            lambda self, pool, tasks, wave: (
                fab.close(force=True),
                (None, "pool-closed"),
            )[1],
        )
        with pytest.raises(WorkerCrashError):
            fab.fill(plan, min_parallel_cells=1)
        health = fab.health()
        # No respawn, no re-execution: a deliberate close is not a
        # crash and must not pollute the recovery tallies.
        assert health.pool_restarts == 0
        assert health.waves_reexecuted == 0
        fab.close()


class TestTableIntegrity:
    def _filled_arena(self):
        # A hand-built "filled" 8-cell table: origin 0, levels, sentinel.
        arena = SharedTableArena(8, np.dtype(np.int16))
        arena.table[1:4] = [1, 2, 3]
        return arena

    def test_valid_table_passes_and_reports_cells(self):
        with self._filled_arena() as arena:
            assert arena.verify(max_level=3) == 8

    def test_clobbered_origin_raises(self):
        with self._filled_arena() as arena:
            arena.table[0] = 1
            with pytest.raises(TableIntegrityError, match="origin"):
                arena.verify(max_level=3)

    def test_spurious_zero_raises(self):
        with self._filled_arena() as arena:
            arena.table[5] = 0
            with pytest.raises(TableIntegrityError, match="zero cells"):
                arena.verify(max_level=3)

    def test_torn_value_raises(self):
        with self._filled_arena() as arena:
            arena.table[2] = 29  # > max_level, not the sentinel
            with pytest.raises(TableIntegrityError, match="not the"):
                arena.verify(max_level=3)

    def test_fill_detects_corrupted_table(self, monkeypatch):
        plan = build_probe_plan(*PLAN_ARGS)
        real_fill = fabric_mod._fill_range
        before = _segments()

        def corrupting_fill(table, cells, configs, shape, strides, unreach,
                            clipped=False):
            n = real_fill(table, cells, configs, shape, strides, unreach,
                          clipped=clipped)
            table[-1] = unreach - 1  # a torn, impossible value
            return n

        monkeypatch.setattr(fabric_mod, "_fill_range", corrupting_fill)
        tracer = Tracer()
        fab = BlockExecutor(workers=1)
        try:
            with tracer.activate():
                with pytest.raises(TableIntegrityError):
                    fab.fill(plan)
            assert fab.health().integrity_failures == 1
            assert tracer.counters.get("integrity.failures") == 1
        finally:
            fab.close()
        assert _segments() == before  # the bad arena did not leak

    def test_integrity_counters_on_clean_fill(self):
        plan = build_probe_plan(*PLAN_ARGS)
        tracer = Tracer()
        with BlockExecutor(workers=1) as fab:
            with tracer.activate():
                fab.fill(plan)
            health = fab.health()
        assert health.integrity_cells_checked == plan.geometry.size
        assert health.integrity_failures == 0
        assert tracer.counters.get("integrity.checked") == plan.geometry.size

    def test_verification_can_be_disabled(self, monkeypatch):
        plan = build_probe_plan(*PLAN_ARGS)
        real_fill = fabric_mod._fill_range

        def corrupting_fill(table, cells, configs, shape, strides, unreach,
                            clipped=False):
            n = real_fill(table, cells, configs, shape, strides, unreach,
                          clipped=clipped)
            table[-1] = unreach - 1
            return n

        monkeypatch.setattr(fabric_mod, "_fill_range", corrupting_fill)
        with BlockExecutor(workers=1, verify_integrity=False) as fab:
            fab.fill(plan)  # does not raise
            assert fab.health().integrity_cells_checked == 0


class TestOrphanReaper:
    def _dead_pid(self) -> int:
        proc = subprocess.Popen(["true"])
        proc.wait()
        return proc.pid

    def _make_segment(self, name: str) -> str:
        shm = SharedMemory(create=True, size=8, name=name)
        shm.close()
        return name

    def _forget(self, name: str) -> None:
        # The segment was (or will be) unlinked behind the tracker's
        # back; unregister so interpreter exit stays silent.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(f"/{name}", "shared_memory")
        except Exception:
            pass

    def test_reaps_segments_of_dead_processes(self):
        name = self._make_segment(f"repro_fab_{self._dead_pid()}_{'ab' * 8}")
        try:
            assert name in reap_orphans()
            assert name not in _segments()
        finally:
            self._forget(name)

    def test_skips_live_pids_and_own_segments(self):
        own = self._make_segment(f"repro_fab_{os.getpid()}_{'cd' * 8}")
        live = self._make_segment(f"repro_fab_1_{'ef' * 8}")  # pid 1 lives
        try:
            reaped = reap_orphans()
            assert own not in reaped and live not in reaped
            assert own in _segments() and live in _segments()
        finally:
            for name in (own, live):
                try:
                    shm = SharedMemory(name=name)
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:
                    pass
                self._forget(name)

    def test_ignores_foreign_segment_names(self):
        # No pid component: the fabric pattern must not match, however
        # tempting the prefix looks.
        name = self._make_segment("repro_fab_orphanless")
        try:
            assert name not in reap_orphans()
            assert name in _segments()
        finally:
            shm = SharedMemory(name=name)
            shm.close()
            shm.unlink()
            self._forget(name)

    def test_missing_shm_dir_is_a_no_op(self):
        assert reap_orphans("/nonexistent/shm/dir") == []

    def test_pool_start_sweeps_and_tallies(self):
        name = self._make_segment(f"repro_fab_{self._dead_pid()}_{'0f' * 8}")
        fab = BlockExecutor(workers=2)
        try:
            fab._ensure_pool()  # cheap: workers spawn lazily on submit
            assert fab.health().segments_reaped >= 1
            assert name not in _segments()
        finally:
            fab.close()
            self._forget(name)


class TestRecoveryProperties:
    @settings(max_examples=4, deadline=None)
    @given(
        spec=st.sampled_from(
            [((3, 2, 2), (3, 5, 7), 14), ((4, 3, 2), (4, 6, 9), 18),
             ((3, 3), (4, 5), 12)]
        ),
        kill_wave=st.integers(0, 6),
        seed=st.integers(0, 10_000),
    )
    def test_kills_and_respawns_never_change_the_table(
        self, spec, kill_wave, seed
    ):
        counts, sizes, target = spec
        plan = build_probe_plan(counts, sizes, target)
        ref = _serial_reference(plan)
        before = _segments()
        inj = _killer(
            seed=seed, match=lambda site, inst, target: target == kill_wave
        )
        with BlockExecutor(workers=2, faults=inj) as fab:
            got = fab.fill(plan, min_parallel_cells=1)
        # Bit-identity: re-executed waves overwrite any partial writes
        # with identical values (the wavefront idempotency argument).
        assert np.array_equal(ref, got)
        # Hygiene: every segment the fill created is gone again.
        assert _segments() == before
