"""End-to-end integration scenarios across the whole library.

Each test is a realistic user journey touching several packages at
once, complementing the per-module suites.
"""

import numpy as np
import pytest

from repro import ptas_schedule, uniform_instance
from repro.core.baselines import branch_and_bound_optimal, lpt_schedule
from repro.core.dp_frontier import dp_frontier
from repro.core.improve import improve_schedule
from repro.core.io import dumps_schedule, loads_schedule
from repro.core.rounding import round_instance
from repro.engines import (
    GpuPartitionedEngine,
    HybridEngine,
    OpenMPEngine,
)
from repro.dptable.plan import build_probe_plan
from repro.engines.runner import run_ptas_gpu, run_ptas_openmp
from repro.parallel import BlockExecutor


class TestScheduleAndPolishAndPersist:
    def test_full_pipeline(self, tmp_path):
        inst = uniform_instance(24, 5, low=5, high=60, seed=13)

        # 1. PTAS with the quarter split.
        result = ptas_schedule(inst, eps=0.3, search="quarter")
        # 2. Local-search polish.
        polished = improve_schedule(result.schedule)
        assert polished.schedule.makespan <= result.makespan
        # 3. Serialise, reload, verify.
        text = dumps_schedule(polished.schedule)
        back = loads_schedule(text)
        assert back.makespan == polished.schedule.makespan
        # 4. Optimality sanity: still within the guarantee.
        optimum = branch_and_bound_optimal(inst).makespan
        assert back.makespan <= 1.3 * optimum + 1e-9


class TestEngineConsistencyAcrossThePtas:
    def test_every_engine_drives_the_same_search(self):
        inst = uniform_instance(22, 4, low=10, high=80, seed=17)
        from repro.core.dp_vectorized import dp_vectorized

        targets = []
        for solver in (
            dp_vectorized,
            OpenMPEngine(threads=16),
            GpuPartitionedEngine(dim=5),
            HybridEngine(dim=5),
        ):
            result = ptas_schedule(inst, eps=0.3, dp_solver=solver)
            targets.append(result.final_target)
        assert len(set(targets)) == 1, targets

    def test_runners_agree_with_core_search(self):
        inst = uniform_instance(26, 5, low=10, high=90, seed=19)
        core = ptas_schedule(inst, eps=0.3, search="quarter")
        gpu = run_ptas_gpu(inst, eps=0.3, dim=5)
        omp = run_ptas_openmp(inst, eps=0.3)
        assert gpu.result.final_target == core.final_target
        assert omp.result.final_target == core.final_target


class TestAlternativeSolversAgree:
    def test_frontier_matches_engines_on_real_probe(self):
        inst = uniform_instance(28, 5, low=5, high=70, seed=23)
        rounded = round_instance(inst, 200, 0.3)
        if rounded.dims == 0:
            pytest.skip("probe degenerate for this seed/target")
        engine = GpuPartitionedEngine(dim=4)
        run = engine.run(rounded.counts, rounded.class_sizes, rounded.target)
        assert dp_frontier(
            rounded.counts, rounded.class_sizes, rounded.target
        ) == run.dp_result.opt

    def test_host_parallel_matches_simulated_engines(self):
        inst = uniform_instance(25, 4, low=5, high=60, seed=3)
        rounded = round_instance(inst, 80, 0.3)
        plan = build_probe_plan(
            rounded.counts, rounded.class_sizes, rounded.target
        )
        with BlockExecutor(workers=2, min_parallel_cells=64) as fabric:
            par = fabric.fill(plan).reshape(plan.geometry.shape)
        eng = OpenMPEngine(threads=16).run(
            rounded.counts, rounded.class_sizes, rounded.target
        )
        assert np.array_equal(par, eng.dp_result.table)


class TestGuaranteeUnderPolishAndBaselines:
    def test_polish_narrows_the_gap_to_lpt(self):
        # LPT is a strong heuristic on uniform instances; the polished
        # PTAS will not usually beat it (that is honest — the PTAS's
        # value is the *guarantee*).  But the polish must help the raw
        # PTAS schedule, and the polished result must stay close to LPT.
        improved = 0
        for seed in range(6):
            inst = uniform_instance(18, 4, low=1, high=50, seed=40 + seed)
            raw = ptas_schedule(inst, eps=0.3).schedule
            polished = improve_schedule(raw).schedule.makespan
            lpt = lpt_schedule(inst).makespan
            assert polished <= raw.makespan
            assert polished <= 1.15 * lpt, (seed, polished, lpt)
            if polished < raw.makespan:
                improved += 1
        assert improved >= 3  # the polish routinely finds gains
