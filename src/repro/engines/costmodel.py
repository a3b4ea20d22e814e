"""Per-cell work characterization and the calibrated cost constants.

Algorithm 5 fixes what one DP cell ("configuration") costs:

* **FindValidSub** enumerates every vector below the cell —
  ``candidates(v) = prod(v_i + 1)`` trial vectors, each tested against
  the budget (the paper notes this enumeration is why "even the
  execution of a relatively small size DP problem can run out of
  memory", §III-C);
* **SetOPT** takes each *valid* sub-configuration —
  ``valid(v) = #{c in C : c <= v}`` of them — and locates its OPT value
  by scanning storage (Alg. 5 lines 26–28).  The scan scope is the
  engine's key difference: the whole table for the OpenMP baseline and
  the naive port (Alg. 2 lines 18–19), one *block* after
  data-partitioning (§III-E).

:class:`~repro.dptable.plan.ProbePlan` computes ``candidates`` and
``valid`` for every cell in vectorized passes.  :class:`CostConstants`
holds every per-op constant in one frozen, documented place; they were
calibrated once so the reproduced Table VII lands in the paper's bands
(see EXPERIMENTS.md) and are frozen for all experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CalibrationError


@dataclass(frozen=True)
class CostConstants:
    """Calibrated per-operation costs (abstract ops; device specs turn
    them into seconds via their clock and ``cycles_per_op``).

    Attributes
    ----------
    candidate_ops:
        Abstract ops to generate and budget-test one candidate
        sub-configuration inside FindValidSub (vector subtract + dot
        against sizes, ~2 ops per dimension folded into one constant).
    scan_ops_per_element:
        Ops per storage element touched by the SetOPT locate scan
        (load + compare) on the CPU, whose scans vectorize and run from
        cache.
    gpu_scan_ops_per_element:
        Ops per scanned element on the GPU.  The in-block locate loop
        (Alg. 5 lines 26-28) is a serial per-thread loop of dependent
        loads and compares — several times the CPU's per-element cost;
        this asymmetry is what makes over-large blocks (GPU-DIM3's)
        expensive and drives the paper's block-size tradeoff.
    setopt_ops:
        Ops per *valid* sub-configuration outside the scan (min-reduce
        bookkeeping, Alg. 5 lines 29–32).
    cpu_scan_elements_cached:
        On the CPU the repeated table scans run from the last-level
        cache; this multiplier (<= 1) discounts the scan ops
        accordingly.  The GPU engines charge scans through the memory
        model instead (coalescing-aware), not through this constant.
    """

    candidate_ops: float = 6.0
    scan_ops_per_element: float = 3.0
    setopt_ops: float = 8.0
    gpu_scan_ops_per_element: float = 60.0
    cpu_scan_elements_cached: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "candidate_ops",
            "scan_ops_per_element",
            "setopt_ops",
            "gpu_scan_ops_per_element",
            "cpu_scan_elements_cached",
        ):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")

    def with_overrides(self, **kwargs) -> "CostConstants":
        """Copy with some constants replaced (ablation benches use this)."""
        return replace(self, **kwargs)


#: The frozen constants used by every experiment.
DEFAULT_COSTS = CostConstants()
