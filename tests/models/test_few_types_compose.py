"""The few-types composition against the per-cell loop it replaced.

``FewTypesModel._compose`` splits the full job vector across machine
types with one reversed AND per witness step, which is also the root
test; only the intermediate feasibility lattices of ``K >= 3`` fleets
are still built cell by cell.  The oracle below is the original per-cell
composition — a Python loop over every cover cell — kept here only as
the reference: the new composition must return the same cell tuple,
and ``None`` exactly when the oracle does, on real per-type fills at
targets the search both accepts and rejects.

The admission charge is pinned too: the bytes ``tracemalloc`` sees
allocated while ``_compose`` runs never exceed
``admission_extra_bytes``.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dp_vectorized import dp_vectorized
from repro.core.instance import Instance
from repro.core.rounding import round_instance
from repro.errors import DPError
from repro.models import model_for


def oracle_compose(rounded, dp_results, per_type):
    """The per-cell composition loop (reference only)."""
    K = len(per_type)
    if rounded.dims == 0:
        return [() for _ in range(K)]
    shape = rounded.table_shape
    full = tuple(s - 1 for s in shape)
    covers = [dp_results[t].table <= int(per_type[t]) for t in range(K)]

    feas = [covers[0]]
    for t in range(1, K):
        nxt = np.zeros(shape, dtype=bool)
        for v in np.argwhere(covers[t]):
            dst = tuple(slice(int(x), None) for x in v)
            src = tuple(slice(None, int(s) - int(x)) for s, x in zip(shape, v))
            np.logical_or(nxt[dst], feas[t - 1][src], out=nxt[dst])
        feas.append(nxt)
    if not bool(feas[K - 1][full]):
        return None

    cells = [None] * K
    w = np.asarray(full, dtype=np.int64)
    for t in range(K - 1, 0, -1):
        for v in np.argwhere(covers[t]):
            if (v <= w).all() and bool(feas[t - 1][tuple(w - v)]):
                cells[t] = tuple(int(x) for x in v)
                w = w - v
                break
        else:
            raise DPError("no witness")
    cells[0] = tuple(int(x) for x in w)
    return cells


def typed_instance(times, speeds, per_type):
    return Instance(
        times=tuple(times),
        machines=sum(per_type),
        model="unrelated-few-types",
        type_speeds=tuple(speeds),
        machines_per_type=tuple(per_type),
    )


def probe(inst, target, eps):
    """Round at ``target`` and run every per-type fill exactly."""
    model = model_for(inst)
    rounded = round_instance(inst, target, eps)
    results = tuple(
        dp_vectorized(f.counts, f.class_sizes, f.budget) for f in model.fills(rounded)
    )
    return model, rounded, results


FLEETS = (
    ((1, 2), (2, 1)),
    ((1, 2), (1, 2)),
    ((1, 2, 3), (1, 1, 1)),
    ((1, 2, 3), (2, 1, 1)),
)


@st.composite
def probes(draw):
    speeds, per_type = draw(st.sampled_from(FLEETS))
    times = draw(st.lists(st.integers(3, 40), min_size=4, max_size=12))
    eps = draw(st.sampled_from((0.2, 0.3, 0.5)))
    inst = typed_instance(times, speeds, per_type)
    bounds = model_for(inst).bounds(inst)
    # Targets from below the lower bound (rejects) to the upper bound
    # (accepts), so both answers of the composition are exercised.
    target = draw(st.integers(max(1, bounds.lower * 2 // 3), bounds.upper))
    return inst, target, eps


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(probes())
def test_compose_matches_the_per_cell_oracle(case):
    inst, target, eps = case
    model, rounded, results = probe(inst, target, eps)
    per_type = inst.machines_per_type
    assert model._compose(rounded, results, per_type) == oracle_compose(
        rounded, results, per_type
    )


def test_oracle_cases_cover_accepts_and_rejects_for_both_fleet_sizes():
    # Pin that the differential property is not vacuous: fixed probes
    # where the composition accepts and rejects, for K = 2 and K = 3.
    times = (31, 27, 22, 19, 17, 12, 9, 8)
    for speeds, per_type in (((1, 2), (2, 1)), ((1, 2, 3), (1, 1, 1))):
        inst = typed_instance(times, speeds, per_type)
        bounds = model_for(inst).bounds(inst)
        answers = set()
        for target in (bounds.lower // 2, bounds.upper):
            model, rounded, results = probe(inst, target, 0.3)
            split = model._compose(rounded, results, per_type)
            assert split == oracle_compose(rounded, results, per_type)
            answers.add(split is None)
        assert answers == {True, False}


def traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_admission_extra_bytes_covers_the_composition_peak():
    # Six classes of five or six long jobs give 27k- to 100k-cell
    # tables, so the lattices, not the fixed overhead, dominate.
    times = (44,) * 6 + (38,) * 6 + (33,) * 6 + (29,) * 6 + (26,) * 6 + (23,) * 5
    for speeds, per_type in (((1, 2), (6, 6)), ((1, 2, 3), (6, 4, 3))):
        inst = typed_instance(times, speeds, per_type)
        bounds = model_for(inst).bounds(inst)
        for target in (bounds.lower, bounds.upper):
            model, rounded, results = probe(inst, target, 0.3)
            assert rounded.table_size >= 20_000
            peak = traced_peak(lambda: model._compose(rounded, results, per_type))
            charge = model.admission_extra_bytes(rounded)
            assert len(per_type) * rounded.table_size <= peak <= charge


def test_single_type_composition_is_not_charged():
    inst = typed_instance((31, 27, 22, 19, 17, 12), (2,), (3,))
    rounded = round_instance(inst, model_for(inst).bounds(inst).upper, 0.3)
    assert model_for(inst).admission_extra_bytes(rounded) == 0
