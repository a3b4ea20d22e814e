"""Edge cases of ``maximal_mask``'s membership test.

``maximal_mask`` decides "no ``c + e_j`` is a row" from a boolean
bitmap over the rows' bounding box.  These cases pin the places a
bitmap can go wrong — row order, one row, one dimension, a box smaller
than the table, an empty set — against the definition itself (a
brute-force unit-increment check), on real configuration sets and on
arbitrary integer row sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import enumerate_configurations
from repro.core.sparsify import maximal_mask


def brute_force(configs):
    """``c`` is maximal iff no ``c + e_j`` is a row (the definition)."""
    rows = {tuple(int(x) for x in row) for row in configs}
    d = configs.shape[1]
    return np.array(
        [
            not any(
                tuple(int(x) + (a == j) for a, x in enumerate(row)) in rows
                for j in range(d)
            )
            for row in configs
        ],
        dtype=bool,
    )


@st.composite
def real_sets(draw):
    d = draw(st.integers(1, 4))
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    sizes = tuple(
        draw(st.lists(st.integers(1, 9), min_size=d, max_size=d, unique=True))
    )
    target = draw(st.integers(1, 16))
    return counts, sizes, target


@given(real_sets(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_shuffled_rows_keep_their_mask(case, rnd):
    counts, sizes, target = case
    configs = enumerate_configurations(sizes, counts, target)
    order = list(range(configs.shape[0]))
    rnd.shuffle(order)
    shuffled = configs[order]
    expected = brute_force(configs)[order]
    assert np.array_equal(maximal_mask(shuffled), expected)


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(0, 5), min_size=d, max_size=d),
            min_size=1,
            max_size=30,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_arbitrary_row_sets_match_the_definition(rows):
    # Not downward closed, with duplicates and rows away from the
    # origin: the membership route still answers the unit-increment
    # question.
    configs = np.asarray(rows, dtype=np.int64)
    assert np.array_equal(maximal_mask(configs), brute_force(configs))


def test_single_row_is_maximal():
    for row in ([0], [3], [0, 0, 0], [2, 0, 1]):
        mask = maximal_mask(np.asarray([row], dtype=np.int64))
        assert mask.tolist() == [True]


def test_one_dimension():
    counts, sizes, target = (6,), (4,), 13
    configs = enumerate_configurations(sizes, counts, target)
    assert configs[:, 0].tolist() == [1, 2, 3]  # 3 jobs of size 4 fit in 13
    mask = maximal_mask(configs)
    assert mask.tolist() == [False, False, True]
    assert np.array_equal(mask, brute_force(configs))
    assert np.array_equal(maximal_mask(configs[::-1]), mask[::-1])


def test_bounding_box_smaller_than_counts():
    # The budget, not the counts, caps every class: the rows' box is
    # (3, 2) inside a (6, 6) table, so increments that leave the box
    # must read as "not a row" rather than wrap into another cell.
    counts, sizes, target = (5, 5), (3, 4), 7
    configs = enumerate_configurations(sizes, counts, target)
    box = configs.max(axis=0) + 1
    assert (box < np.asarray(counts) + 1).all()
    assert np.array_equal(maximal_mask(configs), brute_force(configs))


def test_empty_set():
    for d in (1, 3):
        mask = maximal_mask(np.zeros((0, d), dtype=np.int64))
        assert mask.shape == (0,) and mask.dtype == bool


def test_zero_dimensional_rows_are_maximal():
    mask = maximal_mask(np.zeros((1, 0), dtype=np.int64))
    assert mask.tolist() == [True]
