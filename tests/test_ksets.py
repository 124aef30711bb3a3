import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import comb

from ksetwl import (KSetIndex, ParameterError, ResourceLimitError,
                    build_graph)
from ksetwl.ksets import check_order
from ksetwl.pipeline import exact_kset_run, la_kset_run

from reference import rank, unrank


def test_counts():
    assert KSetIndex(4, 2).size == 6
    assert KSetIndex(3, 3).size == 1
    assert KSetIndex(2, 3).size == 0


def test_order_cap_admits_k_up_to_seven():
    # 8 sets of 7! = 5,040 orderings fit a block of 2^16 rows, 8 of 8! do not
    for k in range(1, 8):
        check_order(k)
    for k in (8, 9, 10, 10 ** 9):
        with pytest.raises(ResourceLimitError,
                           match="largest supported k is 7"):
            check_order(k)


def test_exact_runs_refuse_k_nine_before_enumerating():
    g = build_graph(12, [(i, i + 1) for i in range(11)])
    with pytest.raises(ResourceLimitError, match="orderings"):
        exact_kset_run([g], 9, 1)
    with pytest.raises(ResourceLimitError, match="orderings"):
        la_kset_run([g], 9, 1)


def test_k_below_one_rejected():
    with pytest.raises(ParameterError):
        KSetIndex(5, 0)


def test_one_sets_are_the_vertices():
    assert KSetIndex(5, 1).all_sets().ravel().tolist() == [0, 1, 2, 3, 4]


def test_enumerate_from_graph(e1i):
    assert KSetIndex(e1i.num_vertices, 2).size == 3


def test_all_sets_rows_are_their_own_ranks():
    for n, k in [(4, 2), (6, 3), (7, 2), (5, 5), (6, 4)]:
        index = KSetIndex(n, k)
        sets = index.all_sets()
        assert len(sets) == comb(n, k)
        assert [rank(t) for t in sets] == list(range(index.size))
        # rows are strictly ascending tuples
        assert np.all(np.diff(sets, axis=1) > 0)


@given(st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_rank_unrank_roundtrip(k, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 14))
    index = KSetIndex(n, k)
    for r in rng.integers(0, index.size, size=min(20, index.size)):
        r = int(r)
        t = unrank(index, r)
        assert rank(t) == r
        assert list(t) == sorted(set(t))


def test_unrank_out_of_range():
    index = KSetIndex(4, 2)
    with pytest.raises(ParameterError):
        unrank(index, 6)


def test_unrank_monotone_in_colex_order():
    index = KSetIndex(6, 3)
    previous = None
    for r in range(index.size):
        t = unrank(index, r)
        key = tuple(reversed(t))  # colex compares from the largest element
        if previous is not None:
            assert key > previous
        previous = key
