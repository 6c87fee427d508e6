import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimset.subsets import (bits_of, graded_positions, graded_subsets,
                            iter_graded_subsets, iter_submasks, mask_of,
                            mobius_subsets_inplace, mobius_supersets_inplace,
                            pdep, pext, zeta_subsets_inplace, zeta_supersets_inplace)


def test_bits_and_mask_roundtrip():
    assert bits_of(0) == []
    assert bits_of(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert mask_of([]) == 0


def test_graded_order_small():
    # cardinality first, then lexicographic on sorted members
    got = list(iter_graded_subsets(0b111))
    assert got == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert list(iter_graded_subsets(0b111, include_empty=True))[0] == 0
    # works on a sparse universe
    got = list(iter_graded_subsets(0b1010))
    assert got == [0b0010, 0b1000, 0b1010]


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, 62), max_size=14), st.none() | st.integers(0, 15))
def test_graded_subsets_list_the_graded_order(positions, max_size):
    universe = mask_of(positions)
    want = [s for s in iter_graded_subsets(universe, include_empty=True)
            if max_size is None or s.bit_count() <= max_size]
    got = graded_subsets(universe, max_size)
    assert got.dtype == np.int64 and got.tolist() == want


def test_graded_subsets_are_exact_past_bit_62():
    universe = 1 << 3 | 0b11111 << 64 | 1 << 90
    got = graded_subsets(universe)
    assert got.dtype == object
    assert got.tolist() == list(iter_graded_subsets(universe, include_empty=True))
    assert got[1:4].tolist() == [1 << 3, 1 << 64, 1 << 65]


@pytest.mark.parametrize("k", range(9))
def test_graded_positions_invert_the_graded_order(k):
    order = list(iter_graded_subsets((1 << k) - 1, include_empty=True))
    position = graded_positions(k)
    assert len(position) == 1 << k
    assert [position[s] for s in order] == list(range(1 << k))


def test_submasks_complete():
    m = 0b10110
    subs = set(iter_submasks(m))
    assert len(subs) == 8
    assert all(s & ~m == 0 for s in subs)
    assert 0 in subs and m in subs
    assert set(iter_submasks(0)) == {0}


def test_compress_expand_roundtrip():
    universe = 0b101101
    subs = list(iter_submasks(universe))
    dense = pext(subs, universe)
    assert sorted(dense.tolist()) == list(range(1 << universe.bit_count()))
    assert pdep(dense, universe).tolist() == subs
    assert pext([0b100], 0b101).tolist() == [0b10]
    assert pdep([0b10], 0b101).tolist() == [0b100]


def test_zeta_mobius_subsets_inverse():
    rng = random.Random(7)
    k = 6
    a = [rng.randrange(-50, 50) for _ in range(1 << k)]
    b = list(a)
    zeta_subsets_inplace(b, k)
    # zeta really is the subset sum
    for m in range(1 << k):
        assert b[m] == sum(a[s] for s in iter_submasks(m))
    mobius_subsets_inplace(b, k)
    assert b == a


def test_zeta_mobius_supersets_inverse():
    rng = random.Random(8)
    k = 6
    a = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(1 << k)]
    b = list(a)
    zeta_supersets_inplace(b, k)
    full = (1 << k) - 1
    for m in range(1 << k):
        assert b[m] == sum(a[m | (t & ~m)] for t in iter_submasks(full) if t & ~m == t)
    mobius_supersets_inplace(b, k)
    assert b == a


def test_transforms_stay_exact_with_fractions():
    a = [Fraction(1, 3), Fraction(1, 7), Fraction(2, 5), Fraction(-1, 11)]
    b = list(a)
    zeta_subsets_inplace(b, 2)
    mobius_subsets_inplace(b, 2)
    assert b == a and all(isinstance(v, Fraction) for v in b)


@pytest.mark.parametrize("transform", [zeta_subsets_inplace, mobius_subsets_inplace,
                                       zeta_supersets_inplace, mobius_supersets_inplace])
def test_transforms_on_arrays_match_lists(transform):
    rng = random.Random(9)
    k = 5
    a = [rng.uniform(-50, 50) for _ in range(1 << k)]
    ref = a + ["tail"]
    transform(ref, k)  # a list folds as Python floats; entries past 2**k stay
    assert ref[-1] == "tail" and all(type(v) is float for v in ref[:-1])
    arr = np.array(a)
    transform(arr, k)
    assert arr.tolist() == ref[:-1]
    strided = np.zeros(2 << k)
    strided[::2] = a
    transform(strided[::2], k)  # a non-contiguous view is updated in place too
    assert strided[::2].tolist() == ref[:-1] and not strided[1::2].any()
    with pytest.raises(ValueError, match="needs 32 entries"):
        transform(a[:-1], k)
