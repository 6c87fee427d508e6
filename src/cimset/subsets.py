"""Bitmask subset machinery shared across the package.

A subset of ordering positions is encoded as an int: bit k set means the
node at ordering position k is a member.  The canonical order used
everywhere is graded lexicographic: subsets sorted by cardinality first,
then lexicographically on their sorted index lists.

`graded_subsets` builds that order as one numpy array, a size at a time:
int64 masks, or Python ints once a member sits at position 63 or above.
`graded_positions(k)`, its inverse over range(k) indexed by mask, is the
one table that `FacetSystem` and `export_full_vector` read.  `pext` and
`pdep` work in int64 and refuse, through `limits.MASK_BITS`, a universe with
a member at position 63 or above.  The zeta and Möbius transforms run each
bit pass as one numpy operation on a 1-D array, in its dtype, or over a
list as Python objects, so ints, floats and Fractions keep their types.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List

import numpy as np

from . import limits


def bits_of(mask: int) -> List[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_graded_subsets(universe: int, include_empty: bool = False) -> Iterator[int]:
    """Subsets of `universe` in graded-lex order."""
    members = bits_of(universe)
    start = 0 if include_empty else 1
    for k in range(start, len(members) + 1):
        for combo in combinations(members, k):
            yield mask_of(combo)


def graded_subsets(universe: int, max_size: int | None = None) -> np.ndarray:
    """Subsets of `universe` with at most `max_size` members (default: all),
    the empty set first, in graded-lex order.

    Built a size at a time: the subsets of one size in lex order, each
    followed by every later member of the universe in turn, are those of
    the next size in lex order.  The masks are int64 while every bit fits
    below the sign bit, else Python ints in an object array, so they are
    exact at any node position.
    """
    members = bits_of(universe)
    k = len(members)
    dtype = object if universe >> 63 else np.int64
    single = np.array([1 << b for b in members], dtype=dtype)
    level = np.zeros(1, dtype=dtype)
    last = np.full(1, -1)  # per subset, the index of its last member
    levels = [level]
    for _ in range(k if max_size is None else min(max_size, k)):
        # reps: how many later members each subset can take; last: the one each new subset took
        reps = k - 1 - last
        ends = np.cumsum(reps)
        last = np.arange(ends[-1]) - np.repeat(ends - k, reps)
        level = np.repeat(level, reps) | single[last]
        levels.append(level)
    return np.concatenate(levels)


def graded_positions(k: int) -> np.ndarray:
    """Position of every subset of range(k) in graded-lex order, indexed by
    its mask: the inverse of graded_subsets((1 << k) - 1)."""
    order = graded_subsets((1 << k) - 1)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return position


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and mask itself (unspecified order)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_mask_bits(universe: int) -> None:
    top = universe.bit_length()
    limits.check("MASK_BITS", top, f"subset universe holds bit {top - 1}, "
                                   f"so its int64 masks need {top} bits")


def pext(masks, universe: int) -> np.ndarray:
    """Re-index subsets of `universe` onto dense bits 0..popcount(universe)-1.

    Vectorised over an array of masks: bit i of the result is the mask's
    bit at the i-th lowest set bit of `universe`; bits outside it are dropped.
    Both pext and pdep work in int64, so they refuse a universe whose masks
    need more than limits.MASK_BITS bits.
    """
    _check_mask_bits(universe)
    masks = np.asarray(masks, dtype=np.int64)
    out = np.zeros_like(masks)
    for i, b in enumerate(bits_of(universe)):
        out |= (masks >> b & 1) << i
    return out


def pdep(dense, universe: int) -> np.ndarray:
    """Inverse of pext: spread dense bit i onto the i-th lowest set bit of `universe`."""
    _check_mask_bits(universe)
    dense = np.asarray(dense, dtype=np.int64)
    out = np.zeros_like(dense)
    for i, b in enumerate(bits_of(universe)):
        out |= (dense >> i & 1) << b
    return out


# In-place lattice transforms on arrays indexed by submask (Yates' passes).
# Pass j pairs every index m without bit j with m | bit j; viewing the first
# 2**nbits entries as (-1, 2, 2**j) puts the pairs in the middle axis, so a
# pass is one numpy operation doing the scalar loop's subtractions (or
# additions) in the same order.  A 1-D array is updated in place in its own
# dtype; a list is folded as Python objects, so ints, floats and Fractions
# keep their types, and written back.

def _yates(a, nbits: int, op, subsets: bool) -> None:
    n = 1 << nbits
    if len(a) < n:
        raise ValueError(f"a transform over {nbits} bits needs {n} entries, got {len(a)}")
    if isinstance(a, np.ndarray):
        work = np.ascontiguousarray(a[:n])
    else:
        work = np.array(a[:n], dtype=object)
    for j in range(nbits):
        pairs = work.reshape(-1, 2, 1 << j)
        without, with_ = pairs[:, 0, :], pairs[:, 1, :]
        if subsets:
            op(with_, without, out=with_)
        else:
            op(without, with_, out=without)
    if not isinstance(a, np.ndarray):
        a[:n] = work.tolist()
    elif not np.shares_memory(work, a):
        a[:n] = work


def zeta_subsets_inplace(a, nbits: int) -> None:
    """a[m] becomes sum of a[s] over s subset of m."""
    _yates(a, nbits, np.add, subsets=True)


def mobius_subsets_inplace(a, nbits: int) -> None:
    """Inverse of zeta_subsets_inplace: a[m] becomes the signed subset sum."""
    _yates(a, nbits, np.subtract, subsets=True)


def zeta_supersets_inplace(a, nbits: int) -> None:
    """a[m] becomes sum of a[t] over t superset of m."""
    _yates(a, nbits, np.add, subsets=False)


def mobius_supersets_inplace(a, nbits: int) -> None:
    """Inverse of zeta_supersets_inplace."""
    _yates(a, nbits, np.subtract, subsets=False)
