"""Independent exact-arithmetic certification oracle.

Everything here works from first principles on explicit vertex clouds:
adjacency by a two-point midpoint witness, a simplex face ranked mod 2 or
an exact LP over the segment (phase-1 simplex, Bland's rule, on integer
equality rows with b >= 0), exact affine rank, facet verification, and
exhaustive brute-force structure learning.  None of it relies on the
closed-form block structure it is used to certify.

Points are Fractions and Farkas vectors ints, both in lowest terms.  A 0/1
vertex, and every vector of a certificate payload, is bytes, one byte per
coordinate, as a characteristic imset is, read by `_zero_one`; its bitmask
has bit 8j set where coordinate j is 1.  A `VertexCloud` packs a cloud
once, with one bitset per coordinate (`columns()`, bit t for vertex t) and
one lane column per coordinate at one width W, the widest asked for yet
(`lanes(w)`, lane t of W >= w bytes holding vertex t's entry), both read
from the cloud's transpose, a block of rows at a time (`_column_blocks`).
`_facet_verdict` divides a facet row by the gcd of its entries and decides
it with one big-int lane identity: with bound = |c0| + Σ|cj| and 2·bound <
256**w <= 256**W, (c0 + bound)·ONES + Σ cj·Lj holds each vertex's value
plus bound in its lane, no lane carrying: one product per nonzero cj.

A pair's face is the AND of the columns where both endpoints are 1 less
the OR of the columns where both are 0 (`_face`), one rule for
`oracle_adjacent`'s walk and for the replays.  Every payload carries the
`VertexCloud` it was decided on, so a replay reuses its packed vertices,
cached columns and cached `simplex()`.  A pair's replay finds v1, v2 and
the candidates or combination vectors by their position in the cloud's
index, packing only those that are not bytes, and reads their bytes and
masks from the cloud.  The adjacency replay requires the candidates to be
the face's vertices in cloud order, less copies of v1 and v2, and compares
`excluded` with the cloud's off-face vertices, selected by `compress`, as
one tuple comparison: no excluded vertex is packed or masked.  The
non-adjacency replay writes its weights as num_u over their common
denominator den, packs each vector with one lane of w bytes per
coordinate, den < 256**w, so no lane carries, and accepts exactly when
Σ num_u · lane_u == t · lane_v1 + (den - t) · lane_v2, t read off the
lowest lane where v1 and v2 differ: one big-int identity, whose one-byte
lanes are the cloud's cached masks.

One GF(2) elimination, `_rank_mod2`, answers every rank question first:
the simplex face of the adjacency replay, whose verdict `oracle_adjacent`
takes as its own, `VertexCloud.simplex()` and `affine_dimension`.  An odd
integer is nonzero, so a minor that is nonzero mod 2 is nonzero: the rank
mod 2 is never above the rank over the rationals, which is at most
min(N - 1, d) for N points in d coordinates.  Independence mod 2 is
therefore independence, and a mod-2 rank of min(N - 1, d) is the rank.
Where it falls short on a 0/1 cloud, the cloud's quotient bounds the rank
instead: dropping a constant column, a copy of a column or a column's
complement changes neither rank, so a mod-2 rank of min(N - 1, d') is the
rank for the d' columns left.  That settles the clouds of families with
floors, whose factors repeat a coordinate once per floor subset.  Only a
quotient that still falls short, or a cloud with an entry outside 0/1,
goes to `_affine_rank`, one row-echelon loop over sparse rows of Python
ints: integer clouds, mis-encoded facet clouds.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import compress, islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import limits
from .errors import DegeneratePairError, DomainError
from .graphs import FamilySpec, ParentMap, enumerate_family
from .subsets import iter_graded_subsets


def _vec(v) -> Tuple[int, ...]:
    """The entries of a vertex as an int tuple; a float or non-integral rational is refused."""
    t = tuple(v)
    return _integers(t, f"vertex {t!r}", "entry")


def _integers(t: tuple, owner: str, kind: str) -> Tuple[int, ...]:
    """t as an int tuple, t itself when all its entries are ints.

    A float or non-integral rational is refused, naming `owner`.
    """
    if set(map(type, t)) <= {int}:
        return t
    for e in t:
        if not (isinstance(e, numbers.Rational) and e.denominator == 1):
            raise DomainError(f"{owner} has a non-integer {kind} {e!r}")
    return tuple(int(e) for e in t)


# --- exact simplex ------------------------------------------------------
#
# Tableau rows hold integers, each kept in lowest terms by the gcd of its
# entries: any row of an equality tableau may be rescaled.  Only the
# objective row keeps a positive denominator, because the Farkas
# multipliers are read from it.  Pivots cross-multiply, so every quantity
# stays exact.

def _solve_phase1(rows, rhs):
    """Exact phase-1 simplex for {x >= 0 : Ax = b}, A integer and b >= 0 integer.

    Returns (x, None) for a feasible point x of Fractions, or
    (None, farkas) where farkas is a list of ints in lowest terms with
    sum_i y_i * A[i] <= 0 componentwise and sum_i y_i * b_i > 0, which
    refutes feasibility.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    total = n + m  # the artificial of row i is column n + i

    V = [[*row, *(int(k == i) for k in range(m)), b]
         for i, (row, b) in enumerate(zip(rows, rhs))]
    basis = list(range(n, total))

    # phase-1 objective: minimize the sum of the artificials, priced out
    # against the starting basis, so its artificial columns are zero
    obj = [-sum(col) for col in zip(*V)]
    obj[n:total] = [0] * m
    obj_den = 1

    guard = 0
    while True:
        guard += 1
        assert guard < 2_000_000, "simplex failed to terminate"
        enter = next((j for j in range(total) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = V[i][enter]
            if a > 0:
                bnum = V[i][-1]
                if leave < 0 or bnum * best_den < best_num * a or (
                        bnum * best_den == best_num * a and basis[i] < basis[leave]):
                    leave, best_num, best_den = i, bnum, a
        assert leave >= 0, "phase-1 objective cannot be unbounded"
        prow = V[leave]
        p = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            f = V[i][enter]
            if f:
                row = [a * p - f * b for a, b in zip(V[i], prow)]
                g = math.gcd(*row)
                V[i] = row if g == 1 else [v // g for v in row]
        f = obj[enter]
        if f:
            obj, obj_den = [a * p - f * b for a, b in zip(obj, prow)], obj_den * p
            g = math.gcd(obj_den, *obj)
            obj, obj_den = [v // g for v in obj], obj_den // g
        basis[leave] = enter

    if not any(V[i][-1] for i in range(m) if basis[i] >= n):
        x = [Fraction(0)] * n
        for i in range(m):
            j = basis[i]
            if j < n:
                x[j] = Fraction(V[i][-1], V[i][j])
        return tuple(x), None

    # Farkas multipliers: the duals y_i = 1 - obj[n+i]/obj_den read off the
    # artificial columns, times obj_den.  They are in lowest terms already.
    # The objective row is obj_den times (-y.A_j on column j, 1 - y_i on
    # artificial i, -y.b on the right), so its entries are integer
    # combinations of obj_den and the multipliers; and a basic artificial,
    # which an infeasible end has, prices to 0, so its multiplier is obj_den.
    # A common divisor of the multipliers then divides the row and obj_den,
    # whose gcd is 1
    farkas = [obj_den - obj[n + i] for i in range(m)]
    for col in zip(*rows):
        if sum(map(operator.mul, farkas, col)) > 0:
            raise AssertionError("Farkas combination is not nonpositive on a column")
    if sum(map(operator.mul, farkas, rhs)) <= 0:
        raise AssertionError("Farkas combination does not refute the right-hand side")
    return None, farkas


# --- certificates -------------------------------------------------------

@dataclass
class Certificate:
    """A replayable verdict: kind, witness payload, and its verification state."""

    kind: str
    payload: dict
    verified: bool

    def replay(self) -> bool:
        """Re-verify the stored witness by direct arithmetic; a malformed one replays False."""
        try:
            return _REPLAY[self.kind](self.payload)
        except (KeyError, TypeError, ValueError, DomainError):
            return False


def _zero_one(vecs, d: int) -> Optional[List[bytes]]:
    """Each vector as bytes, one byte per entry, or None unless every vector has
    d entries, each 0 or 1: the oracle's one reader of 0/1 vertices.

    Both segment replays rest on it: a vertex is then nonnegative where both
    endpoints are 0 and at most 1 where both are 1.  Vectors of ints in
    0..255 are packed by `bytes(tuple(v))`, which refuses the int 5 and reads
    an int64 array by its entries, not its buffer, and one `translate` checks
    them all; any other entry, such as 1.0 or Fraction(1), takes the set
    check.
    """
    try:
        packed = [v if type(v) is bytes else bytes(tuple(v)) for v in vecs]
    except (TypeError, ValueError):
        packed = []
        for v in vecs:
            t = tuple(v)
            if not {0, 1}.issuperset(t):
                return None
            packed.append(bytes(map(bool, t)))
    if set(map(len, packed)) - {d} or b"".join(packed).translate(None, b"\x00\x01"):
        return None
    return packed


# The bitmask of a packed 0/1 vector: bit 8j is set where coordinate j is 1.
_mask = partial(int.from_bytes, byteorder="little")


def _as_cloud(cloud) -> VertexCloud:
    """`cloud` itself when it is a `VertexCloud`, so its masks, cached columns
    and cached `simplex()` are reused; else the vertices packed once."""
    return cloud if isinstance(cloud, VertexCloud) else VertexCloud(cloud)


def _in_cloud(p, vecs):
    """(cloud, at): the payload's cloud, and the cloud positions of v1, v2
    and `vecs`; None unless each is a cloud vertex and v1 and v2 are two
    distinct ones, as `oracle_adjacent` requires of its pair.  The index's
    keys are 0/1 vertices of the cloud's width, so only vectors that are not
    bytes are packed, by `_zero_one`, before the lookup.
    """
    cloud = _as_cloud(p["cloud"])
    vecs = [p["v1"], p["v2"], *vecs]
    if not all(type(v) is bytes for v in vecs):
        vecs = _zero_one(vecs, len(cloud.vecs[0]) if cloud.vecs else 0)
        if vecs is None:
            return None
    at = list(map(cloud.index.get, vecs))
    if None in at or at[0] == at[1]:
        return None
    return cloud, at


def _replay_non_adjacency(p) -> bool:
    combo = p["combination"]
    if not combo or not all(isinstance(lam, numbers.Rational) for _, lam in combo):
        return False
    found = _in_cloud(p, [vec for vec, _ in combo])
    if found is None:
        return False
    cloud, at = found
    if at[0] in at[2:] or at[1] in at[2:]:
        return False
    # the weights as int numerators over their common denominator
    den = math.lcm(*(lam.denominator for _, lam in combo))
    nums = [lam.numerator * (den // lam.denominator) for _, lam in combo]
    if min(nums) < 0 or sum(nums) != den:
        return False
    # no lane of either side exceeds den, so none carries over `width` bytes;
    # buf[::width] writes a vector's entries as the low bytes of its lanes
    width = (den.bit_length() + 7) // 8
    if width == 1:
        l1, l2, *lanes = map(cloud.masks.__getitem__, at)
    else:
        buf = bytearray(width * len(cloud.vecs[0]))
        l1, l2, *lanes = [_mask(buf) for buf[::width] in map(cloud.vecs.__getitem__, at)]
    mix = sum(map(operator.mul, nums, lanes))
    # den times a point of [v1, v2] is t v1 + (den - t) v2.  No combination
    # of 0/1 vectors other than v1 and v2 reaches either end
    low = ((l1 ^ l2) & -(l1 ^ l2)).bit_length() - 1
    lane = mix >> low & (1 << 8 * width) - 1
    t = lane if l1 >> low & 1 else den - lane
    return mix == t * l1 + (den - t) * l2


def _replay_adjacency(p) -> bool:
    found = _in_cloud(p, p["candidates"])
    if found is None:
        return False
    cloud, (i1, i2, *at) = found
    v1, v2, *vecs = map(cloud.vecs.__getitem__, (i1, i2, *at))
    m1, m2 = cloud.masks[i1], cloud.masks[i2]
    # the candidates are the face's vertices in cloud order less copies of v1
    # and v2, and `excluded` the cloud's other vertices, as the cloud's own
    # bytes: a vertex left out of the face or added to it fails here
    on_face = _selector(_face(cloud, m1, m2), len(cloud))
    if vecs != [u for u in compress(cloud.vecs, on_face) if u != v1 and u != v2]:
        return False
    if tuple(p["excluded"]) != _off_face(cloud, on_face):
        return False
    if "farkas" not in p:
        face_masks = [m2, *map(cloud.masks.__getitem__, at)]
        return _rank_mod2(m1, face_masks, len(face_masks)) == len(face_masks)
    y = _integers(tuple(p["farkas"]), "farkas vector", "multiplier")
    # the LP rows are the coordinates where exactly one endpoint is 1, each
    # with the column of t, v2_j - v1_j, and right-hand side v2_j
    support = [j for j, (a, b) in enumerate(zip(v1, v2)) if a != b]
    if len(y) != len(support) + 1:
        return False
    for vec in vecs:
        if sum(map(operator.mul, y, map(vec.__getitem__, support))) + y[-1] > 0:
            return False
    ys = y[:-1]
    if sum(map(operator.mul, ys, (v2[j] - v1[j] for j in support))) > 0:
        return False
    return sum(map(operator.mul, ys, map(v2.__getitem__, support))) + y[-1] > 0


def _replay_facet(p) -> bool:
    cloud = _as_cloud(p["cloud"])
    coeffs = _integers(tuple(p["coefficients"]), "facet row", "coefficient")
    vertex = _facet_vertex(p["s"], cloud.vecs, len(coeffs))
    return _facet_verdict(coeffs, cloud, vertex)[0]


_REPLAY = {
    "non-adjacency": _replay_non_adjacency,
    "adjacency": _replay_adjacency,
    "facet": _replay_facet,
}


# --- adjacency ----------------------------------------------------------

class VertexCloud:
    """A 0/1 vertex cloud packed once for repeated oracle calls.

    Holds the vertices as bytes, one byte per coordinate (`vecs`), one
    bitmask per vertex with bit 8j set where coordinate j is 1 (`masks`),
    and the position of each distinct vertex (`index`).  The first
    adjacency query packs one bitset per coordinate (`columns()`), and the
    first facet row one lane column per coordinate (`lanes(w)`) at the one
    width held, packed again for a wider row.  Every vertex must be a 0/1
    vector and all must have the same length: the pruning in
    `oracle_adjacent` is only sound for 0/1 vertices.
    """

    __slots__ = ("vecs", "masks", "index", "_simplex", "_columns", "_lanes")

    def __init__(self, cloud):
        cloud = list(cloud)
        width = len(cloud[0]) if cloud else 0
        vecs = _zero_one(cloud, width)
        if vecs is None:
            # name the first vertex that is no 0/1 vector or has another width
            for t, u in enumerate(cloud):
                raw = tuple(u)
                if not {0, 1}.issuperset(raw):
                    raise DomainError(f"cloud vertex {t} {raw!r} is not a 0/1 vector")
                if len(raw) != width:
                    raise DomainError(f"cloud vertex {t} has {len(raw)} coordinates, "
                                      f"vertex 0 has {width}")
        index: Dict[bytes, int] = {}
        for t, vec in enumerate(vecs):
            index.setdefault(vec, t)
        self.vecs = tuple(vecs)
        self.masks = tuple(map(_mask, vecs))
        self.index = index
        self._simplex: Optional[bool] = None
        self._columns: Optional[Tuple[int, ...]] = None
        self._lanes: Tuple[int, int, Tuple[int, ...]] = (0, 0, ())

    def __len__(self) -> int:
        return len(self.vecs)

    def __eq__(self, other) -> bool:
        """Clouds are equal when they list the same vertices in the same order."""
        if not isinstance(other, VertexCloud):
            return NotImplemented
        return self.vecs == other.vecs

    def simplex(self) -> bool:
        """Whether the vertices are affinely independent; ranked on the first call only."""
        if self._simplex is None:
            self._simplex = _rank(list(self.vecs)) == len(self.vecs) - 1
        return self._simplex

    def columns(self) -> Tuple[int, ...]:
        """One bitset per coordinate, bit t set where vertex t is 1; packed on the first call."""
        if self._columns is None:
            self._columns = _columns(self.vecs, len(self.vecs[0]) if self.vecs else 0)
        return self._columns

    def lanes(self, w: int) -> Tuple[int, int, Tuple[int, ...]]:
        """(W, ONES, lane columns) at W >= w bytes a lane, W the widest w asked
        for yet: the cloud holds one width, packed again only for a wider w.

        ONES has 1 in every lane, and lane column j has lane t equal to
        vertex t's entry j; lane t starts at bit 8Wt.
        """
        if w > self._lanes[0]:
            buf = bytearray(w * len(self.vecs))
            blocks = _column_blocks(self.vecs, len(self.vecs[0]) if self.vecs else 0)
            lanes = [_mask(buf) for block in blocks for buf[::w] in map(memoryview, block)]
            self._lanes = w, _mask(b"\x01".ljust(w, b"\x00") * len(self.vecs)), tuple(lanes)
        return self._lanes


def _column_blocks(vecs: Sequence[bytes], width: int):
    """The transpose of 0/1 vectors of `width` bytes, a contiguous block of
    rows at a time, one row of len(vecs) bytes per coordinate: the oracle's
    one column reader.  A block holds about `_RANK_BLOCK_CELLS` cells, so
    no transposed copy of the whole cloud is made."""
    matrix = np.frombuffer(b"".join(vecs), dtype=np.uint8).reshape(len(vecs), width)
    step = max(1, _RANK_BLOCK_CELLS // max(1, len(vecs)))
    for start in range(0, width, step):
        yield np.ascontiguousarray(matrix[:, start:start + step].T)


def _columns(vecs: Sequence[bytes], width: int) -> Tuple[int, ...]:
    """One bitset per coordinate of 0/1 vectors of `width` bytes, bit t set where vector t is 1."""
    return tuple(_mask(row) for block in _column_blocks(vecs, width)
                 for row in np.packbits(block, axis=1, bitorder="little"))


# The weight of each vertex of a two-point witness
_HALF = Fraction(1, 2)
# Swaps the bytes 0 and 1: a packed 0/1 vector's complement
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# Reads the digits of a binary numeral as the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _selector(bits: int, n: int) -> bytes:
    """Byte t is 1 where bit t of `bits` is set, for t < n: a `compress` selector."""
    return f"{bits:0{n}b}"[::-1].encode().translate(_DIGITS)


def _face(cloud: VertexCloud, m1: int, m2: int) -> int:
    """The face of the pair of cloud masks m1, m2, as a bitset over the cloud:
    bit t is set where vertex t agrees with both wherever the two agree.

    A combination with weight on a 0/1 vertex u needs u to vanish where both
    endpoints do and to be 1 where both endpoints are.  Over the cloud's
    column bitsets those vertices are the AND of the columns where both
    endpoints are 1 less the OR of the columns where both are 0.
    """
    width = len(cloud.vecs[0])
    columns = cloud.columns()
    face = reduce(operator.and_, compress(columns, (m1 & m2).to_bytes(width, "little")),
                  (1 << len(cloud)) - 1)
    neither = (m1 | m2).to_bytes(width, "little").translate(_FLIP)
    return face & ~reduce(operator.or_, compress(columns, neither), 0)


def _off_face(cloud: VertexCloud, on_face: bytes) -> Tuple[bytes, ...]:
    """The cloud's vertices off the face whose `_selector` is `on_face`, in cloud order."""
    return tuple(compress(cloud.vecs, on_face.translate(_FLIP)))


def oracle_adjacent(v1, v2, cloud) -> Certificate:
    """Decide vertex adjacency on conv(cloud).

    Two distinct vertices v1, v2 of a polytope are adjacent exactly when no
    point of the segment [v1, v2] is a convex combination of the remaining
    vertices.  For 0/1 vertices only the candidates can take part: the
    vertices that agree with v1 and v2 wherever the two agree.  With v1, v2
    they are the vertices of the face that fixes those coordinates, which
    the cloud's per-coordinate column bitsets pick out.  A walk over the
    face's vertices, in cloud order, looks for two candidates u and w with
    u + w = v1 + v2; the first such pair settles non-adjacency with the
    combination ½u + ½w, the midpoint.  Otherwise the certificate that names
    the face and carries no `farkas` is replayed, and the verdict is its
    replay: it holds when the face's vertices are affinely independent mod
    2, so the face is a simplex and v1v2 is an edge.  Any other face goes to
    an exact LP over the candidates, which decides either way; its
    adjacency verdict is certified by the LP's Farkas refutation.
    Every payload carries `cloud`, the `VertexCloud` the pair was decided
    on, which its replay reads.  The cloud is a `VertexCloud` or any
    iterable of 0/1 vectors; pass a `VertexCloud` to pack it once for many
    calls.
    """
    cloud = _as_cloud(cloud)
    limits.check("ADJACENCY_CLOUD_MAX", len(cloud), f"cloud of {len(cloud)} vertices")
    pair = _zero_one((v1, v2), len(cloud.vecs[0]) if cloud.vecs else 0)
    # a query that is no 0/1 vector of the cloud's width is read as an int
    # tuple only to word its refusal: no int tuple is a key of the index
    b1, b2 = pair if pair is not None else (_vec(v1), _vec(v2))
    if b1 == b2:
        raise DegeneratePairError("adjacency oracle called with identical vertices")
    i1, i2 = cloud.index.get(b1), cloud.index.get(b2)
    if i1 is None or i2 is None:
        raise DomainError("both query vertices must belong to the cloud")
    m1, m2 = cloud.masks[i1], cloud.masks[i2]

    # every face vertex meets v1 and v2 where the two agree, so the LP below
    # keeps only the rows where exactly one endpoint is 1, plus the
    # convexity row
    both, diff = m1 & m2, m1 ^ m2
    face = _face(cloud, m1, m2)

    # the walk visits the face's bits in cloud order, skipping copies of v1
    # and v2.  A candidate u has one possible two-point partner w with
    # u + w = v1 + v2: 1 where both endpoints are, and where exactly one is,
    # 1 just where u is 0
    masks, vecs = cloud.masks, cloud.vecs
    candidates = []
    seen: Dict[int, bytes] = {}
    rest = face
    while rest:
        low = rest & -rest
        rest ^= low
        t = low.bit_length() - 1
        mask = masks[t]
        if mask == m1 or mask == m2:
            continue
        u = vecs[t]
        w = seen.get(both | (diff & ~mask))
        if w is not None:
            return _certified("non-adjacency", {"v1": b1, "v2": b2, "cloud": cloud,
                                                "combination": [(w, _HALF), (u, _HALF)]})
        seen[mask] = u
        candidates.append(u)
    payload = {"v1": b1, "v2": b2, "cloud": cloud, "candidates": tuple(candidates),
               "excluded": _off_face(cloud, _selector(face, len(cloud)))}

    # a face whose vertices are affinely independent is a simplex, and any
    # two vertices of a simplex span an edge of it, so of the polytope too:
    # the replay of the payload without `farkas` is that test
    cert = _certified("adjacency", payload)
    if cert.verified:
        return cert

    # the LP asks for weights x >= 0 on the candidates, summing to 1, and a
    # t >= 0 with sum_u x_u u = t v1 + (1 - t) v2: on a support coordinate j,
    # where v1 and v2 differ, sum_u x_u u_j + (v2_j - v1_j) t = v2_j.  Support
    # coordinates often repeat a row; equal rows are one equality, so the LP
    # keeps the first of each and the Farkas vector is 0 on the repeats
    support = [j for j, (a, b) in enumerate(zip(b1, b2)) if a != b]
    first: Dict[Tuple[int, ...], int] = {}
    for r, j in enumerate(support):
        first.setdefault((*[u[j] for u in candidates], b2[j]), r)
    lp_rows = [(*row[:-1], 2 * row[-1] - 1) for row in first]
    lp_rows.append((1,) * len(candidates) + (0,))
    rhs = [row[-1] for row in first] + [1]
    m, n = len(lp_rows), len(candidates) + 1
    limits.check("LP_MAX", max(m, n), f"LP of size {m}x{n}")
    x, y = _solve_phase1(lp_rows, rhs)

    if x is not None:
        combo = [(u, xu) for u, xu in zip(candidates, x) if xu]
        return _certified("non-adjacency", {"v1": b1, "v2": b2, "cloud": cloud,
                                            "combination": combo})

    farkas = [0] * len(support) + [y[-1]]
    for r, yr in zip(first.values(), y):
        farkas[r] = yr
    return _certified("adjacency", dict(payload, farkas=tuple(farkas)))


def _certified(kind: str, payload: dict) -> Certificate:
    """A certificate whose verified flag is the replay of its own payload."""
    return Certificate(kind, payload, _REPLAY[kind](payload))


# --- affine rank --------------------------------------------------------

def affine_dimension(cloud) -> int:
    """Exact affine dimension of a point cloud or a `VertexCloud` over the rationals."""
    vecs = list(cloud.vecs if isinstance(cloud, VertexCloud) else cloud)
    # bytes, such as imset bits, already read as ints; a cloud of anything
    # else becomes int tuples, so `_affine_rank`'s sort compares like with like
    if not all(type(v) is bytes for v in vecs):
        vecs = [_vec(v) for v in vecs]
    return _rank(vecs)


def _rank(vecs: list) -> int:
    """The affine rank of a list of int tuples or of bytes: the oracle's one rank front.

    The refusals come first: an empty cloud, one over RANK_MAX and one of
    mixed lengths.  A cloud of bytes, or of ints that all fit a byte, is
    then ranked mod 2 over the low bits of its entries; a mod-2 rank of
    min(N - 1, d) is the rank (`_rank_mod2`).  Where it falls short, a 0/1
    cloud's quotient drops each constant column and each column equal to an
    earlier one or to its complement: their difference columns are zero,
    copies or negated copies, so neither rank moves, and a mod-2 rank of
    min(N - 1, d') for the d' columns kept is the rank; being short of
    N - 1 already, it can only be d'.  A quotient that still falls short,
    or a cloud with an entry outside 0/1, takes `_affine_rank`.
    """
    if not vecs:
        raise DomainError("affine dimension of an empty cloud is undefined")
    ambient = len(vecs[0])
    limits.check("RANK_MAX", max(len(vecs), ambient), f"cloud of {len(vecs)} x {ambient}")
    # checked before any row is built: vectors of other lengths would shift
    # the entries of the rows built beside them
    if set(map(len, vecs)) != {ambient}:
        raise DomainError("cloud vectors have mixed lengths")
    full = min(len(vecs) - 1, ambient)
    if full == 0:
        return 0
    if type(vecs[0]) is not bytes:
        try:
            vecs = [bytes(v) for v in vecs]
        except ValueError:
            return _affine_rank(vecs)  # an entry outside 0..255
    masks = _low_bits(vecs, ambient)
    rank = _rank_mod2(next(masks), masks, full)
    if rank == full:
        return full
    if _zero_one(vecs, ambient) is None:
        return _affine_rank(vecs)  # an entry above 1, whose complement is no column
    # a 0/1 column keyed by its difference to vertex 0's entry: a constant
    # column keys 0, and a copy or a complement of a column keys as it does
    ones = (1 << len(vecs)) - 1
    kept: Dict[int, int] = {}
    for j, column in enumerate(_columns(vecs, ambient)):
        kept.setdefault(column ^ ones if column & 1 else column, j)
    kept.pop(0, None)
    if rank == len(kept):
        return rank
    return _affine_rank([bytes(map(v.__getitem__, kept.values())) for v in vecs])


# The mod-2 masks, and the transposed column blocks, are packed this many
# cells at a time (at least one row), so the transient arrays stay small up
# to RANK_MAX.
_RANK_BLOCK_CELLS = 1 << 16


def _low_bits(vecs: List[bytes], ambient: int):
    """Each vector's entries mod 2 as a bitmask with bit j for coordinate j, packed a block at a time."""
    step = max(1, _RANK_BLOCK_CELLS // ambient)
    for start in range(0, len(vecs), step):
        block = vecs[start:start + step]
        bits = np.frombuffer(b"".join(block), dtype=np.uint8).reshape(len(block), ambient) & 1
        yield from map(_mask, np.packbits(bits, axis=1, bitorder="little"))


def _rank_mod2(base: int, masks, stop: int) -> int:
    """The rank over GF(2) of the vectors of `masks` less `base`, counted up to `stop`.

    A bitmask holds a vector's entries mod 2, one bit per coordinate in any
    one layout, so u - b mod 2 is u XOR b.  Each difference is reduced
    against a basis keyed by its top bit, and the walk stops once the rank
    reaches `stop`.  An odd integer is nonzero, so a minor of the integer
    differences that is nonzero mod 2 is nonzero: their rank over the
    rationals is at least this one.  So independence mod 2, a rank equal to
    the number of masks, proves affine independence over the rationals.  A
    lower rank proves nothing.
    """
    basis: Dict[int, int] = {}
    for mask in masks:
        x = mask ^ base
        while x:
            top = x.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = x
                if len(basis) == stop:
                    return stop
                break
            x ^= b
    return len(basis)


def _affine_rank(vecs: list) -> int:
    """The exact affine rank of a nonempty cloud that `_rank` has checked,
    of vectors of one length d >= 1: bytes, or int tuples, which it reorders.

    The vectors are taken sparsest first, by their number of nonzero
    entries: the sparsest becomes the base point, so the difference rows
    stay sparse and the cost does not depend on the order of the cloud.
    Each difference row is a dict of its nonzero entries, Python ints that
    cannot wrap.  While the basis holds a row pivoted at the row's lowest
    column, the row is reduced by it: a unit basis row just deletes that
    column, and any other is subtracted, cross-multiplied when its pivot
    does not divide the row's entry, and the result divided by the gcd of
    its entries.  A row that keeps a nonzero entry joins the basis under
    its lowest column, and the walk stops at full rank.
    """
    ambient = len(vecs[0])
    vecs.sort(key=lambda v: (ambient - v.count(0), v))
    base = vecs[0]
    # pivot column -> (pivot entry, the row's other entries)
    basis: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for v in islice(vecs, 1, None):
        r = dict(compress(enumerate(map(operator.sub, v, base)), map(operator.ne, v, base)))
        while r:
            c = min(r)
            pivot = basis.get(c)
            if pivot is None:
                basis[c] = (r.pop(c), r)
                if len(basis) == ambient:
                    return ambient
                break
            bc, rest = pivot
            rc = r.pop(c)
            if not rest:
                continue
            q, m = divmod(rc, bc)
            if m:
                r = {j: x * bc for j, x in r.items()}
                q = rc
            for j, x in rest.items():
                y = r.get(j, 0) - q * x
                if y:
                    r[j] = y
                else:
                    del r[j]
            g = math.gcd(*r.values())
            if g > 1:
                r = {j: x // g for j, x in r.items()}
    return len(basis)


# --- facet verification -------------------------------------------------

def oracle_facet_check(sys_row, cloud) -> Certificate:
    """Certify one candidate facet row against a full block vertex cloud.

    sys_row is (s, coefficients) with the constant first and the remaining
    coefficients in the block's graded-lex coordinate order.  The row is a
    facet when it is nonnegative on every vertex, positive only at the
    vertex whose parent set is s, and the vertices are affinely independent.
    The cloud is a `VertexCloud`, ranked once for all its rows, or any
    iterable of 0/1 vectors; the payload's `cloud` is that `VertexCloud`.
    A cloud of fewer than two vertices, or an s that is not an int in the
    ground set range(k) of the cloud's block, is refused with a `DomainError`.
    """
    s, coeffs = sys_row
    cloud = _as_cloud(cloud)
    vertex = _facet_vertex(s, cloud.vecs, len(coeffs))
    coeffs = _integers(tuple(coeffs), f"facet row {s}", "coefficient")
    verified, failing = _facet_verdict(coeffs, cloud, vertex)
    return Certificate("facet", {"s": s, "coefficients": coeffs, "cloud": cloud,
                                 "failing": failing}, verified)


def _facet_vertex(s, vecs: Sequence[bytes], ncoeffs: int) -> bytes:
    """The block vertex whose parent set is s, the one vertex off a facet row of s.

    A block over k elements has vertices of 2**k - 1 entries and rows of 2**k
    coefficients; the cloud's vertices have one width.  A cloud of fewer than
    two vertices, which has no facets, any other width, or an s that is not
    an int in range(k) is a `DomainError`.
    """
    if len(vecs) < 2:
        raise DomainError("facet check needs a cloud of at least two vertices, "
                          f"got {len(vecs)}")
    width = len(vecs[0])
    k = (width + 1).bit_length() - 1
    universe = (1 << k) - 1
    if universe != width or ncoeffs != 1 << k:
        raise DomainError("coefficient row and cloud dimensions are inconsistent")
    if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s & ~universe:
        raise DomainError(f"facet row {s} is outside the ground set of {k} elements")
    # t ⊆ s exactly when t & ~s is 0
    return ((_graded_subsets(universe) & ~s) == 0).view(np.uint8).tobytes()


@cache
def _graded_subsets(universe: int) -> np.ndarray:
    """The nonempty subsets of `universe` in graded-lex order, a block's
    coordinates, as a read-only int64 array."""
    subsets = np.fromiter(iter_graded_subsets(universe), dtype=np.int64)
    subsets.flags.writeable = False
    return subsets


def _facet_verdict(coeffs, cloud: VertexCloud, vertex: bytes):
    """(verified, failing) of the facet row `coeffs`, constant first, on the cloud.

    A facet is nonnegative, off the row only at `vertex`, and tight on a set
    of affine dimension len(cloud) - 2.  Once the values pass, the last
    holds exactly when the cloud is a simplex, which `cloud.simplex()`
    decides: a subset of independent vertices is independent, and `vertex`,
    where the affine row is positive, lies off the tight set's hull.  failing
    names the first test to break: the first negative vertex; the first
    vertex off the row, or None when none is; "tight-set-rank".  It is None
    on success.

    The row is first divided by the gcd of its entries, which keeps every
    value's sign.  With bound = |c0| + Σ|cj| every vertex value lies in
    [-bound, bound], so in lanes of W >= w bytes, 2·bound < 256**w, the one
    big int total = (c0 + bound)·ONES + Σ cj·Lj over the nonzero cj, with
    the cloud's `lanes(w)` at its W, holds value_t + bound in lane t
    exactly, with no carry whatever the partial sums.  The values pass
    exactly when lane p of p = cloud.index[vertex] exceeds bound and total,
    that one lane put back to bound, is bound·ONES.  Otherwise the lanes are
    read back and scanned in cloud order for the failing vertex: a negative
    vertex, several vertices off the row, or `vertex` absent or repeated.
    The cost follows the row's nonzero coefficients, exact for any ints.
    """
    g = math.gcd(*coeffs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
    const, linear = coeffs[0], coeffs[1:]
    bound = abs(const) + sum(map(abs, linear))
    w, ones, columns = cloud.lanes(max(1, ((2 * bound).bit_length() + 7) // 8))
    total = (const + bound) * ones + sum(map(operator.mul, compress(linear, linear),
                                             compress(columns, linear)))
    at = cloud.index.get(vertex)
    lane = -1 if at is None else total >> 8 * w * at & (1 << 8 * w) - 1
    if lane <= bound or total - (lane - bound << 8 * w * at) != bound * ones:
        vals = _lane_values(total, w, bound, len(cloud))
        vecs = cloud.vecs
        if min(vals) < 0:
            # the first negative vertex, as a scan in cloud order meets it
            return False, next(compress(vecs, map((0).__gt__, vals)))
        off = list(compress(vecs, vals))
        if len(off) != 1 or off[0] != vertex:
            return False, off[0] if off else None
    if not cloud.simplex():
        return False, "tight-set-rank"
    return True, None


def _lane_values(total: int, w: int, bound: int, n: int) -> List[int]:
    """The n values whose lanes of w bytes in `total` hold value + bound."""
    raw = total.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i:i + w], "little") - bound for i in range(0, len(raw), w)]


# --- brute-force learning ----------------------------------------------

def learn_bruteforce(spec: FamilySpec, table) -> ParentMap:
    """Exhaustively score every family member; ties keep the earliest graph."""
    from .scoring import table_graph_score

    size = spec.family_size()
    limits.check("BRUTEFORCE_MAX", size, f"family of {size} members")
    return max(enumerate_family(spec), key=partial(table_graph_score, table))
