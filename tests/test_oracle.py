import ast
import dataclasses
import hashlib
import math
import operator
import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cimset.oracle
from cimset.errors import DegeneratePairError, DomainError
from cimset.geometry import (affine_dimension_formula, are_neighbors, facet_matrix,
                             lemma32_witness, vertex_block_vector, witness_block_value)
from cimset.graphs import FamilySpec, NodeOrdering, diagnosis_family, enumerate_family
from cimset.imsets import characteristic_imset, coordinate_index
from cimset.oracle import (Certificate, VertexCloud, _solve_phase1, affine_dimension,
                           learn_bruteforce, oracle_adjacent, oracle_facet_check)
from cimset.scoring import ScoreTable
from cimset.subsets import iter_submasks
from test_acceptance import _example_47_family
from test_graphs import family_specs


# --- exact simplex -------------------------------------------------------
#
# The solver takes one form, {x >= 0 : Ax = b} with A integer and b >= 0
# integer; its only caller is the adjacency LP.

def _assert_solves(rows, rhs, x, farkas):
    """x is a point of {x >= 0 : Ax = b}, or else farkas refutes the system."""
    assert (x is None) != (farkas is None)
    if x is not None:
        assert len(x) == len(rows[0]) and all(type(v) is Fraction and v >= 0 for v in x)
        assert [sum(map(operator.mul, row, x)) for row in rows] == list(rhs)
        return
    assert all(type(y) is int for y in farkas) and math.gcd(*farkas) == 1
    for col in zip(*rows):
        assert sum(map(operator.mul, farkas, col)) <= 0
    assert sum(map(operator.mul, farkas, rhs)) > 0


def test_solver_hand_cases():
    # x0 + x1 = 4 and x0 - x1 = 1 meet at one point
    rows, rhs = [[1, 1], [1, -1]], [4, 1]
    assert _solve_phase1(rows, rhs) == ((Fraction(5, 2), Fraction(3, 2)), None)
    # x0 = 1 and x0 = 2 cannot both hold: the second less the first refutes them
    rows, rhs = [[1], [1]], [1, 2]
    assert _solve_phase1(rows, rhs) == (None, [-1, 1])
    _assert_solves(rows, rhs, *_solve_phase1(rows, rhs))


# (row, right-hand side) pairs over 0 to 4 columns, some rows all zero
_ONE_FORM = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.tuples(st.one_of(st.just([0] * n), st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
              st.integers(0, 3)),
    min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_ONE_FORM)
def test_solver_gives_a_point_or_an_integer_farkas_vector_in_lowest_terms(system):
    rows = [r for r, _ in system]
    rhs = [b for _, b in system]
    _assert_solves(rows, rhs, *_solve_phase1(rows, rhs))


def _pinned_systems():
    """300 seeded systems in the solver's form, some rows all zero."""
    rng = random.Random(32)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(0, 4)
        rows = [[0] * n if rng.random() < 0.15 else [rng.randint(-3, 3) for _ in range(n)]
                for _ in range(m)]
        yield rows, [rng.randint(0, 3) for _ in range(m)]


def test_solver_answers_are_pinned():
    # every answer, point or Farkas vector, as the solver that also served a
    # general-form front end gave it
    got = [_solve_phase1(*system) for system in _pinned_systems()]
    assert sum(x is None for x, _ in got) == 230
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "d47f7578401bed35e771494a72fefd9a6c716a1376be173dc44c35ba8d1b879a")


# --- adjacency oracle ---------------------------------------------------

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

# Clouds for the pair (cloud[0], cloud[1]).  Its face, the vertices that agree
# with both wherever the two agree, is all but the last vertex, which has a 1
# where both have a 0.  SIMPLEX_FACE's face is a simplex.  The other two faces
# have five vertices in three dimensions, so they are affinely dependent, mod 2
# too, and the LP decides.  In the pyramid over the square z = 0 the pair is an
# edge.  In the bipyramid over the triangle x + y + z = 2 it is not, although
# no convex combination of the other vertices is the midpoint: the segment
# meets the triangle at (2/3, 2/3, 2/3).
SIMPLEX_FACE = [(0, 0, 0, 0), (1, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)]
PYRAMID = [(0, 0, 0, 0), (1, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0),
           (0, 0, 1, 1)]
BIPYRAMID = [(0, 0, 0, 0), (1, 1, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0),
             (0, 0, 1, 1)]


def _lp_calls():
    """A spy on the oracle's exact LP."""
    return mock.patch.object(cimset.oracle, "_solve_phase1", wraps=cimset.oracle._solve_phase1)


def _independent_mod2(b1, b2, candidates):
    """Whether the face's differences from b1 are linearly independent mod 2."""
    rows = [[a ^ b for a, b in zip(u, b1)] for u in (b2, *candidates)]
    return _gf2_rank(rows) == len(rows)


def _gf2_rank(rows):
    """The rank over GF(2) of rows of bits, by elimination on lists."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _assert_lp_route(cert):
    """An LP adjacency payload: a lowest-terms int Farkas vector, one per LP row."""
    v1, v2 = cert.payload["v1"], cert.payload["v2"]
    assert set(cert.payload) == {"v1", "v2", "cloud", "candidates", "excluded", "farkas"}
    assert not _independent_mod2(v1, v2, cert.payload["candidates"])
    # rows only where exactly one endpoint is 1, plus the convexity row
    support = [k for k, (a, b) in enumerate(zip(v1, v2)) if a != b]
    farkas = cert.payload["farkas"]
    assert len(farkas) == len(support) + 1
    assert all(type(y) is int for y in farkas) and math.gcd(*farkas) == 1
    assert all(farkas[t] == 0 for t in _repeated_rows(cert))


def test_square_diagonal_not_adjacent():
    cert = oracle_adjacent((0, 0), (1, 1), SQUARE)
    assert cert.kind == "non-adjacency"
    assert cert.verified
    assert cert.replay()
    lams = dict((tuple(v), lam) for v, lam in cert.payload["combination"])
    assert lams == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}


def test_square_side_adjacent():
    # the side's face is the side itself, a segment, so a simplex: no LP
    with _lp_calls() as lp:
        cert = oracle_adjacent((0, 0), (1, 0), SQUARE)
    assert lp.call_count == 0
    assert cert.kind == "adjacency"
    assert cert.verified
    assert cert.replay()
    assert cert.payload == {"v1": b"\x00\x00", "v2": b"\x01\x00", "cloud": VertexCloud(SQUARE),
                            "candidates": (), "excluded": (b"\x00\x01", b"\x01\x01")}
    # the pyramid's lateral edge lies on a face that is no simplex
    with _lp_calls() as lp:
        cert = oracle_adjacent(PYRAMID[0], PYRAMID[1], PYRAMID)
    assert lp.call_count == 1
    assert cert.kind == "adjacency" and cert.verified and cert.replay()
    assert set(cert.payload) == {"v1", "v2", "cloud", "candidates", "excluded", "farkas"}
    assert cert.payload["candidates"] == tuple(map(bytes, PYRAMID[2:5]))
    assert cert.payload["excluded"] == (bytes(PYRAMID[5]),)


def test_the_simplex_verdict_is_the_replay_of_its_certificate():
    # the face is ranked mod 2 once, by the replay of the payload without
    # `farkas`; on the pyramid that replay fails, and the LP decides
    for cloud, lp_route in ((SIMPLEX_FACE, False), (PYRAMID, True)):
        with _lp_calls() as lp, mock.patch.object(cimset.oracle, "_rank_mod2",
                                                  wraps=cimset.oracle._rank_mod2) as mod2:
            cert = oracle_adjacent(cloud[0], cloud[1], cloud)
        assert cert.kind == "adjacency" and cert.verified
        assert ("farkas" in cert.payload) == lp_route
        assert (mod2.call_count, lp.call_count) == (1, lp_route)


def test_oracle_guards():
    with pytest.raises(DegeneratePairError):
        oracle_adjacent((0, 0), (0, 0), SQUARE)
    with pytest.raises(DomainError):
        oracle_adjacent((0, 0), (2, 2), SQUARE)


@pytest.mark.parametrize("v1, v2, cloud", [
    ((0,), (1,), []),
    ((), (1,), []),
    ((0, 0, 0), (1, 0, 0), SQUARE),
    (b"\x00", b"\x01", SQUARE),
    ((0, 0), (1, 0, 0), SQUARE),
])
def test_queries_off_the_cloud_are_refused(v1, v2, cloud):
    # an empty cloud has no width to read a query at, and a query of another
    # length is no vertex of the cloud
    with pytest.raises(DomainError, match="both query vertices must belong to the cloud"):
        oracle_adjacent(v1, v2, cloud)


def test_vertex_cloud_packs_once():
    cloud = VertexCloud([(0, 0), (True, False), (0, 1), (1, 1), (0, 1)])
    assert cloud.vecs == (b"\x00\x00", b"\x01\x00", b"\x00\x01", b"\x01\x01", b"\x00\x01")
    # one byte per coordinate: coordinate j is bit 8j
    assert cloud.masks == (0x000, 0x001, 0x100, 0x101, 0x100)
    assert cloud.index == {b"\x00\x00": 0, b"\x01\x00": 1, b"\x00\x01": 2, b"\x01\x01": 3}
    assert len(cloud) == 5
    # one bitset per coordinate: vertex t is bit t
    assert cloud.columns() == (0b01010, 0b11100)


@pytest.mark.parametrize("cloud, match", [
    ([(2, 0), (0, 2), (2, 2), (0, 0)], r"cloud vertex 0 \(2, 0\) is not a 0/1"),
    ([(0, 0), (1, 0), (0, 1), (1, Fraction(1, 2))], "cloud vertex 3 .* is not a 0/1"),
    ([(0, 0), (1, 0), (0, 1), (1, 0.5)], "cloud vertex 3 .* is not a 0/1"),
    ([(0, 0), (1, 0), (0, -1)], "cloud vertex 2 .* is not a 0/1"),
    ([(0, 0), (1, 0), (1,)], "cloud vertex 2 has 1 coordinates, vertex 0 has 2"),
    ([(0, 0), (1, 0), (0, 1, 1)], "cloud vertex 2 has 3 coordinates"),
])
def test_oracle_refuses_clouds_outside_the_01_domain(cloud, match):
    with pytest.raises(DomainError, match=match):
        VertexCloud(cloud)
    with pytest.raises(DomainError, match=match):
        oracle_adjacent(cloud[0], cloud[1], cloud)


def test_facet_check_refuses_clouds_outside_the_01_domain():
    with pytest.raises(DomainError, match="cloud vertex 1"):
        oracle_facet_check((0, [1, 0]), [(0,), (2,)])
    with pytest.raises(DomainError, match="cloud vertex 1 has 2 coordinates"):
        oracle_facet_check((0, [1, 0]), [(0,), (1, 0)])


def test_oracle_matches_combinatorial_rule():
    spec = diagnosis_family(2, 2)
    idx = coordinate_index(spec)
    members = list(enumerate_family(spec))
    cloud = [characteristic_imset(g, idx).bits for g in members]
    for (i, g1), (j, g2) in combinations(list(enumerate(members)), 2):
        cert = oracle_adjacent(cloud[i], cloud[j], cloud)
        assert cert.verified
        assert (cert.kind == "adjacency") == are_neighbors(g1, g2, spec)


def _filter_by_definition(b1, b2, vecs):
    """Candidates and excluded vertices, computed coordinate by coordinate."""
    candidates, excluded = [], []
    for u in vecs:
        if u in (b1, b2):
            continue
        vanishes = all(u[j] == 0 for j in range(len(u)) if b1[j] + b2[j] == 0)
        shares = all(u[j] == 1 for j in range(len(u)) if b1[j] + b2[j] == 2)
        (candidates if vanishes and shares else excluded).append(u)
    return tuple(candidates), tuple(excluded)


@settings(max_examples=60, deadline=None)
@given(family_specs(), st.data())
def test_packed_oracle_on_random_families(spec, data):
    # coordinate geometry covers uncapped families only
    spec = dataclasses.replace(spec, max_parents=None)
    assume(2 <= spec.family_size() <= 64)
    idx = coordinate_index(spec)
    members = list(enumerate_family(spec))
    vecs = [tuple(characteristic_imset(g, idx).bits) for g in members]
    cloud = VertexCloud(vecs)
    size = len(members)
    for _ in range(3):
        i = data.draw(st.integers(0, size - 1))
        j = (i + data.draw(st.integers(1, size - 1))) % size
        cert = oracle_adjacent(vecs[i], vecs[j], cloud)
        raw = oracle_adjacent(vecs[i], vecs[j], vecs)
        assert (cert.kind, cert.payload) == (raw.kind, raw.payload)
        assert cert.verified and cert.replay()
        assert (cert.kind == "adjacency") == are_neighbors(members[i], members[j], spec)
        candidates, excluded = _filter_by_definition(vecs[i], vecs[j], vecs)
        if cert.kind == "adjacency":
            assert cert.payload["candidates"] == tuple(map(bytes, candidates))
            assert cert.payload["excluded"] == tuple(map(bytes, excluded))
            # in a product of simplices an edge's face lies in one factor, a
            # simplex: no Farkas vector; _assert_lp_route pins the LP route
            assert _independent_mod2(vecs[i], vecs[j], candidates)
            assert set(cert.payload) == {"v1", "v2", "cloud", "candidates", "excluded"}
        else:
            assert all(tuple(u) in candidates for u, _ in cert.payload["combination"])


def _lp_adjacent(b1, b2, vecs):
    """Adjacency decided by the LP alone, on every coordinate and every other vertex.

    b1b2 is an edge exactly when no point t b1 + s b2 (t, s >= 0, t + s = 1)
    is a convex combination of the other vertices.
    """
    others = [u for u in vecs if u not in (b1, b2)]
    rows = [[*(u[j] for u in others), -b1[j], -b2[j]] for j in range(len(b1))]
    rows += [[1] * len(others) + [0, 0], [0] * len(others) + [1, 1]]
    # already the solver's one form: integer equality rows, b >= 0.  The
    # name imported above is not the one `_lp_calls()` patches, so this
    # reference is never counted as an oracle call
    return _solve_phase1(rows, [0] * len(b1) + [1, 1])[0] is None


@settings(max_examples=60, deadline=None)
@given(family_specs(), st.data())
def test_two_point_witnesses_agree_with_the_lp(spec, data):
    # coordinate geometry covers uncapped families only
    spec = dataclasses.replace(spec, max_parents=None)
    assume(2 <= spec.family_size() <= 64)
    idx = coordinate_index(spec)
    vecs = [tuple(characteristic_imset(g, idx).bits) for g in enumerate_family(spec)]
    cloud = VertexCloud(vecs)
    size = len(vecs)
    for _ in range(3):
        i = data.draw(st.integers(0, size - 1))
        j = (i + data.draw(st.integers(1, size - 1))) % size
        with _lp_calls() as lp:
            cert = oracle_adjacent(vecs[i], vecs[j], cloud)
        assert (cert.kind == "adjacency") == _lp_adjacent(vecs[i], vecs[j], vecs)
        assert cert.verified and cert.replay()
        # in a product of simplices an edge's face lies in one factor, a
        # simplex, so its rank certifies it, and swapping one differing block
        # gives every non-edge a partner: the LP never runs
        assert lp.call_count == 0
        if cert.kind == "non-adjacency":
            (w, lam_w), (u, lam_u) = cert.payload["combination"]
            assert lam_w == lam_u == Fraction(1, 2)
            assert list(map(operator.add, w, u)) == list(map(operator.add, vecs[i], vecs[j]))


def test_lp_decides_a_non_adjacent_pair_without_a_two_point_witness():
    # the midpoint of 0000 and 1111 needs all four other vertices at 1/4,
    # and no two of them sum to 1111
    cloud = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0),
             (1, 1, 0, 1)]
    assert not _lp_adjacent(cloud[0], cloud[1], cloud)
    with _lp_calls() as lp:
        cert = oracle_adjacent(cloud[0], cloud[1], cloud)
    assert lp.call_count == 1
    assert cert.kind == "non-adjacency" and cert.verified and cert.replay()
    assert dict(cert.payload["combination"]) == {bytes(u): Fraction(1, 4) for u in cloud[2:]}


def test_lp_finds_a_non_edge_whose_segment_misses_the_midpoint():
    # no combination of the bipyramid's other vertices is the midpoint of
    # 0000 and 1110, but a third of each of the triangle's is 2/3 of the way
    with _lp_calls() as lp:
        cert = oracle_adjacent(BIPYRAMID[0], BIPYRAMID[1], BIPYRAMID)
    assert lp.call_count == 1
    assert not _lp_adjacent(BIPYRAMID[0], BIPYRAMID[1], BIPYRAMID)
    assert cert.kind == "non-adjacency" and cert.verified and cert.replay()
    assert dict(cert.payload["combination"]) == {bytes(u): Fraction(1, 3)
                                                 for u in BIPYRAMID[2:5]}
    # a combination off the segment's line proves nothing
    skew = [(BIPYRAMID[2], Fraction(1, 2)), (BIPYRAMID[3], Fraction(1, 4)),
            (BIPYRAMID[4], Fraction(1, 4))]
    assert not _with_combination(cert, skew).replay()
    beside = {"v1": (0, 0, 0), "v2": (1, 1, 0), "cloud": [(0, 0, 0), (1, 1, 0), (0, 0, 1)],
              "combination": [((0, 0, 1), Fraction(1))]}
    assert not Certificate("non-adjacency", beside, False).replay()
    # (1, 1, 1, -2) passes every check of a Farkas vector but the one on the
    # column of t: it shows only that t >= 1/3, and the centroid is at t = 1/3
    forged = {"v1": BIPYRAMID[0], "v2": BIPYRAMID[1], "cloud": BIPYRAMID,
              "candidates": tuple(BIPYRAMID[2:5]), "excluded": (bytes(BIPYRAMID[5]),),
              "farkas": (1, 1, 1, -2)}
    assert not Certificate("adjacency", forged, False).replay()


def _repeated_rows(cert):
    """Positions of an adjacency certificate's LP rows that repeat an earlier row.

    A row is its pattern over the candidates and v2's entry, which sets
    both t's coefficient and the right-hand side.
    """
    v1, v2, candidates = cert.payload["v1"], cert.payload["v2"], cert.payload["candidates"]
    rows = [(*(u[j] for u in candidates), v2[j]) for j in range(len(v1)) if v1[j] != v2[j]]
    return [t for t, row in enumerate(rows) if row in rows[:t]]


# 0/1 clouds whose coordinates repeat: distinct vectors over k columns,
# widened by copying columns, so LP rows repeat and the LP decides both ways
_REPEATING_CLOUDS = st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 1)] * k), min_size=2, max_size=12, unique=True),
    st.lists(st.integers(0, k - 1), max_size=2 * k))).map(
    lambda case: [tuple(v[c] for c in [*range(len(v)), *case[1]]) for v in case[0]])


def _has_two_point_witness(b1, b2, candidates):
    target = tuple(map(operator.add, b1, b2))
    return any(tuple(map(operator.add, u, w)) == target for u, w in combinations(candidates, 2))


@settings(max_examples=200, deadline=None)
@given(_REPEATING_CLOUDS, st.data())
def test_adjacency_lp_on_distinct_rows_agrees_with_the_full_lp(cloud, data):
    i, j = data.draw(st.lists(st.integers(0, len(cloud) - 1), min_size=2, max_size=2,
                              unique=True))
    b1, b2 = cloud[i], cloud[j]
    with _lp_calls() as lp:
        cert = oracle_adjacent(b1, b2, cloud)
    assert (cert.kind == "adjacency") == _lp_adjacent(b1, b2, cloud)
    assert cert.verified and cert.replay()
    # the LP runs exactly when the face is dependent mod 2 and the walk found
    # no two-point witness, itself a dependence: u + w - v1 - v2 = 0
    candidates, _ = _filter_by_definition(b1, b2, cloud)
    simplex = _independent_mod2(b1, b2, candidates)
    walked = _has_two_point_witness(b1, b2, candidates)
    assert not (simplex and walked)
    assert lp.call_count == (not simplex and not walked)
    if cert.kind == "adjacency":
        assert ("farkas" in cert.payload) == (not simplex)
        if not simplex:
            _assert_lp_route(cert)
            negated = tuple(-y for y in cert.payload["farkas"])
            assert not Certificate("adjacency", dict(cert.payload, farkas=negated),
                                   False).replay()


# 0/1 clouds drawn from a few vectors, so vertices repeat, copies of the pair
# included; widths and sizes run past multiples of 8, where a packed column
# and the face's bitset cross a byte
_CLOUDS_WITH_COPIES = st.integers(1, 11).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 1)] * d), min_size=2, max_size=6, unique=True)).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=21))


def _first_two_point_witness(b1, b2, candidates):
    """The first candidate u, in cloud order, with an earlier w where u + w = b1 + b2."""
    target = tuple(map(operator.add, b1, b2))
    for k, u in enumerate(candidates):
        for w in candidates[:k]:
            if tuple(map(operator.add, u, w)) == target:
                return w, u
    return None


@settings(max_examples=300, deadline=None)
@given(_CLOUDS_WITH_COPIES, st.data())
def test_the_face_walk_matches_a_walk_over_every_vertex(cloud, data):
    assume(len(set(cloud)) >= 2)
    i = data.draw(st.integers(0, len(cloud) - 1))
    j = data.draw(st.sampled_from([t for t, u in enumerate(cloud) if u != cloud[i]]))
    b1, b2 = cloud[i], cloud[j]
    with _lp_calls() as lp:
        cert = oracle_adjacent(b1, b2, cloud)
    assert cert.verified and cert.replay()
    assert (cert.kind == "adjacency") == _lp_adjacent(b1, b2, cloud)
    # the replay reads the payload's cloud, and packs one of int tuples
    assert Certificate(cert.kind, dict(cert.payload, cloud=cloud), False).replay()
    candidates, excluded = _filter_by_definition(b1, b2, cloud)
    witness = _first_two_point_witness(b1, b2, candidates)
    simplex = _independent_mod2(b1, b2, candidates)
    if witness is not None:
        half = Fraction(1, 2)
        assert cert.payload["combination"] == [(bytes(witness[0]), half),
                                               (bytes(witness[1]), half)]
    elif cert.kind == "adjacency":
        assert cert.payload["candidates"] == tuple(map(bytes, candidates))
        assert cert.payload["excluded"] == tuple(map(bytes, excluded))
    # the LP runs on exactly the faces that are no simplex mod 2 and have no
    # two-point witness
    assert lp.call_count == (witness is None and not simplex)


# the Baseline examples: the square's diagonal and a cloud that holds
# neither vector of the square's two-point witness
_SQUARE_3 = [(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)]


def test_an_adjacency_payload_replays_only_against_its_cloud():
    bare = {"v1": b"\0\0\0", "v2": b"\1\1\0", "candidates": (), "excluded": ()}
    assert not Certificate("adjacency", bare, False).replay()
    # 100 and 010 lie on the diagonal's face, so () leaves them out
    assert not Certificate("adjacency", dict(bare, cloud=_SQUARE_3), False).replay()
    assert not Certificate("adjacency", dict(bare, cloud=VertexCloud(_SQUARE_3)), False).replay()
    # a pair that is no pair of cloud vertices
    side = oracle_adjacent((0, 0), (1, 0), SQUARE)
    assert side.kind == "adjacency" and side.replay()
    assert not Certificate("adjacency", dict(side.payload, v2=(1, 1)), False).replay()
    assert not Certificate("adjacency", dict(side.payload, cloud=SQUARE[:1] + SQUARE[2:]),
                           False).replay()


def test_a_non_adjacency_payload_replays_only_against_its_cloud():
    combo = [((1, 0, 0), Fraction(1, 2)), ((0, 1, 0), Fraction(1, 2))]
    payload = {"v1": (0, 0, 0), "v2": (1, 1, 0), "combination": combo}
    assert Certificate("non-adjacency", dict(payload, cloud=_SQUARE_3), False).replay()
    assert not Certificate("non-adjacency", payload, False).replay()
    other = [(0, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert not Certificate("non-adjacency", dict(payload, cloud=other), False).replay()
    # one vector of the combination outside the cloud is enough
    assert not Certificate("non-adjacency", dict(payload, cloud=_SQUARE_3[:3]), False).replay()
    # and so is an endpoint outside it
    assert not Certificate("non-adjacency", dict(payload, cloud=_SQUARE_3[1:]), False).replay()


@pytest.mark.parametrize("cloud, lp_route", [(SIMPLEX_FACE, False), (PYRAMID, True)])
def test_the_adjacency_replay_checks_the_face_against_the_cloud(cloud, lp_route):
    cert = oracle_adjacent(cloud[0], cloud[1], cloud)
    p = cert.payload
    assert cert.kind == "adjacency" and cert.replay() and ("farkas" in p) == lp_route
    assert p["candidates"] and p["excluded"]
    # a face vertex left out of the candidates, kept or not among the excluded
    for u in p["candidates"]:
        rest = tuple(c for c in p["candidates"] if c != u)
        assert not Certificate("adjacency", dict(p, candidates=rest), False).replay()
        assert not Certificate("adjacency", dict(p, candidates=rest, excluded=(*p["excluded"], u)),
                               False).replay()
    # an off-face vertex added to the candidates, dropped from the excluded or not
    off = p["excluded"][0]
    added = (*p["candidates"], off)
    assert not Certificate("adjacency", dict(p, candidates=added), False).replay()
    assert not Certificate("adjacency", dict(p, candidates=added, excluded=p["excluded"][1:]),
                           False).replay()
    # excluded vertices that are not the cloud's off-face vertices in cloud order
    for excluded in ((*p["excluded"], p["v2"]), (), p["excluded"][::-1] + (p["v1"],),
                     tuple(map(tuple, p["excluded"]))):
        assert not Certificate("adjacency", dict(p, excluded=excluded), False).replay()
    # candidates out of cloud order
    assert not Certificate("adjacency", dict(p, candidates=p["candidates"][::-1]),
                           False).replay()


def test_the_adjacency_replay_reads_no_more_vectors_than_the_face():
    # pairs of diagnosis(8, 1) whose faces run from the two endpoints, with
    # the other 254 members excluded, to the whole cloud: the replay reads
    # v1, v2 and the candidates, and no excluded vertex one by one
    spec = diagnosis_family(8, 1)
    idx = coordinate_index(spec)
    members = list(enumerate_family(spec))
    cloud = VertexCloud([characteristic_imset(g, idx).bits for g in members])
    for i, j in ((0, 1), (0, 255), (3, 200)):
        cert = oracle_adjacent(cloud.vecs[i], cloud.vecs[j], cloud)
        assert cert.kind == "adjacency" and are_neighbors(members[i], members[j], spec)
        with mock.patch.object(cimset.oracle, "_zero_one", wraps=cimset.oracle._zero_one) as spy:
            assert cert.replay()
        seen = sum(len(call.args[0]) for call in spy.call_args_list)
        assert seen <= len(cert.payload["candidates"]) + 2
        assert len(cert.payload["excluded"]) + len(cert.payload["candidates"]) == 254


def _as_tuples(payload):
    """An adjacency or non-adjacency payload with its cloud a list of int tuples,
    and every vector an int tuple but those of `excluded`: the replay compares
    `excluded` with the cloud's own bytes and reads nothing else from it."""
    out = dict(payload, v1=tuple(payload["v1"]), v2=tuple(payload["v2"]),
               cloud=list(map(tuple, payload["cloud"].vecs)))
    if "candidates" in payload:
        out["candidates"] = tuple(map(tuple, payload["candidates"]))
    if "combination" in payload:
        out["combination"] = [(tuple(u), lam) for u, lam in payload["combination"]]
    return out


@settings(max_examples=200, deadline=None)
@given(_REPEATING_CLOUDS, st.data())
def test_one_vertex_form_for_tuple_bytes_and_vertex_cloud_queries(cloud, data):
    # the oracle reads every 0/1 vertex as bytes, so int tuples, bytes and a
    # VertexCloud give one certificate; its vectors are bytes, and as int
    # tuples they still replay
    i, j = data.draw(st.lists(st.integers(0, len(cloud) - 1), min_size=2, max_size=2,
                              unique=True))
    packed = [bytes(v) for v in cloud]
    cert = oracle_adjacent(cloud[i], cloud[j], cloud)
    assert cert == oracle_adjacent(packed[i], packed[j], packed)
    assert cert == oracle_adjacent(cloud[i], cloud[j], VertexCloud(cloud))
    assert cert.verified and cert.payload["v1"] == packed[i]
    converted = _as_tuples(cert.payload)
    assert converted["v1"] == cloud[i] and converted["v2"] == cloud[j]
    assert Certificate(cert.kind, converted, False).replay()


# the pyramid with coordinates 0 and 2 copied; coordinate 3 is no LP row,
# so LP rows 3 and 4 repeat rows 0 and 2
_WIDE_PYRAMID = [(*v, v[0], v[2]) for v in PYRAMID]


def test_adjacency_lp_keeps_one_row_per_distinct_pattern():
    # over the candidates 1000, 1100 and 0100, coordinates 0 and 4 are one row
    # and so are 2 and 5; reversed, t enters each row with the other sign
    for i, j, sign, b in ((0, 1, 1, 1), (1, 0, -1, 0)):
        with _lp_calls() as lp:
            cert = oracle_adjacent(_WIDE_PYRAMID[i], _WIDE_PYRAMID[j], _WIDE_PYRAMID)
        assert lp.call_count == 1
        (rows, rhs), _ = lp.call_args
        assert [list(r) for r in rows] == [[1, 1, 0, sign], [0, 1, 1, sign],
                                           [0, 0, 0, sign], [1, 1, 1, 0]]
        assert list(rhs) == [b, b, b, 1]
        assert cert.kind == "adjacency" and cert.verified and cert.replay()
        _assert_lp_route(cert)
        farkas = cert.payload["farkas"]
        assert len(farkas) == 6 and _repeated_rows(cert) == [3, 4]
        # equal rows with equal right-hand sides take any split of one multiplier
        y0 = farkas[0]
        assert y0
        for split in ((0, y0), (-y0, 2 * y0), (y0, 0)):
            moved = (split[0], *farkas[1:3], split[1], *farkas[4:])
            assert Certificate("adjacency", dict(cert.payload, farkas=moved), False).replay()


def _with_combination(cert, combo):
    return Certificate(cert.kind, dict(cert.payload, combination=combo), False)


def test_tampered_certificates_fail_replay():
    cert = oracle_adjacent((0, 0), (1, 1), SQUARE)
    combo = cert.payload["combination"]
    assert not _with_combination(cert, [(v, lam / 2) for v, lam in combo]).replay()
    (u, lam), *rest = combo
    assert not _with_combination(cert, [(u, -lam), *rest]).replay()
    # doubled weights sum to 2
    assert not _with_combination(cert, [(v, 2 * lam) for v, lam in combo]).replay()
    # weight 0 on v1 leaves the arithmetic valid; naming it is what fails
    assert not _with_combination(cert, [((0, 0), Fraction(0)), *combo]).replay()
    assert not _with_combination(cert, [([0, 0], 0), *combo]).replay()
    assert not _with_combination(cert, [(v, float(lam)) for v, lam in combo]).replay()
    # int and Fraction weights together, over the lcm of their denominators
    assert _with_combination(cert, [((0, 1), 0), *combo]).replay()
    split = [((1, 0), Fraction(1, 4)), ((1, 0), Fraction(1, 4)), ((0, 1), Fraction(1, 2))]
    assert _with_combination(cert, split).replay()

    # in the triangle the diagonal is an edge, with (1, 0) the one candidate
    cert3 = oracle_adjacent((0, 0), (1, 1), [(0, 0), (1, 0), (1, 1)])
    assert cert3.kind == "adjacency" and cert3.replay()
    assert cert3.payload["candidates"] == (b"\x01\x00",)
    moved = dict(cert3.payload, candidates=(), excluded=((1, 0),))
    assert not Certificate("adjacency", moved, False).replay()

    # the LP route
    cert2 = oracle_adjacent(PYRAMID[0], PYRAMID[1], PYRAMID)
    u, *rest = cert2.payload["candidates"]
    moved = dict(cert2.payload, candidates=tuple(rest), excluded=(u, PYRAMID[5]))
    assert not Certificate("adjacency", moved, False).replay()
    short = dict(cert2.payload, farkas=cert2.payload["farkas"][1:])
    assert not Certificate("adjacency", short, False).replay()
    bad_farkas = tuple(-y for y in cert2.payload["farkas"])
    cert2.payload["farkas"] = bad_farkas
    assert not cert2.replay()


_CUBE_3 = [tuple(map(int, f"{i:03b}")) for i in range(8)]


def test_a_combination_over_256_replays_in_two_byte_lanes():
    # 1/256 on 100 and 011 and 127/256 on 010 and 101 reach (1/2, 1/2, 1/2):
    # a denominator of 256 does not fit a byte, so each lane takes two
    combo = [((1, 0, 0), Fraction(1, 256)), ((0, 1, 1), Fraction(1, 256)),
             ((0, 1, 0), Fraction(127, 256)), ((1, 0, 1), Fraction(127, 256))]
    payload = {"v1": (0, 0, 0), "v2": (1, 1, 1), "cloud": _CUBE_3, "combination": combo}
    assert Certificate("non-adjacency", payload, False).replay() is True
    assert _reference_non_adjacency((0, 0, 0), (1, 1, 1), _CUBE_3, combo)
    # 1/256 moved from one vector to another keeps the sum 1 and leaves the segment
    for src, dst in permutations(range(4), 2):
        moved = [(u, lam - Fraction(1, 256) * (k == src) + Fraction(1, 256) * (k == dst))
                 for k, (u, lam) in enumerate(combo)]
        assert sum(lam for _, lam in moved) == 1
        tampered = dict(payload, combination=moved)
        assert Certificate("non-adjacency", tampered, False).replay() is False
    # 255/256 on 10 and 1/256 on 11 put all of den = 256 on coordinate 0,
    # where v1 = 01 and v2 = 00 are 0: in one-byte lanes that 256 would
    # carry into coordinate 1 and read as the point 2/256 v1 + 254/256 v2
    off = [((1, 0), Fraction(255, 256)), ((1, 1), Fraction(1, 256))]
    assert not _reference_non_adjacency((0, 1), (0, 0), SQUARE, off)
    carried = {"v1": (0, 1), "v2": (0, 0), "cloud": SQUARE, "combination": off}
    assert Certificate("non-adjacency", carried, False).replay() is False


def _reference_non_adjacency(v1, v2, cloud, combo):
    """The combination checked coordinate by coordinate in Fractions: weights
    >= 0 summing to 1 on cloud vertices other than v1 and v2, whose sum is
    t v1 + (1 - t) v2 with one t on every coordinate where v1 and v2 differ."""
    vertices = set(map(tuple, cloud))
    if any(tuple(u) not in vertices or tuple(u) in (tuple(v1), tuple(v2)) or lam < 0
           for u, lam in combo) or sum(lam for _, lam in combo) != 1:
        return False
    mix = [sum((Fraction(lam) * u[j] for u, lam in combo), Fraction(0)) for j in range(len(v1))]
    if any(m != a for m, a, b in zip(mix, v1, v2) if a == b):
        return False
    return len({m if a else 1 - m for m, a, b in zip(mix, v1, v2) if a != b}) == 1


@st.composite
def _segment_combinations(draw):
    """(v1, v2, cloud, combination) on a shuffled cube: a combination that
    reaches the segment [v1, v2], or one tampered after it is built.

    In coordinates relative to v1 and v2, each design is the cyclic shifts of
    one pattern over the coordinates where they differ, which is neither v1
    nor v2 there; its equal weights give one value on each of those
    coordinates, and so does any mix of designs.
    """
    d = draw(st.integers(2, 6))
    cloud = draw(st.permutations([tuple(map(int, f"{i:0{d}b}")) for i in range(1 << d)]))
    v1, v2 = draw(st.lists(st.sampled_from(cloud), min_size=2, max_size=2, unique=True))
    support = [j for j in range(d) if v1[j] != v2[j]]
    if len(support) < 2:
        # a single differing coordinate leaves no vector strictly between
        support = []
    den = draw(st.integers(1, 2 ** 20))
    combo = []
    if support:
        m = len(support)
        designs = draw(st.lists(st.integers(1, 2 ** m - 2), min_size=1, max_size=3))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(designs) - 1,
                                    max_size=len(designs) - 1)))
        shares = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        for pattern, share in zip(designs, shares):
            for shift in range(m):
                u = list(v2)
                for r, j in enumerate(support):
                    if pattern >> ((r + shift) % m) & 1:
                        u[j] = v1[j]
                combo.append((tuple(u), Fraction(share, den * m)))
    else:
        combo.append((draw(st.sampled_from(cloud)), Fraction(1)))
    tamper = draw(st.sampled_from(["none", "move", "swap", "negate"]))
    k = draw(st.integers(0, len(combo) - 1))
    u, lam = combo[k]
    if tamper == "move":
        delta = Fraction(1, draw(st.integers(1, 2 ** 20)))
        dst = draw(st.integers(0, len(combo) - 1))
        combo[k] = (u, lam - delta)
        combo[dst] = (combo[dst][0], combo[dst][1] + delta)
    elif tamper == "swap":
        combo[k] = (draw(st.sampled_from(cloud)), lam)
    elif tamper == "negate":
        combo[k] = (u, -lam)
    return v1, v2, cloud, combo


@settings(max_examples=300, deadline=None)
@given(_segment_combinations())
def test_the_lane_identity_agrees_with_the_per_coordinate_rule(case):
    v1, v2, cloud, combo = case
    payload = {"v1": v1, "v2": v2, "cloud": cloud, "combination": combo}
    want = _reference_non_adjacency(v1, v2, cloud, combo)
    assert Certificate("non-adjacency", payload, False).replay() is want
    assert Certificate("non-adjacency", dict(payload, cloud=VertexCloud(cloud)),
                       False).replay() is want


@pytest.mark.parametrize("payload", [
    # the square's diagonal 000-110 is no edge, yet once a candidate's value
    # of exactly 1 passed the Farkas bound on the candidate columns
    {"v1": (0, 0, 0), "v2": (1, 1, 0), "cloud": _SQUARE_3,
     "candidates": ((1, 0, 0), (0, 1, 0)), "excluded": (), "farkas": (0, 0, 1)},
    # the edge 01-10 of the triangle with 11, with multipliers valid on the
    # candidate and the right-hand side but exactly +1 on the t column
    {"v1": (0, 1), "v2": (1, 0), "cloud": [(0, 1), (1, 0), (1, 1)],
     "candidates": ((1, 1),), "excluded": (), "farkas": (0, -1, 1)},
])
def test_a_farkas_bound_met_with_equality_at_one_replays_false(payload):
    assert Certificate("adjacency", payload, False).replay() is False


def test_a_farkas_vector_at_zero_on_the_right_hand_side_replays_false():
    # the zero vector meets both nonpositive bounds; it refutes nothing, as
    # its value on the right-hand side must be positive, not just nonnegative
    payload = {"v1": (0, 1), "v2": (1, 0), "cloud": [(0, 1), (1, 0), (1, 1)],
               "candidates": ((1, 1),), "excluded": ()}
    assert Certificate("adjacency", dict(payload, farkas=(-1, -1, 2)), False).replay() is True
    assert Certificate("adjacency", dict(payload, farkas=(0, 0, 0)), False).replay() is False


@pytest.mark.parametrize("cloud", [SQUARE, SIMPLEX_FACE, PYRAMID[:3] + PYRAMID[5:]])
def test_tampered_rank_certificates_fail_replay(cloud):
    cert = oracle_adjacent(cloud[0], cloud[1], cloud)
    assert cert.kind == "adjacency" and cert.verified and "farkas" not in cert.payload
    p = cert.payload
    face = (p["v1"], p["v2"], *p["candidates"])
    # a 0/1 vertex on the face that is an affine combination of it mod 2:
    # the XOR of three face vertices, or of v1, v2 and v2, which is v1
    three = face[:3] if len(face) >= 3 else (p["v1"], p["v2"], p["v2"])
    extra = tuple(sum(es) % 2 for es in zip(*three))
    dependent = dict(p, candidates=(*p["candidates"], extra))
    assert not Certificate("adjacency", dependent, False).replay()
    for u in p["candidates"]:
        moved = dict(p, candidates=tuple(c for c in p["candidates"] if c != u),
                     excluded=(*p["excluded"], u))
        assert not Certificate("adjacency", moved, False).replay()
    # v2 lies on the face too, so no coordinate forces it off
    both_ends = dict(p, excluded=(*p["excluded"], p["v2"]))
    assert not Certificate("adjacency", both_ends, False).replay()


def test_the_worst_diagnosis_8_1_pair_is_ranked_without_the_lp():
    # the member with no parents against the one with all eight: its face is
    # the whole cloud of 256 vertices, a simplex
    spec = diagnosis_family(8, 1)
    idx = coordinate_index(spec)
    vecs = [characteristic_imset(g, idx).bits for g in enumerate_family(spec)]
    lo = min(vecs, key=sum)
    hi = max(vecs, key=sum)
    assert sum(lo) == 0 and sum(hi) == 255
    with _lp_calls() as lp:
        cert = oracle_adjacent(lo, hi, VertexCloud(vecs))
        assert cert.kind == "adjacency" and cert.verified and cert.replay()
    assert lp.call_count == 0
    assert len(cert.payload["candidates"]) == 254 and cert.payload["excluded"] == ()
    assert "farkas" not in cert.payload


def test_forged_forced_zero_columns_do_not_certify_the_square_diagonal():
    # the replay derives the forced columns from v1 + v2: naming both
    # coordinates as forced zeros once excused both other vertices
    forged = Certificate("adjacency", {
        "v1": (0, 0), "v2": (1, 1), "cloud": SQUARE, "zero_cols": (0, 1), "two_cols": (),
        "candidates": (), "excluded": (b"\x01\x00", b"\x00\x01"), "farkas": (1,)}, False)
    assert not forged.replay()


@pytest.mark.parametrize("payload", [
    # the midpoint (1/2, 1/2, 0) is 1/2 (1, 0, -1) + 1/2 (0, 1, 1), yet the
    # farkas vector refutes every combination of 0/1 candidates
    {"v1": (0, 0, 0), "v2": (1, 1, 0), "cloud": [(0, 0, 0), (1, 1, 0), (0, 1, 1)],
     "candidates": ((1, 0, -1),), "excluded": (b"\x00\x01\x01",), "farkas": (0, 1, 0)},
    {"v1": (0, 0), "v2": (1, 1), "cloud": SQUARE,
     "combination": [((1, -1), Fraction(1, 2)), ((0, 2), Fraction(1, 2))]},
    # a short vector would count its missing coordinate as 0
    {"v1": (0, 0), "v2": (1, 1), "cloud": SQUARE,
     "combination": [((1,), Fraction(1, 2)), ((0, 1), Fraction(1, 2))]},
])
def test_replays_refuse_vectors_that_are_not_01(payload):
    kind = "adjacency" if "farkas" in payload else "non-adjacency"
    assert not Certificate(kind, payload, False).replay()


@pytest.mark.parametrize("vecs, want", [
    ([], True),
    ([(0, 1), (1, 1)], True),
    ([b"\x00\x01", [1, 0]], True),
    ([(np.uint8(1), np.int64(0)), np.array([0, 1])], True),
    # an int64 array's own buffer is 0/1 bytes although 256 is no 0/1 entry
    ([np.array([0, 256])], False),
    # entries equal to 0 or 1 that are no byte take the set check
    ([(0, 1.0), (True, Fraction(1))], True),
    ([(0, 2)], False),
    ([(0, -1)], False),
    ([(0, 256)], False),
    ([(0, 0.5)], False),
    ([(0, Fraction(1, 2))], False),
    ([(0, "1")], False),
    (["01"], False),
    ([b"\x00\x02"], False),
    ([(0, 1), (0,)], False),
])
def test_zero_one_check(vecs, want):
    got = cimset.oracle._zero_one(vecs, 2)
    assert (got is not None) is want
    if want:
        # an accepted vector comes back as bytes, one byte per entry
        assert got == [bytes(int(e) for e in v) for v in vecs]
        assert all(type(v) is bytes for v in got)


@pytest.mark.parametrize("one", [1.0, True, Fraction(1), np.int64(1)])
def test_replays_read_integral_entries_of_any_type(one):
    # one pair on each adjacency route, both with candidates and excluded
    # vertices; `excluded` stays the cloud's own bytes, which the replay
    # compares with the cloud rather than reads
    for cloud, lp_route in ((SIMPLEX_FACE, False), (PYRAMID, True)):
        cert = oracle_adjacent(cloud[0], cloud[1], cloud)
        p = cert.payload
        assert cert.kind == "adjacency" and p["candidates"] and p["excluded"]
        assert ("farkas" in p) == lp_route
        converted = tuple(tuple(one if e else 0 for e in u) for u in p["candidates"])
        assert Certificate("adjacency", dict(p, candidates=converted), False).replay()
        # the conversion keeps the tampering visible
        u, *rest = converted
        moved = dict(p, candidates=tuple(rest), excluded=(*p["excluded"], p["candidates"][0]))
        assert not Certificate("adjacency", moved, False).replay()
    diagonal = oracle_adjacent((0, 0), (1, 1), SQUARE)
    combo = [(tuple(one if e else 0 for e in u), lam) for u, lam in diagonal.payload["combination"]]
    assert _with_combination(diagonal, combo).replay()


@pytest.mark.parametrize("farkas", [
    (-3, 2),  # once replayed True against a one-coordinate support
    (-1, 1),
    (-1, 0, 1, 0),
    (1, 1, 1, -1),
])
def test_adjacency_replay_refuses_a_farkas_of_the_wrong_length(farkas):
    # one multiplier per coordinate where v1 and v2 differ, (0, 1) here, and
    # one for the convexity row
    payload = {"v1": (0, 1), "v2": (1, 0), "cloud": [(0, 1), (1, 0), (1, 1)],
               "candidates": ((1, 1),), "excluded": (), "farkas": (-1, -1, 2)}
    assert Certificate("adjacency", payload, False).replay() is True
    assert Certificate("adjacency", dict(payload, farkas=farkas), False).replay() is False


def test_unknown_certificate_kind():
    assert Certificate("nonsense", {}, False).replay() is False


_PAIR = {"v1": (0, 1), "v2": (1, 0), "cloud": [(0, 1), (1, 0), (1, 1)]}


@pytest.mark.parametrize("kind, payload", [
    # a non-integer vertex (DomainError) or a vertex that is no sequence (TypeError)
    ("facet", {"s": 1, "coefficients": [0, 1], "cloud": [(0,), (0.5,)]}),
    ("facet", {"s": 1, "coefficients": [0, 1], "cloud": [0, 1]}),
    # a candidate that is no vector, a multiplier that is no number, no multipliers
    ("adjacency", dict(_PAIR, candidates=[0], excluded=(), farkas=(1, 1, -1))),
    ("adjacency", dict(_PAIR, candidates=((1, 1),), excluded=(), farkas=(1, "x", 2))),
    # no multipliers on a face that is no simplex, although the pair is an edge
    ("adjacency", {"v1": PYRAMID[0], "v2": PYRAMID[1], "cloud": PYRAMID,
                   "candidates": tuple(PYRAMID[2:5]), "excluded": (bytes(PYRAMID[5]),)}),
    # a combination term without its weight (ValueError), or no list of terms
    ("non-adjacency", dict(_PAIR, combination=[((0, 0),)])),
    ("non-adjacency", dict(_PAIR, combination=5)),
    # a vector that is the int 5, where bytes(5) would be five zeros
    ("adjacency", {"v1": (0,) * 5, "v2": (1,) + (0,) * 4, "cloud": [(0,) * 5, (1,) + (0,) * 4],
                   "candidates": (5,), "excluded": (), "farkas": (1, -1)}),
    ("non-adjacency", {"v1": (0,) * 5, "v2": (1,) * 5, "cloud": [(0,) * 5, (1,) * 5],
                       "combination": [((1,) * 5, Fraction(1, 2)), (5, Fraction(1, 2))]}),
    # no multipliers on the bipyramid's face either, where the pair is no edge
    ("adjacency", {"v1": BIPYRAMID[0], "v2": BIPYRAMID[1], "cloud": BIPYRAMID,
                   "candidates": tuple(BIPYRAMID[2:5]), "excluded": (bytes(BIPYRAMID[5]),)}),
    # float multipliers or coefficients, where the equal ints replay True
    # (test_adjacency_replay_refuses_a_farkas_of_the_wrong_length and
    # test_integral_facet_coefficients_of_any_type_convert)
    ("adjacency", dict(_PAIR, candidates=((1, 1),), excluded=(), farkas=(-1.0, -1.0, 2.0))),
    ("facet", {"s": 0, "coefficients": [1.0, -1.0], "cloud": [(0,), (1,)]}),
    # a vertex paired with itself, which oracle_adjacent refuses: its face is
    # the vertex alone, and once (1,) passed as a Farkas vector over no rows
    ("adjacency", dict(_PAIR, v2=(0, 1), candidates=(), excluded=(b"\x01\x00", b"\x01\x01"),
                       farkas=(1,))),
])
def test_malformed_certificates_replay_false(kind, payload):
    assert Certificate(kind, payload, False).replay() is False


# --- exact affine dimension ---------------------------------------------

def test_affine_dimension_basic():
    assert affine_dimension([(0, 0, 0)]) == 0
    assert affine_dimension([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_dimension([(0, 0), (1, 0), (0, 1)]) == 2
    # the standard 3-simplex spans dimension 3
    assert affine_dimension([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    # imsets are taken as they are: one block of 3 coordinates spans its 3-simplex
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    assert affine_dimension([characteristic_imset(g, idx) for g in enumerate_family(spec)]) == 3
    with pytest.raises(DomainError):
        affine_dimension([])


def test_imsets_read_as_their_bits():
    spec = diagnosis_family(2, 2)
    idx = coordinate_index(spec)
    imsets = [characteristic_imset(g, idx) for g in enumerate_family(spec)]
    bits = [c.bits for c in imsets]
    for c in imsets:
        assert len(c) == idx.total and list(c) == list(c.bits)
    assert VertexCloud(imsets) == VertexCloud(bits)
    assert affine_dimension(imsets) == affine_dimension(bits) == 6
    for i, j in combinations(range(len(imsets)), 2):
        assert oracle_adjacent(imsets[i], imsets[j], imsets) == \
            oracle_adjacent(bits[i], bits[j], bits)
    # an imset of another family is refused by its width
    small = diagnosis_family(2, 1)
    other = characteristic_imset(next(enumerate_family(small)), coordinate_index(small))
    with pytest.raises(DomainError, match=r"^cloud vertex 1 has 3 coordinates, vertex 0 has 6$"):
        VertexCloud([imsets[0], other])


def test_the_oracle_imports_none_of_the_closed_forms():
    # the oracle certifies the imsets and the geometry, so at module level it
    # reads only the limits, the errors, the families and the subset walks
    tree = ast.parse(Path(cimset.oracle.__file__).read_text(encoding="utf-8"))
    local = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("cimset") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            local |= {a.name for a in node.names} if node.module is None else {node.module}
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("cimset")
    assert local == {"limits", "errors", "graphs", "subsets"}
    assert "CharImset" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_affine_dimension_duplicates_and_mixed_lengths():
    assert affine_dimension([(1, 2), (1, 2), (1, 2)]) == 0
    with pytest.raises(DomainError):
        affine_dimension([(1, 2), (1, 2, 3)])


def _reference_rank(cloud):
    """Affine rank by Gaussian elimination over Fractions on the differences to cloud[0]."""
    rows = [[Fraction(a - b) for a, b in zip(v, cloud[0])] for v in cloud[1:]]
    rank = 0
    for col in range(len(cloud[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# mostly small entries, so that dependent clouds are common, plus some beyond +-2**63
_entries = st.one_of(st.integers(-2, 2), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.tuples(*[_entries] * d), min_size=1, max_size=7)),
    st.randoms(use_true_random=False))
def test_affine_dimension_matches_a_fraction_reference(cloud, rnd):
    shuffled = list(cloud)
    rnd.shuffle(shuffled)
    assert affine_dimension(cloud) == affine_dimension(shuffled) == _reference_rank(cloud)


def test_affine_dimension_cost_does_not_depend_on_vertex_order():
    # a dense base point once made every difference row fill in: 2.2 s here
    spec = diagnosis_family(8, 1)
    idx = coordinate_index(spec)
    cloud = [characteristic_imset(g, idx).bits for g in enumerate_family(spec)]
    random.Random(0).shuffle(cloud)
    start = time.perf_counter()
    assert affine_dimension(cloud) == 255
    assert time.perf_counter() - start < 0.5


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda d: st.lists(st.tuples(*[_entries] * d), min_size=2, max_size=5)),
    st.data())
def test_affine_dimension_refuses_a_later_shorter_vector(cloud, data):
    # the shorter vector comes after the first, where a truncating zip would not see it
    at = data.draw(st.integers(1, len(cloud) - 1))
    cloud[at] = cloud[at][:-1]
    with pytest.raises(DomainError, match="mixed lengths"):
        affine_dimension(cloud)


# entries per kind of cloud: 0/1 and other bytes; int tuples with
# negatives; int tuples beyond a byte and beyond +-2**63, which must not wrap
_rank_entries = {
    "01": st.integers(0, 1),
    "bytes": st.one_of(st.integers(0, 1), st.integers(0, 255)),
    "negative": st.one_of(st.integers(-2, 2), st.integers(-300, 300)),
    "wide": st.one_of(st.integers(-1, 1), st.integers(256, 1 << 16),
                      st.integers(1 << 63, 1 << 70), st.integers(-(1 << 70), -(1 << 63))),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_rank_entries)), st.integers(1, 6), st.integers(1, 9), st.data())
def test_exact_affine_rank_matches_a_fraction_reference(kind, d, size, data):
    # `_affine_rank` is called directly: `affine_dimension` gives most clouds
    # their rank mod 2 and never reaches the exact elimination
    cloud = data.draw(st.lists(st.tuples(*[_rank_entries[kind]] * d),
                               min_size=size, max_size=size))
    if kind == "bytes":
        cloud = [bytes(v) for v in cloud]
    shuffled = data.draw(st.permutations(cloud))
    rank = cimset.oracle._affine_rank(list(cloud))
    assert rank == cimset.oracle._affine_rank(list(shuffled)) == affine_dimension(shuffled) \
        == _reference_rank(cloud)


@pytest.mark.parametrize("cloud, rank", [
    # collinear only if 200 and 255 stay positive: a signed byte reads them as -56 and -1
    ([b"\x00\x00", b"\xc8\x64", b"\x64\x32"], 1),
    ([(0, 0), (255, 200), (51, 40)], 1),
    # collinear only if nothing wraps at 2**63 or 2**64
    ([(0, 0), (1 << 64, 1 << 63), (1 << 65, 1 << 64)], 1),
    ([(-(1 << 63), 0), (0, 1), ((1 << 63), 2)], 1),
])
def test_affine_rank_entries_that_would_wrap(cloud, rank):
    assert affine_dimension(cloud) == _reference_rank(cloud) == rank


@pytest.mark.parametrize("kind", ["bytes", "wide"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_affine_rank_either_side_of_a_full_block(kind, extra):
    d = 4096
    step = cimset.oracle._RANK_BLOCK_CELLS // d
    rng = random.Random(f"{kind}{extra}")
    values = [1] if kind == "bytes" else [1, -1, 300, 1 << 64, -(1 << 64)]
    cloud = [tuple(rng.choice(values) if rng.random() < 0.003 else 0 for _ in range(d))
             for _ in range(step - 1 + extra)]
    # two vertices in the affine hull of the others
    cloud.append(tuple(map(operator.add, cloud[0], cloud[1])))
    cloud.append(cloud[2])
    if kind == "bytes":
        cloud = [bytes(v) for v in cloud]
    assert len(cloud) - 1 == step + extra
    # columns equal on every vertex add nothing to the rank: the reference skips them
    live = [j for j in range(d) if len({v[j] for v in cloud}) > 1]
    want = _reference_rank([tuple(v[j] for j in live) for v in cloud])
    shuffled = list(cloud)
    rng.shuffle(shuffled)
    assert affine_dimension(cloud) == affine_dimension(shuffled) == want


@pytest.mark.parametrize("cloud, rank", [
    # the unit row (0, 1) joins first; reducing (2, 1) at column 0 by the
    # row (1, 1) leaves -1 in column 1, which the unit row deletes
    pytest.param([(0, 0), (1, 1), (0, 1), (2, 1)], 2, id="unit-row"),
    # the pivot 2 of (2, 1, 0) does not divide the 3 of (3, 0, 1), so the
    # row is cross-multiplied; (1, -1, 1) is their difference
    pytest.param([(0, 0, 0), (2, 1, 0), (3, 0, 1), (1, -1, 1)], 2, id="cross-multiplied"),
])
def test_affine_rank_pinned_clouds(cloud, rank):
    assert cimset.oracle._affine_rank(list(cloud)) == _reference_rank(cloud) == rank


def test_a_column_brought_back_by_a_non_unit_row_is_eliminated():
    # the unit row (0, 1, 0) joins first, then (1, 1, 0) under column 0 with
    # column 1 kept; reducing (2, 0, 1) at column 0 by it brings column 1
    # back as -2, which the unit row deletes, and (0, 0, 1) joins
    cloud = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 1)]
    assert cimset.oracle._affine_rank(list(cloud)) == _reference_rank(cloud) == 3


def _census_cloud(m, n):
    spec = diagnosis_family(m, n)
    idx = coordinate_index(spec)
    return [characteristic_imset(g, idx).bits for g in enumerate_family(spec)]


class _CountingList(list):
    """A list that counts the vectors its iteration hands out."""

    handed = 0

    def __iter__(self):
        for v in super().__iter__():
            self.handed += 1
            yield v


def test_affine_rank_stops_at_full_rank():
    # a product of simplices reaches its rank 15 within its sparsest
    # vertices, and no later vertex is taken: the shortest sparsest-first
    # prefix of rank 15, found by bisection on the reference
    cloud = _CountingList(_census_cloud(2, 5))
    assert cimset.oracle._affine_rank(cloud) == 15
    lo, hi = 1, len(cloud)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _reference_rank(cloud[:mid]) == 15 else (mid + 1, hi)
    assert cloud.handed == lo < len(cloud) // 4
    assert cimset.oracle._affine_rank(_census_cloud(10, 1)) == 1023


# 0/1 entries, where parity is exact; and small integers, where it can lose
# rank: (0,) and (2,) span a line but are one point mod 2
_parity_entries = {"01": st.integers(0, 1), "small": st.sampled_from([0, 1, 2, 3, 255])}


def _exact_rank_spy():
    return mock.patch.object(cimset.oracle, "_affine_rank", wraps=cimset.oracle._affine_rank)


def _quotient_width(cloud):
    """The columns of a 0/1 cloud that are not constant, nor a copy or the
    complement of an earlier column: each read as its XOR with its first entry."""
    keys = {tuple(x ^ col[0] for x in col) for col in zip(*cloud)}
    return len(keys - {(0,) * len(cloud)})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_parity_entries)), st.booleans(), st.integers(1, 6), st.data())
def test_the_rank_front_is_exact_and_eliminates_just_where_parity_falls_short(
        kind, as_bytes, d, data):
    cloud = data.draw(st.lists(st.tuples(*[_parity_entries[kind]] * d),
                               min_size=1, max_size=9))
    if as_bytes:
        cloud = [bytes(v) for v in cloud]
    # parity settles a rank of min(N - 1, d), or on a 0/1 cloud of
    # min(N - 1, d') over its quotient's d' columns
    full = min(len(cloud) - 1, d)
    if all({0, 1}.issuperset(v) for v in cloud):
        full = min(len(cloud) - 1, _quotient_width(cloud))
    parity = _gf2_rank([[(a ^ b) & 1 for a, b in zip(v, cloud[0])] for v in cloud[1:]])
    with _exact_rank_spy() as exact:
        rank = affine_dimension(cloud)
    assert exact.call_count == (parity < full)
    assert rank == cimset.oracle._affine_rank(list(cloud)) == _reference_rank(cloud)


@pytest.mark.parametrize("cloud, rank, mod2, exact", [
    # one point mod 2: only the exact elimination finds the line
    ([(0,), (2,)], 1, True, True),
    # rank 1 mod 2, rank 2 exactly
    ([b"\x00\x03", b"\x02\x01", b"\x01\x00"], 2, True, True),
    # 255 is odd, so parity keeps the full rank
    ([(0, 0), (1, 0), (0, 255)], 2, True, False),
    # an entry outside a byte goes straight to the exact elimination
    ([(0,), (256,)], 1, False, True),
    ([(0,), (-1,)], 1, False, True),
    # no column repeats, so the quotient is the cloud, whose mod-2 rank 2
    # falls short of its rank 3
    ([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)], 3, True, True),
    ([b"\0\0\0", b"\1\1\0", b"\1\0\1", b"\0\1\1"], 3, True, True),
    # the columns (0, 2, 1) and (1, 1, 0) are complements mod 2, but not
    # over the integers: only a 0/1 cloud has the complement rule
    ([b"\0\1", b"\2\1", b"\1\0"], 2, True, True),
    # the columns (0, 1, 2) and (0, 2, 2) are alike where they are nonzero,
    # and mod 2 the second is constant
    ([b"\0\0", b"\1\2", b"\2\2"], 2, True, True),
])
def test_parity_route_pinned_clouds(cloud, rank, mod2, exact):
    with _exact_rank_spy() as exact_spy, \
            mock.patch.object(cimset.oracle, "_rank_mod2",
                              wraps=cimset.oracle._rank_mod2) as mod2_spy:
        assert affine_dimension(cloud) == rank == _reference_rank(cloud)
    assert (mod2_spy.call_count, exact_spy.call_count) == (mod2, exact)


def test_no_exact_rank_runs_on_example_4_7_or_the_diagnosis_census():
    # a product of simplices has full rank mod 2; example 4.7's 256 vertices
    # span 14 of its 26 coordinates, and its quotient keeps 14 columns, so
    # parity settles it there
    with _exact_rank_spy() as exact:
        assert affine_dimension(_census_cloud(10, 1)) == 1023
    assert exact.call_count == 0
    spec = _example_47_family()
    idx = coordinate_index(spec)
    cloud = [characteristic_imset(g, idx).bits for g in enumerate_family(spec)]
    assert (len(cloud), idx.total, _quotient_width(cloud)) == (256, 26, 14)
    with _exact_rank_spy() as exact:
        assert affine_dimension(cloud) == 14
    assert exact.call_count == 0


@pytest.mark.parametrize("parents, floors, size, rank", [
    # c1 keeps n0 and c2 keeps n0 and n1: 32 * 16 members spanning 46 of
    # their 126 coordinates
    (6, (0b1, 0b11), 512, 46),
    # c1 keeps n0 and c2 keeps n1: 64 * 64 members spanning 126 of 254
    (7, (0b1, 0b10), 4096, 126),
], ids=["512", "4096"])
def test_floor_family_rank_is_settled_on_its_quotient(parents, floors, size, rank):
    # short of full rank mod 2, but the floors only repeat coordinates, so
    # the quotient's columns are independent; on the cloud in any order
    names = tuple(f"n{i}" for i in range(parents)) + ("c1", "c2")
    ceiling = (1 << parents) - 1
    spec = FamilySpec(NodeOrdering(names), (0,) * parents + floors,
                      (0,) * parents + (ceiling,) * 2)
    idx = coordinate_index(spec)
    cloud = [characteristic_imset(g, idx).bits for g in enumerate_family(spec)]
    assert len(cloud) == size
    random.Random(0).shuffle(cloud)
    start = time.perf_counter()
    with _exact_rank_spy() as exact:
        assert affine_dimension(cloud) == rank == affine_dimension_formula(spec)
    assert time.perf_counter() - start < 0.5
    assert exact.call_count == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 9), st.booleans(), st.data())
def test_the_quotient_keeps_the_rank_of_a_cloud_with_repeated_columns(d, size, as_bytes, data):
    # a random 0/1 cloud with constant columns, copies and complements of
    # its columns put in anywhere
    base = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=size, max_size=size))
    columns = [list(col) for col in zip(*base)]
    for kind in data.draw(st.lists(st.sampled_from(["constant", "copy", "complement"]),
                                   min_size=1, max_size=6)):
        if kind == "constant":
            col = [data.draw(st.integers(0, 1))] * size
        else:
            col = columns[data.draw(st.integers(0, len(columns) - 1))]
            col = col if kind == "copy" else [1 - x for x in col]
        columns.insert(data.draw(st.integers(0, len(columns))), col)
    cloud = [(bytes if as_bytes else tuple)(row) for row in zip(*columns)]
    assert affine_dimension(cloud) == cimset.oracle._affine_rank(list(cloud)) \
        == _reference_rank(cloud)


@pytest.mark.parametrize("cloud", [
    [b"\x00\x01", b"\x01"],
    [(0, 1), (1 << 70,)],
    [(0, 1, 0), (1, 0), (0, 0, 1)],
])
def test_mixed_lengths_refused_before_any_row_is_built(cloud):
    # with numpy and the exact rank gone, any row built before the check fails otherwise
    with mock.patch.object(cimset.oracle, "np", None), \
            mock.patch.object(cimset.oracle, "_affine_rank", side_effect=AssertionError):
        with pytest.raises(DomainError, match="mixed lengths"):
            affine_dimension(cloud)


@pytest.mark.parametrize("half", [0.5, Fraction(1, 2)])
def test_non_integer_entries_refused_not_truncated(half):
    # int() would read the vertex (1/2, 0) as (0, 0) and report rank 0
    with pytest.raises(DomainError, match=r"vertex \(.*\) has a non-integer entry"):
        affine_dimension([(half, 0), (0, 0)])
    with pytest.raises(DomainError, match="non-integer entry"):
        oracle_adjacent((half, 0), (0, 0), SQUARE)


def test_integral_entries_of_any_type_convert():
    cloud = [(Fraction(2), np.int64(0)), (True, np.uint8(1)), (0, 0)]
    assert affine_dimension(cloud) == affine_dimension([(2, 0), (1, 1), (0, 0)]) == 2
    assert affine_dimension([b"\x00\x01", b"\x01\x01"]) == 1
    # bytes beside tuples of equal sparsity: the sort must not compare the two types
    assert affine_dimension([b"\x00\x01", (1, 0), b"\x01\x00"]) == 1


# --- facet certification --------------------------------------------------

def _block_cloud(k):
    return [vertex_block_vector(k, p) for p in iter_submasks((1 << k) - 1)]


def test_facet_rows_certify():
    k = 3
    sysk = facet_matrix(k)
    cloud = _block_cloud(k)
    for s in iter_submasks((1 << k) - 1):
        cert = oracle_facet_check((s, sysk.dense_row(s)), cloud)
        assert cert.kind == "facet" and cert.verified
        assert cert.replay()


def test_facet_check_rejects_perturbed_row():
    k = 2
    sysk = facet_matrix(k)
    cloud = _block_cloud(k)
    row = list(sysk.dense_row(0b01))
    row[1] += 1
    cert = oracle_facet_check((0b01, row), cloud)
    assert not cert.verified
    assert cert.payload["failing"] is not None


def test_facet_check_rejects_valid_inequality_that_is_not_a_facet():
    # x({a}) + x({b}) >= 0 holds everywhere but is tight on too small a set
    k = 2
    cloud = _block_cloud(k)
    cert = oracle_facet_check((0b01, [0, 1, 1, 0]), cloud)
    assert not cert.verified
    # off at {a, b}, {b} and {a}; the first of them fails the row
    assert cert.payload["failing"] == b"\x01\x01\x01"


@pytest.mark.parametrize("s, row, failing", [
    # positive at no vertex: every vertex is tight, none is off
    (0b00, [0, 0, 0, 0], None),
    # -x({a}) is negative first at the vertex {a, b}
    (0b01, [0, -1, 0, 0], (1, 1, 1)),
    # the facet of {b}, labelled {a}: the one vertex off it is {b}'s
    (0b01, [0, 0, 1, -1], (0, 1, 0)),
])
def test_facet_check_failing_vertex(s, row, failing):
    cert = oracle_facet_check((s, row), _block_cloud(2))
    assert not cert.verified and not cert.replay()
    assert cert.payload["failing"] == (None if failing is None else bytes(failing))


def test_facet_check_failing_tight_set_rank():
    # a repeated vertex: x({a}) >= 0 is off only at (1,), but its tight set
    # is one point where a facet of a 3-vertex cloud needs a line
    cert = oracle_facet_check((1, [0, 1]), [(0,), (0,), (1,)])
    assert not cert.verified and not cert.replay()
    assert cert.payload["failing"] == "tight-set-rank"


def test_facet_check_on_a_dependent_cloud_of_block_width():
    # k = 2 with (1, 0, 0) repeated: x({a, b}) >= 0 is off only at the vertex
    # of {a, b}, but five points in three coordinates are not a simplex
    cloud = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 0)]
    cert = oracle_facet_check((3, [0, 0, 0, 1]), cloud)
    assert not cert.verified and not cert.replay()
    assert cert.payload["failing"] == "tight-set-rank"


def test_facet_check_ranks_a_vertex_cloud_once():
    k = 3
    sysk = facet_matrix(k)
    cloud = VertexCloud(_block_cloud(k))
    with mock.patch.object(cimset.oracle, "_rank", wraps=cimset.oracle._rank) as rank:
        # values that fail never reach the rank
        assert not oracle_facet_check((0, [0] * (1 << k)), cloud).verified
        assert rank.call_count == 0
        for s in iter_submasks((1 << k) - 1):
            assert oracle_facet_check((s, sysk.dense_row(s)), cloud).verified
        assert rank.call_count == 1


def _per_row_verdict(row, vecs, vertex):
    """The facet rule as it reads without the simplex argument: rank each row's tight set."""
    const, linear = row[0], row[1:]
    tight = []
    off = []
    for vec in vecs:
        val = const + sum(map(operator.mul, linear, vec))
        if val < 0:
            return False, vec
        (tight if val == 0 else off).append(vec)
    if len(off) != 1 or off[0] != vertex:
        return False, off[0] if off else None
    if affine_dimension(tight) != len(vecs) - 2:
        return False, "tight-set-rank"
    return True, None


@st.composite
def _facet_cases(draw):
    """A block width's cloud with repeated, missing or stray 0/1 vertices, s and a row."""
    k = draw(st.integers(1, 3))
    width = (1 << k) - 1
    block = _block_cloud(k)
    stray = st.tuples(*[st.integers(0, 1)] * width)
    cloud = draw(st.lists(st.one_of(st.sampled_from(block), stray),
                          min_size=2, max_size=(1 << k) + 2))
    s = draw(st.integers(0, width))
    facet = facet_matrix(k).dense_row(s)
    nudged = [c + draw(st.integers(-1, 1)) for c in facet]
    noise = draw(st.lists(st.integers(-2, 2), min_size=1 << k, max_size=1 << k))
    row = draw(st.sampled_from([facet, nudged, noise]))
    return k, cloud, s, row


@settings(max_examples=400, deadline=None)
@given(_facet_cases())
def test_facet_verdict_matches_the_per_row_tight_set_rank(case):
    k, cloud, s, row = case
    cert = oracle_facet_check((s, row), cloud)
    # the reference reads the cloud as the bytes the certificate holds
    want = _per_row_verdict(row, list(map(bytes, cloud)), bytes(vertex_block_vector(k, s)))
    assert (cert.verified, cert.payload["failing"]) == want
    assert cert.replay() is cert.verified


@settings(max_examples=300, deadline=None)
@given(_facet_cases(), st.integers(1, 2 ** 70),
       st.lists(_entries, min_size=8, max_size=8))
def test_facet_verdict_on_rows_beyond_int64(case, scale, noise):
    # the check sums the coefficients over a vertex's ones; the reference
    # multiplies every coefficient by its entry, in Python ints of any size
    k, cloud, s, row = case
    vertex = bytes(vertex_block_vector(k, s))
    for big in ([scale * c for c in row], [c + scale * e for c, e in zip(row, noise)]):
        cert = oracle_facet_check((s, big), cloud)
        want = _per_row_verdict(big, list(map(bytes, cloud)), vertex)
        assert (cert.verified, cert.payload["failing"]) == want
        assert cert.replay() is cert.verified
    # a facet row scaled past int64 is still the facet
    facet = facet_matrix(k).dense_row(s)
    assert oracle_facet_check((s, [scale * c for c in facet]), _block_cloud(k)).verified


@st.composite
def _lane_rule_cases(draw):
    """A random 0/1 cloud of a block width, s, and a row of few or many distinct ints.

    The cloud is the block's vertices, with some of them repeated or not, or
    a mix of block vertices and random ones, so it may or may not be a
    simplex; the row is a scaled facet, a nudged one, or random integers
    with few or many distinct values, within int64 or far past it.
    """
    k = draw(st.integers(1, 5))
    width = (1 << k) - 1
    block = _block_cloud(k)
    stray = st.lists(st.integers(0, 1), min_size=width, max_size=width).map(tuple)
    cloud = draw(st.one_of(st.permutations(block),
                           st.lists(st.sampled_from(block), min_size=1, max_size=3).map(
                               lambda twice: block + twice),
                           st.lists(st.one_of(st.sampled_from(block), stray),
                                    min_size=2, max_size=(1 << k) + 3)))
    s = draw(st.integers(0, width))
    scale = draw(st.sampled_from([1, 3, 2 ** 64, 2 ** 200 + 1]))
    facet = [scale * c for c in facet_matrix(k).dense_row(s)]
    few = draw(st.lists(st.integers(-3, 3) | st.integers(-2 ** 100, 2 ** 100),
                        min_size=1, max_size=3))
    big = st.integers(-2 ** 200, 2 ** 200)
    row = draw(st.one_of(
        st.just(facet),
        st.lists(st.integers(-1, 1), min_size=1 << k, max_size=1 << k).map(
            lambda noise: [c + e for c, e in zip(facet, noise)]),
        st.lists(st.sampled_from(few), min_size=1 << k, max_size=1 << k),
        st.lists(st.integers(-40, 40), min_size=1 << k, max_size=1 << k, unique=True),
        st.lists(big, min_size=1 << k, max_size=1 << k, unique=True)))
    return k, cloud, s, row


@settings(max_examples=300, deadline=None)
@given(_lane_rule_cases())
def test_lane_rule_matches_the_per_coordinate_rule(case):
    # the check sums each nonzero coefficient's lane column into one big int;
    # the reference multiplies every coefficient by its entry, vertex by vertex
    k, cloud, s, row = case
    vertex = bytes(vertex_block_vector(k, s))
    want = _per_row_verdict(row, list(map(bytes, cloud)), vertex)
    cert = oracle_facet_check((s, row), cloud)
    assert (cert.verified, cert.payload["failing"]) == want
    assert cert.replay() is cert.verified


# 2·bound is even: 254 and 256 straddle the one-byte lane, 65 534 and 65 536
# the two-byte one
@pytest.mark.parametrize("bound, width", [(127, 1), (128, 2), (32767, 2), (32768, 3)])
@pytest.mark.parametrize("sign", [-1, 1])
def test_lane_width_edges_match_the_per_coordinate_rule(bound, width, sign):
    # every 0/1 vector of a 2-block's width; the first two rows reach
    # sign * bound, at the vertices with x0 = 1 and at (1, 1, 1), and the
    # third spans [-1, bound - 1].  Each row's gcd is 1, so its bound stays
    cloud = [bytes(map(int, f"{t:03b}")) for t in range(8)]
    rows = [[sign, sign * (bound - 1), 0, 0], [0, sign * (bound - 2), sign, sign],
            [0, bound - 1, -1, 0]]
    for row in rows:
        for s in range(4):
            vertices = VertexCloud(cloud)
            cert = oracle_facet_check((s, row), vertices)
            want = _per_row_verdict(row, cloud, bytes(vertex_block_vector(2, s)))
            assert (cert.verified, cert.payload["failing"]) == want
            assert list(vertices._lanes) == [width]


def test_a_scaled_row_is_summed_in_the_lanes_of_its_reduced_row():
    k = 3
    facet = facet_matrix(k).dense_row(0)
    cloud = VertexCloud(_block_cloud(k))
    assert oracle_facet_check((0, [(2 ** 200 + 7) * c for c in facet]), cloud).verified
    # the reduced row's bound is 8, so one-byte lanes hold every value
    assert list(cloud._lanes) == [1]


@pytest.mark.parametrize("k", [7, 8])
def test_two_byte_lane_rows_of_wide_blocks_match_the_per_coordinate_rule(k):
    # the row of s = {} has 2**k coefficients of 1 or -1, so 2·bound >= 256
    sysk = facet_matrix(k)
    block = list(map(bytes, _block_cloud(k)))
    cloud = VertexCloud(block)
    rng = random.Random(k)
    for s in [0, 1, 3, (1 << k) - 1, *rng.sample(range(1 << k), 4)]:
        row = sysk.dense_row(s)
        tampered = list(row)
        tampered[rng.randrange(1 << k)] += rng.choice((-1, 1))
        for r in (row, tampered):
            cert = oracle_facet_check((s, r), cloud)
            want = _per_row_verdict(r, block, bytes(vertex_block_vector(k, s)))
            assert (cert.verified, cert.payload["failing"]) == want
        assert cert.replay() is cert.verified
    assert 2 in cloud._lanes


def test_a_repeated_or_missing_facet_vertex_leaves_the_fast_path():
    k = 3
    sysk = facet_matrix(k)
    block = list(map(bytes, _block_cloud(k)))
    cloud = VertexCloud(block)
    read = mock.patch.object(cimset.oracle, "_lane_values", wraps=cimset.oracle._lane_values)
    with read as lane_values:
        for s in range(1 << k):
            assert oracle_facet_check((s, sysk.dense_row(s)), cloud).verified
        # every facet row passes on the lane identity alone
        assert lane_values.call_count == 0
        for s in range(1 << k):
            vertex = bytes(vertex_block_vector(k, s))
            repeated = block + [vertex]
            missing = [v for v in block if v != vertex]
            for vecs, failing in ((repeated, vertex), (missing, None)):
                cert = oracle_facet_check((s, sysk.dense_row(s)), vecs)
                want = _per_row_verdict(sysk.dense_row(s), vecs, vertex)
                assert (cert.verified, cert.payload["failing"]) == want == (False, failing)
        assert lane_values.call_count == 2 << k


def _zeta_row(k, s):
    """1 at each nonempty t ⊆ s, t over range(k)'s subsets by size, then lexicographically."""
    order = sorted(range(1, 1 << k),
                   key=lambda t: (bin(t).count("1"), [b for b in range(k) if t >> b & 1]))
    return bytes((t & s) == t for t in order)


@pytest.mark.parametrize("k", range(1, 7))
def test_facet_vertex_is_the_zeta_row_of_s(k):
    vecs = list(map(bytes, _block_cloud(k)))
    for s in range(1 << k):
        assert cimset.oracle._facet_vertex(s, vecs, 1 << k) == _zeta_row(k, s)


def test_facet_check_refuses_a_one_vertex_cloud():
    # k = 0: a single vertex of no coordinates has no facets to certify
    with pytest.raises(DomainError, match="at least two vertices, got 1"):
        oracle_facet_check((0, [1]), [()])
    payload = {"s": 0, "coefficients": [1], "cloud": [()]}
    assert Certificate("facet", payload, False).replay() is False


# True == 0b01, and its row is the facet of 0b01, but a bool is no parent set
@pytest.mark.parametrize("s, row_of", [(0b100, 0b00), (-1, 0b11), (True, 0b01)])
def test_facet_check_refuses_a_row_outside_the_ground_set(s, row_of):
    row = facet_matrix(2).dense_row(row_of)
    with pytest.raises(DomainError, match=rf"facet row {s} is outside the ground set"):
        oracle_facet_check((s, row), _block_cloud(2))

def test_facet_replay_derives_the_vertex_from_s():
    row = facet_matrix(2).dense_row(0b01)
    cert = oracle_facet_check((0b01, row), _block_cloud(2))
    assert cert.verified and cert.replay()
    assert set(cert.payload) == {"s", "coefficients", "cloud", "failing"}
    # another subset, or none of range(2): refused, not raised
    for s in (0b00, 0b10, 0b11, 4, -1, "1", 1.0, None, True, False):
        assert Certificate("facet", dict(cert.payload, s=s), False).replay() is False
    # a cloud or a row whose width is not 2**k - 1 (resp. 2**k)
    vecs = cert.payload["cloud"].vecs
    for cloud in ((), [v[:2] for v in vecs], [*vecs[:3], (1, 1)]):
        assert Certificate("facet", dict(cert.payload, cloud=cloud), False).replay() is False
    coefficients = cert.payload["coefficients"]
    for row in (coefficients[:3], (*coefficients, 0)):
        assert Certificate("facet", dict(cert.payload, coefficients=row), False).replay() \
            is False


def test_facet_payload_holds_its_vertex_cloud():
    # the payload's cloud is the VertexCloud the row was checked on, as an
    # adjacency payload's is; its replay reads that cloud, with the cached
    # simplex() verdict, and does not pack it again
    cloud = VertexCloud(_block_cloud(3))
    row = facet_matrix(3).dense_row(0b101)
    cert = oracle_facet_check((0b101, row), cloud)
    assert cert.payload["cloud"] is cloud and cert.verified
    with mock.patch.object(VertexCloud, "__init__", side_effect=AssertionError), \
            mock.patch.object(cimset.oracle, "_rank", side_effect=AssertionError):
        assert cert.replay() is True
    # an adjacency payload's cloud serves a facet payload as well
    pair = oracle_adjacent(cloud.vecs[0], cloud.vecs[1], cloud)
    assert Certificate("facet", dict(cert.payload, cloud=pair.payload["cloud"]), False).replay()
    # a tampered row still replays False on the held cloud
    for j in range(len(row)):
        tampered = list(row)
        tampered[j] += 1
        assert Certificate("facet", dict(cert.payload, coefficients=tampered), False).replay() \
            is False


@settings(max_examples=60, deadline=None)
@given(family_specs(), st.data())
def test_certificates_replay_and_tampered_ones_do_not(spec, data):
    # coordinate geometry covers uncapped families only
    spec = dataclasses.replace(spec, max_parents=None)
    assume(2 <= spec.family_size() <= 64)
    idx = coordinate_index(spec)
    vecs = [tuple(characteristic_imset(g, idx).bits) for g in enumerate_family(spec)]
    size = len(vecs)
    i = data.draw(st.integers(0, size - 1))
    j = (i + data.draw(st.integers(1, size - 1))) % size
    cert = oracle_adjacent(vecs[i], vecs[j], vecs)
    assert cert.verified and cert.replay()
    if cert.kind == "adjacency":
        # a rank payload: v1 named again among the candidates is dependent,
        # and a candidate moved to excluded is not forced off the face
        p = cert.payload
        twice = dict(p, candidates=(*p["candidates"], p["v1"]))
        assert not Certificate("adjacency", twice, False).replay()
        if p["candidates"]:
            u, *rest = p["candidates"]
            moved = dict(p, candidates=tuple(rest), excluded=(*p["excluded"], u))
            assert not Certificate("adjacency", moved, False).replay()
        # the LP route's negated Farkas vector is pinned on random clouds in
        # test_adjacency_lp_on_distinct_rows_agrees_with_the_full_lp

    child = data.draw(st.sampled_from([c for c in range(spec.n) if spec.free_mask(c)]))
    k = spec.free_mask(child).bit_count()
    s = data.draw(st.integers(0, (1 << k) - 1))
    cert = oracle_facet_check((s, facet_matrix(k).dense_row(s)), _block_cloud(k))
    assert cert.verified and cert.replay()
    other = data.draw(st.integers(0, (1 << k) - 1).filter(lambda t: t != s))
    assert not Certificate("facet", dict(cert.payload, s=other), False).replay()
    const, *linear = cert.payload["coefficients"]
    raised = (const + 1, *linear)
    assert not Certificate("facet", dict(cert.payload, coefficients=raised), False).replay()


@pytest.mark.parametrize("coeff", [Fraction(3, 2), 1.5, 1.0])
def test_non_integer_facet_coefficients_refused_not_truncated(coeff):
    # int() would read 3/2 - x, tight at no vertex, as the facet 1 - x
    cloud = [vertex_block_vector(1, s) for s in range(2)]
    with pytest.raises(DomainError, match=r"facet row 0 has a non-integer coefficient"):
        oracle_facet_check((0, [coeff, -1]), cloud)


def test_all_int_entries_are_returned_unchanged():
    t = (0, 1, -3, 1 << 70)
    assert cimset.oracle._integers(t, "row", "coefficient") is t
    assert cimset.oracle._vec(t) is t
    assert cimset.oracle._integers((True, Fraction(2)), "row", "coefficient") == (1, 2)


def test_integral_facet_coefficients_of_any_type_convert():
    cloud = [vertex_block_vector(1, s) for s in range(2)]
    for row in ([Fraction(1), np.int64(-1)], [True, -1]):
        cert = oracle_facet_check((0, row), cloud)
        assert cert.verified and cert.replay()
        assert cert.payload["coefficients"] == (1, -1)
        assert all(type(c) is int for c in cert.payload["coefficients"])


# --- brute-force search ---------------------------------------------------

def _table(spec, *entries):
    return ScoreTable(spec, entries)


def test_learn_bruteforce_picks_maximum():
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: 0.0}, {0: 0.0}, {0: 0.0, 1: 5.0, 2: 3.0, 3: 4.0})
    best = learn_bruteforce(spec, table)
    assert best.parents[2] == 0b01


def test_learn_bruteforce_tie_keeps_earliest():
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: 0.0}, {0: 0.0}, {0: 7.0, 1: 7.0, 2: 7.0, 3: 7.0})
    best = learn_bruteforce(spec, table)
    assert best.parents[2] == 0


# --- closed-form separating vectors --------------------------------------

def test_lemma32_witness_exhaustive_small():
    for m in range(1, 5):
        universe = (1 << m) - 1
        subsets = list(iter_submasks(universe))
        for pa1, pa2 in combinations(subsets, 2):
            w = lemma32_witness(pa1, pa2, m)
            v1 = witness_block_value(w, pa1)
            v2 = witness_block_value(w, pa2)
            assert v1 == v2, (m, pa1, pa2)
            for p3 in subsets:
                if p3 in (pa1, pa2):
                    continue
                assert witness_block_value(w, p3) < v1, (m, pa1, pa2, p3)


def test_lemma32_witness_guards():
    with pytest.raises(DegeneratePairError):
        lemma32_witness(0b01, 0b01, 2)
    with pytest.raises(DomainError):
        lemma32_witness(0b100, 0b01, 2)
