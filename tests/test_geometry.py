import dataclasses
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cimset.geometry
from cimset.errors import (DegeneratePairError, DomainError, ResourceError,
                           UnsupportedError)
from cimset.geometry import (FacetSystem, affine_dimension_formula, are_neighbors,
                             edge_point_decompose, facet_evaluate, facet_matrix,
                             facet_system_for_child, neighbors, product_structure,
                             vertex_block_vector)
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           enumerate_family, full_ordered_family)
from cimset.imsets import characteristic_imset, coordinate_index
from cimset.subsets import iter_submasks
from test_graphs import family_specs, members


def test_product_structure_diagnosis():
    ps = product_structure(diagnosis_family(2, 2))
    assert [(f.child, f.dimension, f.multiplicity) for f in ps.factors] == [
        (2, 3, 1), (3, 3, 1)]
    assert ps.total_dimension == 6


def test_product_structure_with_floor():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0b01), (0, 0, 0b11, 0b111))
    ps = product_structure(spec)
    # c: 2 free parents; d: floor {a}, 2 free parents, copies over 2 floor subsets
    assert [(f.child, f.dimension, f.multiplicity) for f in ps.factors] == [
        (2, 3, 1), (3, 3, 2)]
    assert ps.total_dimension == 3 + 6
    # affine dimension ignores the lockstep copies
    assert affine_dimension_formula(spec) == 3 + 3


def test_product_structure_rejects_cap():
    o = NodeOrdering(("a", "b", "c"))
    spec = FamilySpec(o, (0, 0, 0), (0, 1, 0b11), max_parents=1)
    with pytest.raises(UnsupportedError):
        product_structure(spec)
    with pytest.raises(UnsupportedError):
        affine_dimension_formula(spec)


def test_facet_matrix_k2():
    sys2 = facet_matrix(2)
    assert sys2.nrows == 4
    assert sys2.dense_matrix() == [
        [1, -1, -1, 1],
        [0, 1, 0, -1],
        [0, 0, 1, -1],
        [0, 0, 0, 1],
    ]


def test_facet_rows_sum_pattern():
    # the rows sum to the constant function 1: vertex weights in each row
    # telescope, a sanity check of the inclusion-exclusion signs
    sys3 = facet_matrix(3)
    m = sys3.dense_matrix()
    col_sums = [sum(row[j] for row in m) for j in range(8)]
    assert col_sums == [1] + [0] * 7


def test_facet_rows_pick_out_vertices():
    # row s evaluates to 1 at the vertex for s and 0 at every other vertex
    k = 3
    sysk = facet_matrix(k)
    universe = (1 << k) - 1
    for s in iter_submasks(universe):
        for p in iter_submasks(universe):
            v = vertex_block_vector(k, p)
            assert facet_evaluate(sysk, s, v) == (1 if s == p else 0)


def test_facet_evaluate_guards():
    sys2 = facet_matrix(2)
    with pytest.raises(DomainError, match=r"^block vector has 2 entries, expected 3$"):
        sys2.evaluate(0b01, (1, 0))  # wrong length
    # every inexact entry is refused: floats, numpy floats and decimals
    inexact = r"^facet evaluation requires exact integer or rational entries$"
    with pytest.raises(DomainError, match=inexact):
        sys2.evaluate(0b01, (0.5, 0.5, 0.0))
    with pytest.raises(DomainError, match=inexact):
        sys2.evaluate(0b11, np.float32([0.5, 0.5, 0.5]))
    with pytest.raises(DomainError, match=inexact):
        sys2.evaluate(0b11, [Decimal("0.5")] * 3)
    with pytest.raises(DomainError, match=r"^row subset outside the ground set$"):
        sys2.evaluate(0b100, (1, 0, 0))  # row outside ground set
    # exact rationals are fine
    assert sys2.evaluate(0b11, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)


def test_dense_matrix_guard():
    big = FacetSystem(13)
    with pytest.raises(ResourceError):
        big.dense_matrix()
    # lazy row access still works
    row = big.dense_row((1 << 13) - 1)
    assert row[-1] == 1 and sum(map(abs, row)) == 1


def test_row_listing_builds_no_column_positions(monkeypatch):
    # `cimset facets` reads only nrows and row_sparse; the column positions
    # are built on first dense use, so a 22-element ground set costs nothing
    def refuse(*args, **kwargs):
        raise AssertionError("column positions built")
    for lister in ("graded_positions", "iter_graded_subsets"):
        monkeypatch.setattr(cimset.geometry, lister, refuse)
    for k in (16, 22):
        sysk = FacetSystem(k)
        assert sysk.nrows == 1 << k
        full = (1 << k) - 1
        assert list(sysk.row_sparse(full)) == [(full, 1)]
        assert sorted(sysk.row_sparse(full ^ 0b11)) == [
            (full ^ 0b11, 1), (full ^ 0b10, -1), (full ^ 0b01, -1), (full, 1)]


def test_facet_system_for_child():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0b01), (0, 0, 0b11, 0b111))
    sysd = facet_system_for_child(spec, 3)
    assert sysd.k == 2
    with pytest.raises(DomainError):
        facet_system_for_child(spec, 1)  # block is a point
    with pytest.raises(DomainError):
        facet_system_for_child(spec, 9)
    capped = FamilySpec(o, (0, 0, 0, 0), (0, 1, 0b11, 0b111), max_parents=1)
    with pytest.raises(UnsupportedError):
        facet_system_for_child(capped, 3)


def test_facet_rows_nonnegative_on_whole_family():
    spec = diagnosis_family(2, 2)
    idx = coordinate_index(spec)
    for child in (2, 3):
        sysc = facet_system_for_child(spec, child)
        for g in enumerate_family(spec):
            c = characteristic_imset(g, idx)
            block = tuple(c.block_slice_bytes(child))
            for s in iter_submasks(sysc.universe):
                assert sysc.evaluate(s, block) >= 0


def test_are_neighbors():
    spec = diagnosis_family(2, 2)
    a = ParentMap(spec.ordering, (0, 0, 0b01, 0))
    b = ParentMap(spec.ordering, (0, 0, 0b10, 0))
    c = ParentMap(spec.ordering, (0, 0, 0b10, 0b01))
    assert are_neighbors(a, b, spec)
    assert not are_neighbors(a, c, spec)
    with pytest.raises(DegeneratePairError):
        are_neighbors(a, a, spec)
    stranger = ParentMap(spec.ordering, (0, 0b01, 0, 0))
    with pytest.raises(DomainError):
        are_neighbors(a, stranger, spec)


def test_neighbors_count_and_validity():
    spec = diagnosis_family(2, 2)
    g = ParentMap(spec.ordering, (0, 0, 0b11, 0))
    nbrs = list(neighbors(g, spec))
    assert len(nbrs) == (4 - 1) + (4 - 1)
    assert len(set(nbrs)) == len(nbrs)
    for h in nbrs:
        assert are_neighbors(g, h, spec)


def test_neighbors_degree_formula_everywhere():
    spec = diagnosis_family(2, 2)
    expected = 2 * (2 ** 2 - 1)
    for g in enumerate_family(spec):
        assert sum(1 for _ in neighbors(g, spec)) == expected


def test_edge_point_decompose_midpoint():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    a = ParentMap(spec.ordering, (0, 0, 0b01))
    b = ParentMap(spec.ordering, (0, 0, 0b11))
    ca = characteristic_imset(a, idx)
    cb = characteristic_imset(b, idx)
    mid = [Fraction(x + y, 2) for x, y in zip(ca.bits, cb.bits)]
    dec = edge_point_decompose(mid, spec)
    assert dec is not None and not dec.is_vertex
    assert dec.weight == Fraction(1, 2)
    assert {dec.first, dec.second} == {a, b}
    # the named endpoints really average back to the point
    for i in range(idx.total):
        va = characteristic_imset(dec.first, idx).bits[i]
        vb = characteristic_imset(dec.second, idx).bits[i]
        assert dec.weight * va + (1 - dec.weight) * vb == mid[i]


def test_edge_point_decompose_names_the_graded_lex_first_endpoint_first():
    # the block's barycentric support lists {a1,a2} before {a3}; graded-lex
    # puts the smaller {a3} first, so the endpoints and the weight swap
    spec = diagnosis_family(3, 1)
    idx = coordinate_index(spec)
    pair = ParentMap(spec.ordering, (0, 0, 0, 0b011))
    single = ParentMap(spec.ordering, (0, 0, 0, 0b100))
    x = [Fraction(1, 3) * a + Fraction(2, 3) * b
         for a, b in zip(characteristic_imset(pair, idx).bits,
                         characteristic_imset(single, idx).bits)]
    dec = edge_point_decompose(x, spec)
    assert not dec.is_vertex and dec.child == 3
    assert (dec.first, dec.second, dec.weight) == (single, pair, Fraction(2, 3))


@settings(max_examples=40, deadline=None)
@given(family_specs(), st.data())
def test_every_neighbor_midpoint_decomposes_to_its_edge(spec, data):
    spec = dataclasses.replace(spec, max_parents=None)
    g = data.draw(members(spec))
    idx = coordinate_index(spec)
    cg = characteristic_imset(g, idx).bits
    for h in neighbors(g, spec):
        ch = characteristic_imset(h, idx).bits
        dec = edge_point_decompose([Fraction(a + b, 2) for a, b in zip(cg, ch)], spec)
        assert not dec.is_vertex and dec.weight == Fraction(1, 2)
        assert {dec.first, dec.second} == {g, h}


@settings(max_examples=5, deadline=None)
@given(st.fractions(0, 1, max_denominator=64).filter(lambda t: 0 < t < 1))
def test_every_edge_point_names_its_graded_lex_first_endpoint_first(t):
    # a midpoint cannot tell the endpoints apart; t*c_g + (1 - t)*c_h can.
    # d's block holds {c} and {a,b}, whose graded-lex and mask orders differ
    spec = full_ordered_family(("a", "b", "c", "d"))
    idx = coordinate_index(spec)
    for g in enumerate_family(spec):
        cg = characteristic_imset(g, idx).bits
        for h in neighbors(g, spec):
            ch = characteristic_imset(h, idx).bits
            dec = edge_point_decompose([t * a + (1 - t) * b for a, b in zip(cg, ch)], spec)
            child = next(i for i in range(spec.n) if g.parents[i] != h.parents[i])
            order = spec.iter_admissible(child)
            g_first = order.index(g.parents[child]) < order.index(h.parents[child])
            assert not dec.is_vertex and dec.child == child
            assert (dec.first, dec.second, dec.weight) == ((g, h, t) if g_first else (h, g, 1 - t))


@settings(max_examples=40, deadline=None)
@given(family_specs(min_free=3), st.data())
def test_edge_points_in_wide_blocks_name_their_graded_lex_first_endpoint_first(spec, data):
    # a block of three or more free parents holds pairs such as {c} and {a,b},
    # whose mask order and graded-lex order disagree
    spec = dataclasses.replace(spec, max_parents=None)
    t = data.draw(st.fractions(0, 1, max_denominator=64).filter(lambda t: 0 < t < 1))
    g = data.draw(members(spec))
    idx = coordinate_index(spec)
    cg = characteristic_imset(g, idx).bits
    for h in neighbors(g, spec):
        ch = characteristic_imset(h, idx).bits
        dec = edge_point_decompose([t * a + (1 - t) * b for a, b in zip(cg, ch)], spec)
        child = next(i for i in range(spec.n) if g.parents[i] != h.parents[i])
        order = spec.iter_admissible(child)
        g_first = order.index(g.parents[child]) < order.index(h.parents[child])
        assert not dec.is_vertex and dec.child == child
        assert (dec.first, dec.weight) == ((g, t) if g_first else (h, 1 - t))


def test_edge_point_decompose_vertex_and_faces():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    a = ParentMap(spec.ordering, (0, 0, 0b01))
    ca = characteristic_imset(a, idx)
    dec = edge_point_decompose([Fraction(v) for v in ca.bits], spec)
    assert dec is not None and dec.is_vertex and dec.first == a
    # midpoint of two non-adjacent vertices lies on a 2-face, not an edge
    b = ParentMap(spec.ordering, (0, 0, 0b10))
    othr = ParentMap(spec.ordering, (0, 0, 0))
    cb = characteristic_imset(b, idx)
    co = characteristic_imset(othr, idx)
    flat = [Fraction(ca.bits[i] + cb.bits[i] + co.bits[i], 3) for i in range(idx.total)]
    assert edge_point_decompose(flat, spec) is None
    # a point outside the polytope decomposes to nothing
    assert edge_point_decompose([Fraction(2), Fraction(0), Fraction(0)], spec) is None
    with pytest.raises(DomainError):
        edge_point_decompose([0.5, 0.5, 0.5], spec)
    with pytest.raises(DomainError):
        edge_point_decompose([Fraction(1)], spec)
    # with a floor: c must take a, so points whose support misses it are refused
    o = NodeOrdering(("a", "b", "c"))
    spec = FamilySpec(o, (0, 0, 0b01), (0, 0, 0b11))
    half = Fraction(1, 2)
    assert edge_point_decompose([Fraction(0)] * 3, spec) is None  # the vertex {}
    assert edge_point_decompose([half, Fraction(0), Fraction(0)], spec) is None  # {}-{a}
    dec = edge_point_decompose([Fraction(1), half, half], spec)
    assert (dec.child, dec.first, dec.second, dec.weight, dec.is_vertex) == (
        2, ParentMap(o, (0, 0, 0b01)), ParentMap(o, (0, 0, 0b11)), half, False)


def test_edge_decompose_whole_family_pairs():
    spec = full_ordered_family(("a", "b", "c"))
    idx = coordinate_index(spec)
    members = list(enumerate_family(spec))
    for i, g1 in enumerate(members):
        for g2 in members[i + 1:]:
            c1 = characteristic_imset(g1, idx)
            c2 = characteristic_imset(g2, idx)
            mid = [Fraction(x + y, 2) for x, y in zip(c1.bits, c2.bits)]
            dec = edge_point_decompose(mid, spec)
            if are_neighbors(g1, g2, spec):
                assert dec is not None and {dec.first, dec.second} == {g1, g2}
            else:
                assert dec is None


def test_vertex_block_vector():
    assert vertex_block_vector(2, 0b01) == (1, 0, 0)
    assert vertex_block_vector(2, 0b11) == (1, 1, 1)
    assert vertex_block_vector(2, 0) == (0, 0, 0)
    with pytest.raises(DomainError):
        vertex_block_vector(2, 0b100)
