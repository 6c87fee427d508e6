import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cimset.errors import DomainError, NotAVertexError, UnsupportedError
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           enumerate_family, full_ordered_family)
from cimset.imsets import (CharImset, CoordinateIndex, block_slice, characteristic_imset,
                           coordinate_index, export_full_vector, imset_from_bits,
                           imset_text_lines, imset_to_graph)
from cimset.subsets import bits_of, graded_subsets, iter_graded_subsets
from test_graphs import family_specs, members


def test_block_layout_diagnosis():
    spec = diagnosis_family(2, 2)
    idx = coordinate_index(spec)
    # only b1 and b2 carry coordinates; blocks sized 2^2 - 1 each
    assert [b.child for b in idx.blocks] == [2, 3]
    assert [b.size for b in idx.blocks] == [3, 3]
    assert [b.offset for b in idx.blocks] == [0, 3]
    assert idx.total == 6
    assert list(idx.block_subsets(2)) == [0b01, 0b10, 0b11]


def test_coordinate_indices_are_equal_by_family_only():
    small = coordinate_index(diagnosis_family(2, 1))
    large = coordinate_index(diagnosis_family(3, 1))
    assert small == coordinate_index(diagnosis_family(2, 1))
    assert small != large and not small == large
    # an index never equals a non-index, not even its own family
    for other in (None, 0, "index", diagnosis_family(2, 1), small.blocks):
        assert small != other and not small == other


def test_block_layout_ordered():
    spec = full_ordered_family(("a", "b", "c", "d"))
    idx = coordinate_index(spec)
    assert [b.child for b in idx.blocks] == [1, 2, 3]
    assert [b.size for b in idx.blocks] == [1, 3, 7]
    assert idx.total == 11  # 2^4 - (4+1)


def test_coordinate_index_rejects_cap():
    spec = FamilySpec(NodeOrdering(("a", "b", "c")), (0, 0, 0), (0, 1, 0b11),
                      max_parents=1)
    with pytest.raises(UnsupportedError):
        coordinate_index(spec)
    # the refusal is the index's own, so no caller can build a capped one
    with pytest.raises(UnsupportedError, match="capped families"):
        CoordinateIndex(spec)


def test_coordinate_index_is_built_once_per_spec_and_refuses_on_every_call():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    assert coordinate_index(spec) is idx
    # an equal spec keeps an index of its own; a replaced one starts without
    twin = diagnosis_family(2, 1)
    assert coordinate_index(twin) is not idx and coordinate_index(twin) == idx
    capped = dataclasses.replace(spec, max_parents=1)
    for _ in range(2):
        with pytest.raises(UnsupportedError, match="capped families"):
            coordinate_index(capped)


def test_position_and_coordinates_agree():
    spec = diagnosis_family(3, 1)
    idx = coordinate_index(spec)
    for pos, (child, s) in enumerate(idx.coordinates()):
        assert idx.position(child, s) == pos
    with pytest.raises(DomainError):
        idx.position(3, 0)
    with pytest.raises(DomainError):
        idx.position(3, 0b1001)  # b1 itself is outside its ceiling
    with pytest.raises(DomainError):
        idx.position(0, 0b1)  # a1 has no block


def test_characteristic_imset_pattern():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    g = ParentMap(spec.ordering, (0, 0, 0b11))
    c = characteristic_imset(g, idx)
    # entries are [S subseteq parents] over S in {a1},{a2},{a1,a2}
    assert block_slice(c, 2) == (1, 1, 1)
    g2 = ParentMap(spec.ordering, (0, 0, 0b10))
    assert block_slice(characteristic_imset(g2, idx), 2) == (0, 1, 0)
    empty = ParentMap(spec.ordering, (0, 0, 0))
    assert block_slice(characteristic_imset(empty, idx), 2) == (0, 0, 0)


def test_characteristic_imset_requires_membership():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    stranger = ParentMap(spec.ordering, (0, 0b1, 0))
    with pytest.raises(DomainError):
        characteristic_imset(stranger, idx)


def test_imset_graph_roundtrip_whole_family():
    spec = full_ordered_family(("a", "b", "c", "d"))
    idx = coordinate_index(spec)
    seen = set()
    for g in enumerate_family(spec):
        c = characteristic_imset(g, idx)
        assert imset_to_graph(c) == g
        seen.add(c.bits)
    assert len(seen) == 64


def test_imset_to_graph_rejects_non_vertex():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    # 1 on the pair {a1,a2} without the singletons breaks the product pattern
    bad = imset_from_bits(idx, [0, 0, 1])
    with pytest.raises(NotAVertexError):
        imset_to_graph(bad)


def test_imset_to_graph_respects_floor():
    o = NodeOrdering(("a", "b", "c"))
    spec = FamilySpec(o, (0, 0, 0b01), (0, 0, 0b11))
    idx = coordinate_index(spec)
    # decoding a vector whose parent set misses the floor must fail
    only_b = imset_from_bits(idx, [0, 1, 0])
    with pytest.raises(NotAVertexError):
        imset_to_graph(only_b)


def test_imset_from_bits_validation():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    with pytest.raises(DomainError):
        imset_from_bits(idx, [1, 0])
    with pytest.raises(DomainError):
        imset_from_bits(idx, [2, 0, 0])


@pytest.mark.parametrize("bad", [b"\x00\x02\x00", b"\x01\x01\xff"])
def test_imset_bytes_must_be_zero_or_one(bad):
    idx = coordinate_index(diagnosis_family(2, 1))
    with pytest.raises(DomainError, match="imset entries must be 0 or 1"):
        CharImset(idx, bad)
    assert CharImset(idx, b"\x01\x00\x01").bits == b"\x01\x00\x01"
    assert CharImset(idx, b"\x00\x00\x00").bits == b"\x00\x00\x00"


def test_bit_accessor():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    g = ParentMap(spec.ordering, (0, 0, 0b01))
    c = characteristic_imset(g, idx)
    assert c.bit(2, 0b01) == 1
    assert c.bit(2, 0b10) == 0
    assert c.bit(2, 0b11) == 0


def test_text_lines():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    g = ParentMap(spec.ordering, (0, 0, 0b11))
    lines = list(imset_text_lines(characteristic_imset(g, idx)))
    assert lines == ["b1 a1 1", "b1 a2 1", "b1 a1,a2 1"]


def test_export_full_vector():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    g = ParentMap(spec.ordering, (0, 0, 0b01))
    full = export_full_vector(characteristic_imset(g, idx))
    # dense order over all |T| >= 2: {a1,a2},{a1,b1},{a2,b1},{a1,a2,b1}
    assert len(full) == 2 ** 3 - 4
    assert full == [0, 1, 0, 0]


@settings(max_examples=60, deadline=None)
@given(family_specs(), st.data())
def test_export_full_vector_on_random_families(spec, data):
    # entry T is 1 exactly when T minus its last node lies in that node's parent set
    spec = dataclasses.replace(spec, max_parents=None)
    g = data.draw(members(spec))
    want = []
    for t in range(1 << spec.n):
        if t.bit_count() >= 2:
            child = t.bit_length() - 1
            want.append((t, int(t & ~g.parents[child] == 1 << child)))
    want.sort(key=lambda e: (e[0].bit_count(), bits_of(e[0])))
    assert export_full_vector(characteristic_imset(g, coordinate_index(spec))) == [
        v for _, v in want]


@settings(max_examples=60, deadline=None)
@given(family_specs(), st.data())
def test_imset_round_trip_on_random_families(spec, data):
    spec = dataclasses.replace(spec, max_parents=None)
    g = data.draw(members(spec))
    assert imset_to_graph(characteristic_imset(g, coordinate_index(spec))) == g


@settings(max_examples=100, deadline=None)
@given(family_specs(), st.data())
def test_one_pass_imset_matches_a_per_block_reference(spec, data):
    spec = dataclasses.replace(spec, max_parents=None)
    idx = coordinate_index(spec)
    assume(1 <= len(idx.blocks) <= 5)
    g = data.draw(members(spec))
    want = b"".join(bytes(int(s & g.parents[b.child] == s) for s in iter_graded_subsets(b.universe))
                    for b in idx.blocks)
    assert characteristic_imset(g, idx).bits == want


def test_block_subsets_are_views_into_one_array():
    spec = FamilySpec(NodeOrdering(tuple("abcde")), (0, 0, 0b01, 0, 0b0100),
                      (0, 0b1, 0b011, 0b0101, 0b1111))
    idx = coordinate_index(spec)
    assert len(idx._all_subsets) == idx.total
    for b in idx.blocks:
        subs = idx.block_subsets(b.child)
        assert np.shares_memory(subs, idx._all_subsets)
        assert not subs.flags.writeable
        assert subs.tolist() == list(iter_graded_subsets(b.universe))
        assert set(idx._child_of[b.offset:b.offset + b.size].tolist()) == {b.child}


@settings(max_examples=100, deadline=None)
@given(family_specs())
def test_lift_rows_are_the_floor_holding_subsets_in_free_graded_lex_order(spec):
    spec = dataclasses.replace(spec, max_parents=None)
    idx = coordinate_index(spec)
    for b in idx.blocks:
        i = b.child
        floor = spec.floor[i]
        rows = idx.lift_rows(i)
        subs = idx.block_subsets(i).tolist()
        assert rows.tolist() == [j for j, s in enumerate(subs) if s & floor == floor != s]
        assert rows.tolist() == [idx.position(i, floor | t) - b.offset
                                 for t in graded_subsets(spec.free_mask(i))[1:].tolist()]
        assert not rows.flags.writeable and idx.lift_rows(i) is rows


@settings(max_examples=100, deadline=None)
@given(family_specs())
def test_joined_block_slices_match_a_per_coordinate_reference(spec):
    # every member, so the slice tables fill up as a census fills them
    spec = dataclasses.replace(spec, max_parents=None)
    assume(spec.family_size() <= 512)
    idx = coordinate_index(spec)
    for g in enumerate_family(spec):
        want = bytes(int(s & g.parents[child] == s) for child, s in idx.coordinates())
        assert characteristic_imset(g, idx).bits == want


def test_a_refused_non_member_leaves_the_slice_tables_unchanged():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0b01, 0), (0, 0, 0b11, 0b111))
    idx = coordinate_index(spec)
    characteristic_imset(ParentMap(o, (0, 0, 0b01, 0b011)), idx)
    before = [dict(table) for table in idx._slices]
    # c misses its floor {a}; b takes a parent over its empty ceiling
    for parents in ((0, 0, 0b10, 0b100), (0, 0b1, 0b01, 0b111)):
        with pytest.raises(DomainError, match="not a member"):
            characteristic_imset(ParentMap(o, parents), idx)
        assert [dict(table) for table in idx._slices] == before


def test_a_one_block_member_is_its_slice():
    spec = diagnosis_family(3, 1)
    idx = coordinate_index(spec)
    for g in enumerate_family(spec):
        bits = characteristic_imset(g, idx).bits
        assert bits is characteristic_imset(g, idx).bits is idx._slices[0][g.parents[3]]


def test_an_index_is_freed_with_its_spec_without_a_collection():
    gc.disable()
    try:
        spec = diagnosis_family(3, 2)
        idx = coordinate_index(spec)
        held = [characteristic_imset(g, idx) for g in enumerate_family(spec)]
        # the spec keeps its index; the index keeps an equal spec with none
        assert coordinate_index(spec) is idx
        assert idx.spec == spec and idx.spec._index is None
        ref = weakref.ref(idx)
        del spec, idx, held
        assert ref() is None
    finally:
        gc.enable()
