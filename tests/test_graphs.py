import contextlib
import copy
import dataclasses
import io
import itertools
import json
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from cimset.cli import main
from cimset.errors import DomainError, FormatError, ResourceError
from cimset.geometry import neighbors
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           enumerate_family, family_contains, family_from_json,
                           family_graph_texts, family_to_json, full_ordered_family,
                           graph_from_json, graph_to_json)
from cimset.learn import k2_backward
from cimset.scoring import ScoreTable
from cimset.subsets import bits_of, mask_of

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def test_ordering_basic():
    o = NodeOrdering(("x", "y", "z"))
    assert o.n == 3
    assert o.index("y") == 1
    assert o.names[2] == "z"
    assert o.mask_of_names(["x", "z"]) == 0b101
    assert o.names_of_mask(0b110) == ("y", "z")
    with pytest.raises(DomainError):
        NodeOrdering(("x", "x"))
    with pytest.raises(DomainError):
        NodeOrdering(())
    with pytest.raises(DomainError):
        o.index("w")


def test_parent_map_validation():
    o = NodeOrdering(("a", "b", "c"))
    g = ParentMap(o, (0, 0b1, 0b11))
    assert g.parents[2] == 0b11
    assert g.parent_names(2) == ("a", "b")
    assert set(g.edges()) == {("a", "b"), ("a", "c"), ("b", "c")}
    # a parent at or after the child violates the ordering
    with pytest.raises(DomainError):
        ParentMap(o, (0, 0b10, 0))
    with pytest.raises(DomainError):
        ParentMap(o, (0b1, 0, 0))
    with pytest.raises(DomainError):
        ParentMap(o, (0, 0))


def test_parent_map_equality_and_hash():
    o = NodeOrdering(("a", "b"))
    assert ParentMap(o, (0, 1)) == ParentMap(o, (0, 1))
    assert hash(ParentMap(o, (0, 1))) == hash(ParentMap(o, (0, 1)))
    assert ParentMap(o, (0, 1)) != ParentMap(o, (0, 0))


def test_parent_map_is_an_ordering_parents_pair():
    o = NodeOrdering(("a", "b", "c"))
    g = ParentMap(o, [0, 0b1, 0b11])
    assert len(g) == 2
    assert tuple(g) == (o, (0, 0b1, 0b11))
    ordering, parents = g
    assert ordering is g.ordering and parents == g.parents
    # equal to, and hashed as, the plain pair it holds
    assert g == (o, (0, 0b1, 0b11))
    assert hash(g) == hash((o, (0, 0b1, 0b11)))
    assert repr(g) == ("ParentMap(ordering=NodeOrdering(names=('a', 'b', 'c')), "
                       "parents=(0, 1, 3))")
    with pytest.raises(AttributeError):
        g.parents = (0, 0, 0)
    # the validating constructor still refuses a wrong count and a non-predecessor
    with pytest.raises(DomainError, match="expected 3 parent sets, got 2"):
        ParentMap(o, (0, 0))
    with pytest.raises(DomainError, match="child 'b' lists a non-predecessor parent"):
        ParentMap(o, (0, 0b10, 0))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_parent_map_copies_and_pickles(clone):
    g = ParentMap(NodeOrdering(("a", "b")), (0, 1))
    h = clone(g)
    assert type(h) is ParentMap and h == g and hash(h) == hash(g)
    assert h.parents == (0, 1) and h.parent_names(1) == ("a",)


def test_diagnosis_family_shape():
    spec = diagnosis_family(3, 2)
    # 3 source nodes a1..a3, then 2 sink nodes b1..b2 drawing on all sources
    assert spec.ordering.names == ("a1", "a2", "a3", "b1", "b2")
    for i in range(3):
        assert spec.free_mask(i) == 0
        assert spec.admissible_count(i) == 1
    for i in (3, 4):
        assert spec.free_mask(i) == 0b111
        assert spec.admissible_count(i) == 8
    assert spec.family_size() == 64
    with pytest.raises(DomainError):
        diagnosis_family(0, 2)


def test_full_ordered_family():
    spec = full_ordered_family(("a", "b", "c", "d"))
    assert [spec.admissible_count(i) for i in range(4)] == [1, 2, 4, 8]
    assert spec.family_size() == 64
    assert spec.free_mask(3) == 0b111


def test_family_spec_floor_ceiling():
    o = NodeOrdering(("a", "b", "c"))
    spec = FamilySpec(o, (0, 0, 0b01), (0, 0b01, 0b11))
    assert spec.free_mask(2) == 0b10
    assert list(spec.iter_admissible(2)) == [0b01, 0b11]
    assert spec.family_size() == 2 * 2
    with pytest.raises(DomainError):
        # floor not inside ceiling
        FamilySpec(o, (0, 0b01, 0), (0, 0, 0b11))
    with pytest.raises(DomainError):
        # ceiling contains a node at/after the child
        FamilySpec(o, (0, 0b10, 0), (0, 0b10, 0b11))


def test_family_spec_max_parents():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0), (0, 1, 0b11, 0b111), max_parents=2)
    # admissible sets for d: all subsets of {a,b,c} of size <= 2
    assert spec.admissible_count(3) == 7
    assert all(p.bit_count() <= 2 for p in spec.iter_admissible(3))
    assert spec.family_size() == 1 * 2 * 4 * 7
    with pytest.raises(DomainError):
        FamilySpec(o, (0, 0, 0, 0b11), (0, 1, 0b11, 0b111), max_parents=1)


def test_iter_admissible_graded_lex():
    spec = full_ordered_family(("a", "b", "c", "d"))
    assert list(spec.iter_admissible(3)) == [0, 0b001, 0b010, 0b100,
                                             0b011, 0b101, 0b110, 0b111]


def test_enumerate_and_contains():
    spec = diagnosis_family(2, 2)
    graphs = list(enumerate_family(spec))
    assert len(graphs) == 16
    assert len(set(graphs)) == 16
    for g in graphs:
        assert family_contains(spec, g)
    other = ParentMap(spec.ordering, (0, 0b1, 0, 0))
    assert not family_contains(spec, other)


def test_enumeration_order_later_children_fastest():
    spec = diagnosis_family(2, 2)
    graphs = list(enumerate_family(spec))
    # first graph: all floors; second: last child advanced one step
    assert graphs[0].parents[2] == 0 and graphs[0].parents[3] == 0
    assert graphs[1].parents[2] == 0 and graphs[1].parents[3] == 0b01


def test_enumerate_refuses_oversized(monkeypatch):
    monkeypatch.setenv("CIMSET_ENUM_LIMIT", "10")
    spec = diagnosis_family(2, 2)
    with pytest.raises(ResourceError, match=r"16 members, over the enumeration limit 10 "
                       r"\(ENUM_LIMIT = 16777216; CIMSET_ENUM_LIMIT overrides it\)"):
        list(enumerate_family(spec))
    assert len(list(enumerate_family(spec, limit=16))) == 16


def test_an_explicit_enumeration_limit_is_refused_without_naming_a_variable(monkeypatch):
    # the variable does not raise a limit that the caller gave, so the refusal
    # names neither it nor any command-line flag
    monkeypatch.setenv("CIMSET_ENUM_LIMIT", "100")
    with pytest.raises(ResourceError) as refused:
        list(enumerate_family(diagnosis_family(2, 2), limit=10))
    assert str(refused.value) == "family has 16 members, over the enumeration limit 10"


@pytest.mark.parametrize("raw", ["-3", "ten"])
def test_enumerate_refuses_a_malformed_limit_variable(monkeypatch, tmp_path, capsys, raw):
    monkeypatch.setenv("CIMSET_ENUM_LIMIT", raw)
    message = f"CIMSET_ENUM_LIMIT must be a nonnegative integer, got '{raw}'"
    with pytest.raises(FormatError, match=message):
        list(enumerate_family(diagnosis_family(2, 2)))
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(family_to_json(diagnosis_family(2, 2))))
    assert main(["enumerate", "--family", str(fam)]) == 1
    assert message in capsys.readouterr().err


def test_graph_json_roundtrip():
    spec = diagnosis_family(2, 1)
    g = ParentMap(spec.ordering, (0, 0, 0b10))
    data = graph_to_json(g)
    assert data["ordering"] == ["a1", "a2", "b1"]
    assert data["parents"] == [[], [], ["a2"]]
    assert graph_from_json(data) == g
    with pytest.raises(FormatError):
        graph_from_json("not a mapping")
    with pytest.raises(FormatError):
        graph_from_json({"ordering": ["a"]})
    with pytest.raises(FormatError):
        graph_from_json({"ordering": ["a", "b"], "parents": [[], ["z"]]})
    with pytest.raises(FormatError, match="parents entry of 'c' lists 'a' twice"):
        graph_from_json({"ordering": ["a", "b", "c"], "parents": [[], [], ["a", "b", "a"]]})
    with pytest.raises(FormatError, match=r"parents entry of 'b' lists \['a'\], not a node name"):
        graph_from_json({"ordering": ["a", "b"], "parents": [[], [["a"]]]})
    with pytest.raises(FormatError, match="child 'a' lists a non-predecessor parent"):
        graph_from_json({"ordering": ["a", "b"], "parents": [["b"], []]})


def test_family_json_roundtrip():
    spec = FamilySpec(NodeOrdering(("a", "b", "c")), (0, 0, 0b01),
                      (0, 0b01, 0b11), max_parents=1)
    spec2 = family_from_json(family_to_json(spec))
    assert spec2 == spec
    assert spec2.max_parents == 1
    with pytest.raises(FormatError):
        family_from_json({"ordering": ["a"], "floor": [[]], "ceiling": [[]],
                          "max_parents": "two"})
    with pytest.raises(FormatError, match="floor must list one entry per node"):
        family_from_json({"ordering": ["a", "b"], "floor": [[]], "ceiling": [[], ["a"]]})
    with pytest.raises(FormatError, match="floor of 'b' is not contained in its ceiling"):
        family_from_json({"ordering": ["a", "b"], "floor": [[], ["a"]], "ceiling": [[], []]})


@pytest.mark.parametrize("doc, field", [
    ({"ordering": ["a", "b"], "floor": [[], []], "ceiling": [[], ["a"]],
      "max_parents": True}, "max_parents"),
    ({"ordering": ["a", "b"], "floor": [[], ["a", "a"]], "ceiling": [[], ["a"]]},
     "floor entry of 'b' lists 'a' twice"),
    ({"ordering": ["a", "b", "c"], "floor": [[], [], []],
      "ceiling": [[], ["a"], ["b", "a", "b"]]}, "ceiling entry of 'c' lists 'b' twice"),
    ({"ordering": ["a", "b"], "floor": [[], [["a"]]], "ceiling": [[], ["a"]]},
     r"floor entry of 'b' lists \['a'\], not a node name"),
    ({"ordering": ["a", "b"], "floor": [[], []], "ceiling": [[], [["a"]]]},
     r"ceiling entry of 'b' lists \['a'\], not a node name"),
    ({"ordering": ["a", "b"], "floor": [[], []], "ceiling": [[], [None]]},
     "ceiling entry of 'b' lists None, not a node name"),
])
def test_family_json_rejects_ambiguous_input(doc, field):
    with pytest.raises(FormatError, match=field):
        family_from_json(doc)


# --- properties of the per-spec admissible lists ---------------------------

@st.composite
def family_specs(draw, min_free=0):
    """Random small families: floor <= ceiling <= predecessors, cap None or 0..n.

    With `min_free`, one child has at least that many free parents.
    """
    n = draw(st.integers(max(1, min_free + 1), 6))
    cap = draw(st.none() | st.integers(0, n))
    floor, ceiling = [], []
    for i in range(n):
        c = draw(st.integers(0, (1 << i) - 1))
        f = draw(st.integers(0, (1 << i) - 1)) & c
        while cap is not None and f.bit_count() > cap:
            f &= f - 1
        floor.append(f)
        ceiling.append(c)
    if min_free:
        wide = draw(st.integers(min_free, n - 1))
        free = sum(1 << b for b in draw(st.sets(st.integers(0, wide - 1), min_size=min_free)))
        ceiling[wide] |= free
        floor[wide] &= ~free
    ordering = NodeOrdering(tuple(f"v{i}" for i in range(n)))
    return FamilySpec(ordering, tuple(floor), tuple(ceiling), cap)


def members(spec):
    """Strategy for one member of spec: an admissible parent set per child."""
    return st.tuples(*(st.sampled_from(spec.iter_admissible(i)) for i in range(spec.n))).map(
        lambda parents: ParentMap(spec.ordering, parents))


def _contains_by_child(spec, g):
    """Membership child by child: floor within the parents, parents within the
    ceiling, and no more parents than the cap."""
    cap = spec.max_parents
    for f, p, c in zip(spec.floor, g.parents, spec.ceiling):
        if f & ~p or p & ~c or (cap is not None and p.bit_count() > cap):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(family_specs(), st.data())
def test_family_contains_matches_a_per_child_reference(spec, data):
    # a member, or any DAG on the ordering: each child any set of predecessors
    anywhere = st.tuples(*(st.integers(0, (1 << i) - 1) for i in range(spec.n))).map(
        lambda parents: ParentMap(spec.ordering, parents))
    g = data.draw(members(spec) | anywhere)
    want = _contains_by_child(spec, g)
    assert family_contains(spec, g) is want
    # an equal ordering built apart is the family's ordering
    twin = NodeOrdering(spec.ordering.names)
    assert family_contains(spec, ParentMap(twin, g.parents)) is want
    # another ordering is refused, member or not
    other = NodeOrdering(tuple(f"w{i}" for i in range(spec.n)))
    with pytest.raises(DomainError, match="different node orderings"):
        family_contains(spec, ParentMap(other, g.parents))


def _brute_admissible(spec, i, cap):
    """Submasks of the ceiling that hold the floor and fit the cap, graded-lex."""
    f, c = spec.floor[i], spec.ceiling[i]
    found = [p for p in range(c + 1)
             if p & ~c == 0 and p & f == f and (cap is None or p.bit_count() <= cap)]
    return sorted(found, key=lambda p: (p.bit_count(), bits_of(p)))


@settings(max_examples=80, deadline=None)
@given(family_specs(), st.data())
def test_admissible_lists_built_once_per_spec(spec, data):
    for i in range(spec.n):
        adm = spec.iter_admissible(i)
        assert list(adm) == _brute_admissible(spec, i, spec.max_parents)
        assert len(adm) == spec.admissible_count(i)
        assert spec.iter_admissible(i) is adm
    assert spec == dataclasses.replace(spec)
    k = data.draw(st.integers(max(f.bit_count() for f in spec.floor), spec.n))
    capped = dataclasses.replace(spec, max_parents=k)
    for i in range(spec.n):
        assert list(capped.iter_admissible(i)) == _brute_admissible(spec, i, k)
        assert list(spec.iter_admissible(i)) == _brute_admissible(spec, i, spec.max_parents)


def _combinations_admissible(spec, i):
    """The admissible sets of child i listed with itertools, size by size."""
    free, floor, cap = bits_of(spec.free_mask(i)), spec.floor[i], spec.max_parents
    sizes = range(len(free) + 1 if cap is None else cap - floor.bit_count() + 1)
    return [floor | mask_of(c) for k in sizes for c in itertools.combinations(free, k)]


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3, 11])
def test_capped_admissible_lists_match_itertools(cap):
    spec = dataclasses.replace(full_ordered_family([f"v{i}" for i in range(12)]),
                               max_parents=cap)
    for i in range(spec.n):
        assert list(spec.iter_admissible(i)) == _combinations_admissible(spec, i)


@pytest.mark.parametrize("cap", [None, 3, 4])
def test_admissible_masks_are_exact_past_bit_62(cap):
    # v69 always has v3 and v63, and may take any of v64..v68
    o = NodeOrdering(tuple(f"v{i}" for i in range(70)))
    floor, free = 1 << 3 | 1 << 63, 0b11111 << 64
    spec = FamilySpec(o, (0,) * 69 + (floor,), (0,) * 69 + (floor | free,), cap)
    adm = spec.iter_admissible(69)
    assert adm == tuple(_combinations_admissible(spec, 69))
    assert adm[:3] == (floor, floor | 1 << 64, floor | 1 << 65)
    assert all(type(p) is int for p in adm)


def test_wide_capped_child_lists_only_its_admissible_sets():
    # 69 possible parents, at most two: 2416 sets, not a lattice of 2**69
    spec = dataclasses.replace(full_ordered_family([f"v{i}" for i in range(70)]),
                               max_parents=2)
    adm = spec.iter_admissible(69)
    assert len(adm) == spec.admissible_count(69) == 2416
    assert list(adm) == _combinations_admissible(spec, 69)


@settings(max_examples=80, deadline=None)
@given(family_specs())
def test_degree_is_the_sum_of_admissible_counts_less_one(spec):
    want = sum(len(_brute_admissible(spec, i, spec.max_parents)) - 1 for i in range(spec.n))
    assert spec.degree() == spec.degree() == want
    uncapped = dataclasses.replace(spec, max_parents=None)
    assert uncapped.degree() == sum((1 << spec.free_mask(i).bit_count()) - 1
                                    for i in range(spec.n))
    assert pickle.loads(pickle.dumps(spec)).degree() == want


@settings(max_examples=40, deadline=None)
@given(family_specs(), st.data())
def test_degree_counts_neighbors(spec, data):
    g = ParentMap(spec.ordering, tuple(data.draw(st.sampled_from(spec.iter_admissible(i)))
                                       for i in range(spec.n)))
    assert sum(1 for _ in neighbors(g, spec)) == spec.degree()
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        fam = os.path.join(tmp, "family.json")
        graph = os.path.join(tmp, "graph.json")
        for path, obj in ((fam, family_to_json(spec)), (graph, graph_to_json(g))):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        with contextlib.redirect_stdout(out):
            assert main(["neighbors", "--family", fam, "--graph", graph, "--count-only"]) == 0
    assert out.getvalue() == f"{spec.degree()}\n"


@settings(max_examples=80, deadline=None)
@given(family_specs())
def test_k2_backward_starts_at_first_largest_set(spec):
    brute = [_brute_admissible(spec, i, spec.max_parents) for i in range(spec.n)]
    table = ScoreTable(spec, tuple({p: 0 for p in adm} for adm in brute))
    # a constant table offers no strict improvement, so each child keeps its start
    got = k2_backward(table, spec).graph.parents
    for i, adm in enumerate(brute):
        top = max(p.bit_count() for p in adm)
        assert got[i] == next(p for p in adm if p.bit_count() == top)


@settings(max_examples=80, deadline=None)
@given(family_specs())
def test_graph_texts_are_json_dumps_of_each_member(spec):
    assume(spec.family_size() <= 512)
    assert list(family_graph_texts(spec)) == [json.dumps(graph_to_json(g))
                                              for g in enumerate_family(spec)]


def test_graph_texts_take_the_limit_that_enumeration_takes(monkeypatch):
    # an explicit limit is the limit, whatever the variable says
    monkeypatch.setenv("CIMSET_ENUM_LIMIT", "100")
    spec = diagnosis_family(2, 2)
    assert len(list(family_graph_texts(spec, limit=16))) == 16
    for call in (enumerate_family, family_graph_texts):
        with pytest.raises(ResourceError) as refused:
            call(spec, limit=15)
        assert str(refused.value) == "family has 16 members, over the enumeration limit 15"


def test_graph_texts_escape_names_as_json_does():
    # a non-ASCII letter, a tab, a quote and a backslash in names that are
    # parents, so each sits in a per-child fragment, not only in the head
    spec = family_from_json(json.loads((FIX / "escaped_names.json").read_text("utf-8")))
    assert spec.ordering.names == ("caf\u00e9\ttab", 'q"uote', "back\\slash", 'sink "\u00e9"')
    texts = list(family_graph_texts(spec))
    assert texts == [json.dumps(graph_to_json(g)) for g in enumerate_family(spec)]
    assert len(texts) == 8
    assert texts[-1].endswith('"parents": [[], [], [], ["caf\\u00e9\\ttab", "q\\"uote", '
                              '"back\\\\slash"]]}')
