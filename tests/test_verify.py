import contextlib
import dataclasses
import gc
import itertools
import json
import random
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import cimset.graphs
import cimset.imsets
import cimset.oracle
import cimset.verify
from cimset.errors import FormatError, ResourceError
from cimset.graphs import diagnosis_family, family_from_json, full_ordered_family
from cimset.verify import CHECKS, verify_family
from test_graphs import family_specs

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def _records(lines):
    """The certificates of `emit`'s lines, each of which ends in its one newline."""
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines), lines
    return [json.loads(line) for line in lines]


def test_rows_of_a_fixture_family_follow_checks_order():
    spec = _diag_2_2()
    lines = []
    rows = verify_family(spec, CHECKS, 2000, 0, lines.append)
    records = _records(lines)
    assert rows == [("product", True, "16 vertices = product of per-block slice counts"),
                    ("dimension", True, "affine rank 6, formula 6"),
                    ("adjacency", True, "all 120 pairs"),
                    ("facets", True, "8 rows certified")]
    assert len(records) == 120 + 8 and all(r["verified"] for r in records)
    # the rows keep CHECKS order whatever order the names come in
    assert verify_family(spec, CHECKS[::-1], 2000, 0) == rows


def test_unknown_check_refused_before_enumeration():
    # 65536 members: the size guard would refuse too, but the names are checked first
    with pytest.raises(FormatError, match="unknown checks: nonsense, bogus"):
        verify_family(diagnosis_family(4, 4), ["product", "nonsense", "bogus"], 2000, 0)
    # an empty name, as `--checks adjacency,` gives, is shown quoted, and the
    # message ends with the names there are
    with pytest.raises(FormatError) as refused:
        verify_family(diagnosis_family(4, 4), ["adjacency", ""], 2000, 0)
    assert str(refused.value) == \
        "unknown checks: '' (choose from product, dimension, adjacency, facets)"


def test_size_guard():
    with pytest.raises(ResourceError,
                       match="refuses families over .* has 65536 members, over") as refused:
        verify_family(diagnosis_family(4, 4), CHECKS, 2000, 0)
    assert str(refused.value).endswith("over the limit ADJACENCY_CLOUD_MAX = 4096")
    assert verify_family(diagnosis_family(4, 3), ["product"], 0, 0)[0][1]


def test_falsified_adjacency_row(monkeypatch):
    # the closed-form rule denies the oracle's first edge, the pair of members 0 and 1
    monkeypatch.setattr(cimset.verify, "_one_child_apart", lambda *a, **k: False)
    lines = []
    rows = verify_family(diagnosis_family(2, 1), ["adjacency"], 2000, 0, lines.append)
    assert rows == [("adjacency", False, "mismatch on vertex pair 0,1")]
    assert [r["kind"] for r in _records(lines)] == ["adjacency"]


def _diag_2_2():
    return family_from_json(json.loads((FIX / "diag_2_2.json").read_text()))


def test_falsified_facet_row_fails_every_child_of_its_block_size(monkeypatch):
    # diag_2_2's children b1 and b2 both have k = 2: one falsified (k, s)
    # verdict is a falsified row of each
    check = cimset.verify.oracle_facet_check

    def deny_a1(sys_row, cloud):
        cert = check(sys_row, cloud)
        return dataclasses.replace(cert, verified=False) if sys_row[0] == 0b01 else cert

    monkeypatch.setattr(cimset.verify, "oracle_facet_check", deny_a1)
    lines = []
    rows = verify_family(_diag_2_2(), ["facets"], 2000, 0, lines.append)
    assert rows == [("facets", False, "2 rows falsified")]
    assert [(r["child"], r["s"]) for r in _records(lines) if not r["verified"]] == \
        [("b1", ["a1"]), ("b2", ["a1"])]


def test_facet_blocks_over_the_limit_are_skipped_by_name():
    records = []
    rows = verify_family(_diag_2_2(), ["facets"], 2, 0, records.append)
    assert rows == [("facets", True, "0 rows certified; skipped blocks over --limit: b1, b2")]
    assert records == []


def test_facets_build_no_member_matrix_when_every_block_is_skipped(monkeypatch):
    # the member matrix is built for the first block certified, so a run
    # that skips every block never reaches numpy
    monkeypatch.setattr(cimset.verify, "np", None)
    rows = verify_family(_diag_2_2(), ["facets"], 2, 0)
    assert rows == [("facets", True, "0 rows certified; skipped blocks over --limit: b1, b2")]


def test_children_of_one_block_size_get_the_same_facet_lines():
    lines = []
    verify_family(_diag_2_2(), ["facets"], 2000, 0, lines.append)
    by_child = {}
    for r in _records(lines):
        by_child.setdefault(r.pop("child"), []).append(r)
    assert list(by_child) == ["b1", "b2"]
    assert by_child["b1"] == by_child["b2"] and len(by_child["b1"]) == 4


@pytest.mark.parametrize("spec, ranks", [
    (_diag_2_2(), 1),
    # blocks of k = 0, 1, 2 and 3: one rank for each k > 0
    (full_ordered_family(("a1", "a2", "a3", "a4")), 3),
])
def test_facets_rank_each_block_size_once(spec, ranks):
    with mock.patch.object(cimset.oracle, "_rank", wraps=cimset.oracle._rank) as rank:
        rows = verify_family(spec, ["facets"], 2000, 0)
    assert rows[0][1] and rank.call_count == ranks


def test_the_adjacency_loop_checks_no_pair_for_membership():
    # every module that bound graphs.family_contains counts into one spy: the
    # encoder checks each of the 16 members once, and the 120 pairs, drawn
    # from the family's own enumeration, check none
    spec = _diag_2_2()
    original = cimset.graphs.family_contains
    spy = mock.Mock(wraps=original)
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("cimset") and getattr(module, "family_contains", None) is original:
                stack.enter_context(mock.patch.object(module, "family_contains", spy))
        rows = verify_family(spec, ["adjacency"], 2000, 0)
    assert rows == [("adjacency", True, "all 120 pairs")]
    assert spec.family_size() == 16 and spy.call_count <= 16


@settings(max_examples=150, deadline=None)
@given(family_specs(), st.integers(0, 2 ** 32))
def test_every_check_passes_on_random_families(spec, seed):
    # coordinate geometry covers uncapped families only
    spec = dataclasses.replace(spec, max_parents=None)
    size = spec.family_size()
    assume(size <= 64)
    lines = []
    rows = verify_family(spec, CHECKS, 40, seed, lines.append)
    records = _records(lines)
    assert [name for name, _, _ in rows] == list(CHECKS)
    assert all(ok for _, ok, _ in rows), rows
    assert all(r["verified"] for r in records)
    free = [spec.free_mask(i).bit_count() for i in range(spec.n)]
    facet_rows = sum(1 << k for k in free if k and 1 << k <= 40)
    assert len(records) == min(40, size * (size - 1) // 2) + facet_rows


def test_facets_are_certified_on_the_members_imsets(monkeypatch):
    # the first member, the empty graph, mis-encoded: its block b1 gets the
    # non-vertex (0, 0, 1), so b1's four rows fail while b2's pass
    encode = cimset.verify.characteristic_imset
    first = []

    def misencode(g, idx):
        c = encode(g, idx)
        if first:
            return c
        first.append(g)
        bits = bytearray(c.bits)
        bits[2] ^= 1
        return dataclasses.replace(c, bits=bytes(bits))

    monkeypatch.setattr(cimset.verify, "characteristic_imset", misencode)
    lines = []
    rows = verify_family(_diag_2_2(), ["facets"], 2000, 0, lines.append)
    assert rows == [("facets", False, "4 rows falsified")]
    assert [(r["child"], r["verified"]) for r in _records(lines)] == \
        [("b1", False)] * 4 + [("b2", True)] * 4


@pytest.mark.parametrize("size, limit", [(20, 50), (200, 10), (9, 0)])
def test_sampled_pairs_are_those_of_the_listed_pairs(size, limit):
    # (20, 50) draws from a pool, (200, 10) from a set: random.sample's two branches
    for seed in (0, 1, 17):
        listed = list(itertools.combinations(range(size), 2))
        want = sorted(random.Random(seed).sample(listed, limit))
        assert list(cimset.verify._sampled_pairs(size, limit, seed)) == want


def test_sampled_adjacency_pairs_keep_their_certificates():
    spec = diagnosis_family(3, 1)  # 8 members, 28 pairs
    lines = []
    rows = verify_family(spec, ["adjacency"], 10, 3, lines.append)
    assert rows == [("adjacency", True, "10 sampled pairs (seed 3)")]
    members = [cimset.graphs.graph_to_json(g) for g in cimset.graphs.enumerate_family(spec)]
    pairs = sorted(random.Random(3).sample(list(itertools.combinations(range(8), 2)), 10))
    assert [r["pair"] for r in _records(lines)] == [[members[i], members[j]] for i, j in pairs]


def _reference_lines(spec, limit, seed):
    """The adjacency lines as one `json.dumps` of each whole record, its two
    graph dicts included, on an oracle pass of the test's own."""
    members = list(cimset.graphs.enumerate_family(spec))
    idx = cimset.imsets.coordinate_index(spec)
    vecs = [cimset.imsets.characteristic_imset(g, idx).bits for g in members]
    pairs = list(itertools.combinations(range(len(members)), 2))
    if len(pairs) > limit:
        pairs = sorted(random.Random(seed).sample(pairs, limit))
    cloud = cimset.oracle.VertexCloud(vecs)
    lines = []
    for i, j in pairs:
        cert = cimset.oracle.oracle_adjacent(vecs[i], vecs[j], cloud)
        ref = {"kind": cert.kind, "verified": cert.verified,
               "pair": [cimset.graphs.graph_to_json(members[i]),
                        cimset.graphs.graph_to_json(members[j])]}
        lines.append(json.dumps(ref) + "\n")
    return lines


def _assert_lines_are_json_dumps(spec, limit, seed):
    lines = []
    rows = verify_family(spec, ["adjacency", "facets"], limit, seed, lines.append)
    assert all(ok for _, ok, _ in rows), rows
    want = _reference_lines(spec, limit, seed)
    assert lines[:len(want)] == want
    facets = _records(lines[len(want):])
    assert lines[len(want):] == [json.dumps(r) + "\n" for r in facets]
    assert all(r["kind"] == "facet" for r in facets)
    return lines


@settings(max_examples=120, deadline=None)
@given(family_specs(), st.integers(0, 80), st.integers(0, 2 ** 32))
def test_certificate_lines_are_the_json_dumps_of_each_record(spec, limit, seed):
    # limits below a family's pair count take _sampled_pairs, the rest all pairs
    spec = dataclasses.replace(spec, max_parents=None)
    assume(spec.family_size() <= 64)
    _assert_lines_are_json_dumps(spec, limit, seed)


def test_certificate_lines_escape_node_names_as_json_does():
    spec = full_ordered_family(("a\"b", "c\\d", "é", "x y"))  # 64 members, 2016 pairs
    lines = _assert_lines_are_json_dumps(spec, 60, 5)
    assert len(lines) == 60 + 2 + 4 + 8  # sampled pairs, then facet rows of k = 1, 2, 3
    text = "".join(lines)
    assert '"a\\"b"' in text and '"c\\\\d"' in text and '"\\u00e9"' in text
    assert '"x y"' in text and "é" not in text


def test_a_verified_family_frees_its_index_without_a_collection():
    gc.disable()
    try:
        spec = diagnosis_family(3, 2)
        assert all(ok for _, ok, _ in verify_family(spec, CHECKS, 2000, 0, [].append))
        ref = weakref.ref(cimset.imsets.coordinate_index(spec))
        del spec
        assert ref() is None
    finally:
        gc.enable()


def test_facets_of_a_block_with_two_byte_lanes():
    # the row of s = {} at k = 7 has 128 coefficients of 1 or -1: 2·bound = 256
    with mock.patch.object(cimset.oracle.VertexCloud, "lanes",
                           autospec=True, side_effect=cimset.oracle.VertexCloud.lanes) as lanes:
        rows = verify_family(diagnosis_family(7, 1), ["facets"], 2000, 0)
    assert rows == [("facets", True, "128 rows certified")]
    assert {call.args[1] for call in lanes.call_args_list} == {1, 2}
