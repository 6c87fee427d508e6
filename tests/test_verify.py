import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cimset.verify
from cimset.errors import FormatError, ResourceError
from cimset.graphs import diagnosis_family, family_from_json
from cimset.verify import CHECKS, verify_family
from test_graphs import family_specs

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def test_rows_of_a_fixture_family_follow_checks_order():
    spec = family_from_json(json.loads((FIX / "diag_2_2.json").read_text()))
    records = []
    rows = verify_family(spec, CHECKS, 2000, 0, records.append)
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


def test_size_guard():
    with pytest.raises(ResourceError,
                       match="refuses families over .* has 65536 members, over") as refused:
        verify_family(diagnosis_family(4, 4), CHECKS, 2000, 0)
    assert str(refused.value).endswith("over the limit ADJACENCY_CLOUD_MAX = 4096")
    assert verify_family(diagnosis_family(4, 3), ["product"], 0, 0)[0][1]


def test_falsified_adjacency_row(monkeypatch):
    # the closed-form rule denies the oracle's first edge, the pair of members 0 and 1
    monkeypatch.setattr(cimset.verify, "are_neighbors", lambda *a, **k: False)
    records = []
    rows = verify_family(diagnosis_family(2, 1), ["adjacency"], 2000, 0, records.append)
    assert rows == [("adjacency", False, "mismatch on vertex pair 0,1")]
    assert [r["kind"] for r in records] == ["adjacency"]


@settings(max_examples=150, deadline=None)
@given(family_specs(), st.integers(0, 2 ** 32))
def test_every_check_passes_on_random_families(spec, seed):
    # coordinate geometry covers uncapped families only
    spec = dataclasses.replace(spec, max_parents=None)
    size = spec.family_size()
    assume(size <= 64)
    records = []
    rows = verify_family(spec, CHECKS, 40, seed, records.append)
    assert [name for name, _, _ in rows] == list(CHECKS)
    assert all(ok for _, ok, _ in rows), rows
    assert all(r["verified"] for r in records)
    free = [spec.free_mask(i).bit_count() for i in range(spec.n)]
    facet_rows = sum(1 << k for k in free if k and 1 << k <= 40)
    assert len(records) == min(40, size * (size - 1) // 2) + facet_rows
