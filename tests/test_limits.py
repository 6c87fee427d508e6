"""Every size refusal goes through cimset.limits and names the constant it hit."""

import pytest

from cimset import limits
from cimset.errors import DomainError, ResourceError
from cimset.geometry import FacetSystem, neighbors
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           enumerate_family, family_graph_texts)
from cimset.imsets import (characteristic_imset, coordinate_index, export_full_vector,
                           full_vector_labels)
from cimset.oracle import affine_dimension, learn_bruteforce, oracle_adjacent
from cimset.scoring import Dataset, ScoreTable, build_score_table
from cimset.subsets import pdep, pext
from cimset.verify import verify_family
from test_oracle import _WIDE_PYRAMID

DIAG = diagnosis_family(2, 1)  # 4 members, each with 3 neighbors
EMPTY = ParentMap(DIAG.ordering, (0, 0, 0))
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _one_wide_child(n):
    """n nodes whose last child may take every other node as a parent."""
    ordering = NodeOrdering(tuple(f"v{i}" for i in range(n)))
    return FamilySpec(ordering, (0,) * n, (0,) * (n - 1) + ((1 << n - 1) - 1,))


# (constant, a small value for it, the call's name, a call that the small value
# refuses); a case's id is its constant and its call's name, so a case added
# anywhere renames no other
REFUSALS = [
    ("ENUM_LIMIT", 3, "enumerate_family", lambda: list(enumerate_family(DIAG))),
    ("LATTICE_BITS", 1, "coordinate_index", lambda: coordinate_index(DIAG)),
    ("LATTICE_BITS", 1, "FacetSystem", lambda: FacetSystem(2)),
    ("LATTICE_BITS", 2, "export_full_vector", lambda: export_full_vector(
        characteristic_imset(EMPTY, coordinate_index(DIAG)))),
    ("DENSE_MATRIX_MAX", 1, "dense_matrix", lambda: FacetSystem(2).dense_matrix()),
    ("NEIGHBOR_LIMIT", 2, "neighbors", lambda: list(neighbors(EMPTY, DIAG))),
    ("RANK_MAX", 1, "affine_dimension", lambda: affine_dimension(SQUARE)),
    ("ADJACENCY_CLOUD_MAX", 3, "oracle_adjacent",
     lambda: oracle_adjacent((0, 0), (1, 0), SQUARE)),
    ("BRUTEFORCE_MAX", 3, "learn_bruteforce", lambda: learn_bruteforce(
        DIAG, ScoreTable(DIAG, ({0: 0}, {0: 0}, {0: 0, 1: 0, 2: 0, 3: 0})))),
    ("TABLE_CHILD_LIMIT", 3, "build_score_table", lambda: build_score_table(
        Dataset(DIAG.ordering, (2, 2, 2), ((0, 1, 1), (1, 0, 1))), DIAG, "ll")),
    ("ADJACENCY_CLOUD_MAX", 3, "verify_family", lambda: verify_family(DIAG, ["product"], 0, 0)),
    ("MASK_BITS", 1, "coordinate_index", lambda: coordinate_index(DIAG)),
    # the adjacency LP: three distinct rows and the convexity row, over three
    # candidates and t
    ("LP_MAX", 3, "oracle_adjacent",
     lambda: oracle_adjacent(_WIDE_PYRAMID[0], _WIDE_PYRAMID[1], _WIDE_PYRAMID)),
]


def test_every_constant_has_a_refusal_case():
    constants = {name for name in vars(limits) if name.isupper()}
    assert len(constants) == 10
    assert {name for name, _, _, _ in REFUSALS} == constants


@pytest.mark.parametrize("name, small, call", [(name, small, call)
                                               for name, small, _, call in REFUSALS],
                         ids=[f"{name}-{what}" for name, _, what, _ in REFUSALS])
def test_refusal_names_its_constant(monkeypatch, name, small, call):
    monkeypatch.delenv("CIMSET_ENUM_LIMIT", raising=False)
    call()  # within the default limit
    monkeypatch.setattr(limits, name, small)
    with pytest.raises(ResourceError, match=rf"\b{name} = {small}\b") as refused:
        call()
    if name == "ENUM_LIMIT":
        assert "enumeration limit" in str(refused.value)
        assert "CIMSET_ENUM_LIMIT" in str(refused.value) and "--limit" not in str(refused.value)
    else:
        assert "over the limit" in str(refused.value)


# --- the lazy producers refuse at the call, before their first item --------

@pytest.mark.parametrize("name, call", [
    ("ENUM_LIMIT", lambda: enumerate_family(DIAG)),
    ("NEIGHBOR_LIMIT", lambda: neighbors(EMPTY, DIAG)),
])
def test_bare_call_refuses(monkeypatch, name, call):
    monkeypatch.delenv("CIMSET_ENUM_LIMIT", raising=False)
    monkeypatch.setattr(limits, name, 2)
    with pytest.raises(ResourceError, match=rf"\b{name} = 2\b"):
        call()


def test_graph_texts_refuse_what_enumeration_refuses(monkeypatch):
    monkeypatch.delenv("CIMSET_ENUM_LIMIT", raising=False)
    monkeypatch.setattr(limits, "ENUM_LIMIT", 3)
    with pytest.raises(ResourceError, match=r"family has 4 members, over the enumeration limit 3"):
        family_graph_texts(DIAG)


def test_bare_neighbors_call_refuses_a_non_member():
    # a2 may have no parents in DIAG
    with pytest.raises(DomainError, match="graph is not a member of the family"):
        neighbors(ParentMap(DIAG.ordering, (0, 0b01, 0)), DIAG)


# --- merged limits refuse the same inputs as the constants they replace ----

def test_lattice_bits_bounds_facet_ground_sets():
    assert FacetSystem(22).nrows == 1 << 22
    with pytest.raises(ResourceError, match="facet ground set of size 23.*LATTICE_BITS = 22"):
        FacetSystem(23)


def test_lattice_bits_bounds_a_block():
    # the bound it replaces refused a block of 2**k - 1 coordinates over 2**22, so k > 22
    with pytest.raises(ResourceError, match="ceiling of 'v23' has 23 nodes"):
        coordinate_index(_one_wide_child(24))


def test_mask_bits_bounds_a_ceiling_node_position():
    # int64 masks hold node positions 0..62; a narrow ceiling is refused by
    # where its nodes sit, not by how many there are
    o = NodeOrdering(tuple(f"v{i}" for i in range(65)))
    high = FamilySpec(o, (0,) * 65, (0,) * 64 + (1 << 62 | 1 << 61,))
    assert coordinate_index(high).block_subsets(64).tolist() == [1 << 61, 1 << 62, 3 << 61]
    past = FamilySpec(o, (0,) * 65, (0,) * 64 + (1 << 63 | 1,))
    with pytest.raises(ResourceError, match="ceiling of 'v64' holds node position 63, so its "
                                            "masks need 64 bits, over the limit MASK_BITS = 63"):
        coordinate_index(past)


def test_mask_bits_bounds_pdep_and_pext():
    # int64 shifts would spread onto bit 63 as a negative mask, and past it to 0
    high = [1 << 61, 1 << 62, 3 << 61]
    assert pdep([1, 2, 3], 3 << 61).tolist() == high
    assert pext(high, 3 << 61).tolist() == [1, 2, 3]
    for universe, top in [(1 << 63, 64), (1 << 64, 65), (1 << 64 | 1 << 65, 66)]:
        for fn in (pdep, pext):
            with pytest.raises(ResourceError, match=f"int64 masks need {top} bits, "
                                                    "over the limit MASK_BITS = 63"):
                fn([1, 2, 3], universe)


def test_lattice_bits_bounds_the_full_vector():
    spec = FamilySpec(NodeOrdering(tuple(f"v{i}" for i in range(23))), (0,) * 23, (0,) * 23)
    c = characteristic_imset(ParentMap(spec.ordering, (0,) * 23), coordinate_index(spec))
    with pytest.raises(ResourceError, match="full vector over 23 nodes"):
        export_full_vector(c)


def test_lattice_bits_bounds_the_full_vector_labels():
    # the labels span the same 2**n node sets as the vector they name
    spec = FamilySpec(NodeOrdering(tuple(f"v{i}" for i in range(23))), (0,) * 23, (0,) * 23)
    with pytest.raises(ResourceError, match="full vector over 23 nodes.*LATTICE_BITS = 22"):
        full_vector_labels(spec)


# pairs whose adjacency LP, over the support rows that are distinct plus
# the convexity row and over the candidates plus t, is taller than it is
# wide (5x4: an edge, certified by a Farkas vector) and wider than it is
# tall (5x6: a non-edge, on which no two candidates sum to the pair)
_LP_SHAPES = {
    "5x4": ([(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 0)], 1, 3),
    "5x6": ([(0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 1, 1), (0, 1, 0, 0, 0),
             (1, 0, 0, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 0)], 1, 6),
}


@pytest.mark.parametrize("shape", sorted(_LP_SHAPES))
def test_lp_max_bounds_the_adjacency_lp_rows_and_columns(monkeypatch, shape):
    cloud, i, j = _LP_SHAPES[shape]
    m, n = map(int, shape.split("x"))
    monkeypatch.setattr(limits, "LP_MAX", max(m, n))
    cert = oracle_adjacent(cloud[i], cloud[j], cloud)
    assert cert.kind == ("adjacency" if m > n else "non-adjacency") and cert.verified
    assert ("farkas" in cert.payload) == (m > n)
    monkeypatch.setattr(limits, "LP_MAX", max(m, n) - 1)
    with pytest.raises(ResourceError, match=rf"LP of size {m}x{n}.*LP_MAX = {max(m, n) - 1}"):
        oracle_adjacent(cloud[i], cloud[j], cloud)
