"""Polytope structure of a family's imset vertices.

Per child, the possible block slices are the vertices of a simplex, so the
convex hull of a family's imsets is a product of simplices.  This module
gives the closed forms: the product factors, a block's facet system, vertex
adjacency, edge-point decomposition and an edge's separating vectors.

`FacetSystem(k)` is arithmetic only and holds no names: a caller names its
rows from the family's free set and floor, as `cimset facets` and `verify`
do.  It reads its column positions from `subsets.graded_positions` on the
first dense row or evaluation, so constructing one and listing its sparse
rows allocate nothing.  `edge_point_decompose` reads each block's
barycentric weights in the block's graded-lex order, so an edge's endpoints
come graded-lex first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import limits
from .errors import DegeneratePairError, DomainError
from .graphs import FamilySpec, ParentMap, _parent_map_unchecked, family_contains
from .imsets import coordinate_index, require_uncapped
from .subsets import (
    graded_positions,
    iter_graded_subsets,
    iter_submasks,
    mobius_supersets_inplace,
    pext,
)


@dataclass(frozen=True)
class ProductFactor:
    child: int
    dimension: int
    multiplicity: int


@dataclass(frozen=True)
class ProductStructure:
    factors: Tuple[ProductFactor, ...]
    total_dimension: int


def product_structure(spec: FamilySpec) -> ProductStructure:
    """Simplex factors of the family polytope, one per child with free parents.

    A child with f free parents (ceiling minus floor) contributes a simplex
    of dimension 2**f - 1; its coordinates repeat once per subset of the
    floor, recorded as the factor multiplicity.  total_dimension sums
    multiplicity * dimension.  Children with no free parents pin their block
    to a single point and contribute no factor.
    """
    require_uncapped(spec)
    factors = []
    total = 0
    for i in range(spec.n):
        free = spec.free_mask(i)
        if free == 0:
            continue
        dim = (1 << free.bit_count()) - 1
        mult = 1 << spec.floor[i].bit_count()
        factors.append(ProductFactor(i, dim, mult))
        total += mult * dim
    return ProductStructure(tuple(factors), total)


def affine_dimension_formula(spec: FamilySpec) -> int:
    """Affine dimension of the family polytope: the sum of its factors' dimensions.

    Coordinate copies across floor subsets move in lockstep, so multiplicity
    does not increase the affine dimension.
    """
    return sum(f.dimension for f in product_structure(spec).factors)


class FacetSystem:
    """The 2**k facet rows of a (2**k - 1)-simplex block.

    Rows and columns are indexed by subsets s, t of a k-element ground set;
    the entry is (-1)**(|t|-|s|) when s is a subset of t and 0 otherwise.
    Column 0 is the empty set and acts as the constant term; the remaining
    columns follow the block's graded-lex coordinate order.  Evaluating row
    s at a vertex with parent set s' yields 1 if s == s' and 0 otherwise,
    so each row supports the facet opposite the vertex of s.
    """

    def __init__(self, k: int):
        if k < 1:
            raise DomainError("facet system needs a ground set of size >= 1")
        limits.check("LATTICE_BITS", k, f"facet ground set of size {k}")
        self.k = k
        self.universe = (1 << k) - 1

    @property
    def nrows(self) -> int:
        return 1 << self.k

    @cached_property
    def _column(self) -> np.ndarray:
        """Column of every subset: its graded-lex position, built on first use."""
        return graded_positions(self.k)

    def row_sparse(self, s: int) -> Iterator[Tuple[int, int]]:
        """Yield (column subset, sign) for the nonzero entries of row s."""
        if s & ~self.universe:
            raise DomainError("row subset outside the ground set")
        comp = self.universe & ~s
        for u in iter_submasks(comp):
            yield s | u, -1 if u.bit_count() & 1 else 1

    def dense_row(self, s: int) -> List[int]:
        row = [0] * (1 << self.k)
        column = self._column
        for t, sign in self.row_sparse(s):
            row[column[t]] = sign
        return row

    def dense_matrix(self) -> List[List[int]]:
        """All rows, graded-lex by s.  Guarded to small ground sets."""
        limits.check("DENSE_MATRIX_MAX", self.k, f"dense facet matrix for k={self.k}")
        return [self.dense_row(s) for s in iter_graded_subsets(self.universe, include_empty=True)]

    def evaluate(self, s: int, block_vector) -> object:
        """Exact value of row s at a block vector (graded-lex, no constant slot)."""
        if len(block_vector) != (1 << self.k) - 1:
            raise DomainError(
                f"block vector has {len(block_vector)} entries, expected {(1 << self.k) - 1}"
            )
        total = 0
        column = self._column
        for t, sign in self.row_sparse(s):
            if t == 0:
                total += sign
                continue
            x = block_vector[column[t] - 1]
            if isinstance(x, float):
                raise DomainError("facet evaluation requires exact integer or rational entries")
            total = total + (x if sign > 0 else -x)
        return total


def facet_matrix(k: int) -> FacetSystem:
    return FacetSystem(k)


def facet_evaluate(system: FacetSystem, s: int, block_vector) -> object:
    return system.evaluate(s, block_vector)


def facet_system_for_child(spec: FamilySpec, child: int) -> FacetSystem:
    """Facet system of one child's block simplex.

    The ground set is the child's free parent set, bit j its j-th member, so
    a caller names rows from `spec.free_mask(child)`; for children with a
    nonempty floor the system applies to the block coordinates whose subset
    is floor union a free set (the copies over other floor subsets repeat
    those values).
    """
    require_uncapped(spec)
    if not 0 <= child < spec.n:
        raise DomainError(f"no child with index {child}")
    free = spec.free_mask(child)
    if free == 0:
        raise DomainError(
            f"child {spec.ordering.names[child]!r} has no free parents; its block is a point"
        )
    return FacetSystem(free.bit_count())


def _one_child_apart(p1: tuple, p2: tuple) -> bool:
    """The edge rule on two members' parent tuples: they differ at exactly one child.

    The caller vouches that both are members' tuples and that they differ.
    """
    return sum(map(operator.ne, p1, p2)) == 1


def are_neighbors(g1: ParentMap, g2: ParentMap, spec: FamilySpec) -> bool:
    """Vertex adjacency on the family polytope: parent sets differ at exactly one child."""
    if not family_contains(spec, g1) or not family_contains(spec, g2):
        raise DomainError("both graphs must belong to the family")
    if g1.parents == g2.parents:
        raise DegeneratePairError("adjacency is undefined for a vertex paired with itself")
    return _one_child_apart(g1.parents, g2.parents)


def neighbors(g: ParentMap, spec: FamilySpec) -> Iterator[ParentMap]:
    """All polytope neighbors of g: every single-child admissible replacement.

    A non-member and a vertex over NEIGHBOR_LIMIT are refused at the call,
    before any neighbor is produced.
    """
    if not family_contains(spec, g):
        raise DomainError("graph is not a member of the family")
    total = spec.degree()
    limits.check("NEIGHBOR_LIMIT", total, f"vertex has {total} neighbors")
    ordering = g.ordering
    parents = g.parents

    def replacements():
        # _parent_map_unchecked inlined: one C call per neighbor
        new, pm = tuple.__new__, ParentMap
        for i in range(spec.n):
            current = parents[i]
            prefix = parents[:i]
            suffix = parents[i + 1:]
            for p in spec.iter_admissible(i):
                if p != current:
                    yield new(pm, (ordering, prefix + (p,) + suffix))
    return replacements()


@dataclass(frozen=True)
class EdgeDecomposition:
    """x = weight * first + (1 - weight) * second on the polytope edge (first, second).

    For a vertex the pair is (v, v) with weight 1 and is_vertex set.
    """
    child: Optional[int]
    first: ParentMap
    second: ParentMap
    weight: Fraction
    is_vertex: bool


def edge_point_decompose(x, spec: FamilySpec) -> Optional[EdgeDecomposition]:
    """Decompose a point that lies on a vertex or an edge of the family polytope.

    Takes exact rational coordinates over the family's coordinate index.
    Returns None for any point that is neither a vertex nor interior to an
    edge (in particular for points outside the polytope).
    """
    index = coordinate_index(spec)
    if len(x) != index.total:
        raise DomainError(f"expected {index.total} coordinates, got {len(x)}")
    vals = []
    for v in x:
        if isinstance(v, float) or not isinstance(v, Rational):
            raise DomainError("edge decomposition requires exact rational coordinates")
        vals.append(Fraction(v))

    first = list(spec.floor)
    second = list(spec.floor)
    edge_child, weight = None, Fraction(1)
    for block in index.blocks:
        k = block.universe.bit_count()
        subs = index.block_subsets(block.child)
        arr = np.empty(1 << k, dtype=object)
        arr[0] = Fraction(1)
        dense = pext(subs, block.universe)
        arr[dense] = np.array(vals[block.offset:block.offset + block.size], dtype=object)
        # Barycentric coordinates over the block simplex: invert the
        # superset-sum relation x(S) = sum of lambda_P over P containing S.
        mobius_supersets_inplace(arr, k)
        # the weights in the block's graded-lex order: the empty set, then its
        # subsets; so an edge's endpoints come graded-lex first
        lam = arr[np.concatenate(([0], dense))]
        support = np.flatnonzero(lam != 0)
        if len(support) > 2 or any(lam[support] < 0):
            return None
        parents = np.concatenate(([0], subs))[support].tolist()
        first[block.child], second[block.child] = parents[0], parents[-1]
        if len(parents) == 2:
            if edge_child is not None:
                return None
            edge_child, weight = block.child, lam[support[0]]

    g1 = _parent_map_unchecked(spec.ordering, tuple(first))
    g2 = _parent_map_unchecked(spec.ordering, tuple(second))
    if not family_contains(spec, g1) or not family_contains(spec, g2):
        return None
    return EdgeDecomposition(edge_child, g1, g2, weight, edge_child is None)


def vertex_block_vector(k: int, parent_positions_mask: int) -> Tuple[int, ...]:
    """Block slice of the vertex whose parent set is the given mask over range(k)."""
    universe = (1 << k) - 1
    if parent_positions_mask & ~universe:
        raise DomainError("parent mask outside the ground set")
    return tuple(
        1 if (t & parent_positions_mask) == t else 0
        for t in iter_graded_subsets(universe)
    )


# --- hand-built separating vectors for single-symptom blocks -------------

def lemma32_witness(pa1: int, pa2: int, m: int) -> Dict[int, int]:
    """A cost vector over one block separating the edge (pa1, pa2).

    Returns a sparse map from coordinate subset to weight, built by the
    case analysis on how the two parent sets differ.
    """
    universe = (1 << m) - 1
    if pa1 & ~universe or pa2 & ~universe:
        raise DomainError("parent sets must live on the m disease nodes")
    if pa1 == pa2:
        raise DegeneratePairError("witness requested for identical parent sets")
    w: Dict[int, int] = {}

    def singles(mask, value):
        mm = mask
        while mm:
            low = mm & -mm
            w[low] = w.get(low, 0) + value
            mm ^= low

    d12 = pa1 & ~pa2
    d21 = pa2 & ~pa1
    if not d12 or not d21:
        lo, hi = (pa1, pa2) if not d12 else (pa2, pa1)
        extra = hi & ~lo
        if extra.bit_count() > 1:
            singles(lo, 1)
            singles(universe & ~lo, -1)
            w[extra] = w.get(extra, 0) + extra.bit_count()
        else:
            singles(lo, 1)
            singles(universe & ~hi, -1)
    else:
        inter = pa1 & pa2
        union = pa1 | pa2
        n12, n21 = d12.bit_count(), d21.bit_count()
        if n12 > 1 and n21 > 1:
            singles(inter, 1)
            singles(universe & ~inter, -1)
            w[d12] = w.get(d12, 0) + n12 + 1
            w[d21] = w.get(d21, 0) + n21 + 1
            w[d12 | d21] = w.get(d12 | d21, 0) - 2
        elif n12 == 1 and n21 == 1:
            singles(union, 1)
            singles(universe & ~union, -1)
            w[d12 | d21] = w.get(d12 | d21, 0) - 2
        else:
            base, large = (pa1, d21) if n12 == 1 else (pa2, d12)
            singles(base, 1)
            singles(universe & ~base, -1)
            w[large] = w.get(large, 0) + large.bit_count() + 1
            w[d12 | d21] = w.get(d12 | d21, 0) - 2
    return {mask: val for mask, val in w.items() if val}


def witness_block_value(w: Dict[int, int], parent_mask: int) -> int:
    """Evaluate a sparse block cost vector on the vertex with the given parents."""
    return sum(val for mask, val in w.items() if (mask & parent_mask) == mask)
