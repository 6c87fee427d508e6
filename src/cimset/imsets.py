"""Characteristic imsets over a block coordinate index.

For a family, only coordinates that can vary or are genuinely part of the
support are stored: one block per child i with a nonempty ceiling, holding
a coordinate for every nonempty subset S of the ceiling, in graded-lex
order.  Coordinate (i, S) stands for the node set S together with child i.
The imset of a graph has bit(i, S) = 1 exactly when S is contained in the
parent set of i.

`coordinate_index` builds the family's `CoordinateIndex` on the first call
and keeps it on the spec, as `iter_admissible` keeps its lists; every call
still refuses what a new index would, a capped family or a block over the
limits as they stand at the call.  The index holds every coordinate's
subset mask in one array, of which each block's `block_subsets` is a
read-only view, and the child of every coordinate.  `lift_rows(child)`,
built on first use and read-only, is the one owner of a block's
minimal-lift rows: the positions of the subsets that hold the child's floor
and differ from it, in the free set's graded-lex order.  `position(child,
mask)` is the row of `block_subsets` equal to the mask, plus the block's
offset.  `require_uncapped` is the one refusal of a capped family, with one
message; the index constructor, `product_structure` and
`facet_system_for_child` all call it, so no capped index exists.
`characteristic_imset` is one numpy pass over all blocks: a coordinate is 1
where its subset lies in its child's parent set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import limits
from .errors import DomainError, NotAVertexError, UnsupportedError
from .graphs import FamilySpec, ParentMap, _parent_map_unchecked, family_contains
from .subsets import graded_positions, graded_subsets


@dataclass(frozen=True)
class Block:
    child: int
    universe: int
    offset: int
    size: int


def require_uncapped(spec: FamilySpec) -> None:
    """Refuse a capped family: its blocks are not full simplices over their ceilings."""
    if spec.max_parents is not None:
        raise UnsupportedError(
            "coordinate geometry for capped families is unsupported: the block "
            "polytopes are no longer full simplices over the ceiling lattice"
        )


def _require_layout(spec: FamilySpec) -> None:
    """Refuse a capped family, or a ceiling over LATTICE_BITS nodes or MASK_BITS mask bits."""
    require_uncapped(spec)
    for i, universe in enumerate(spec.ceiling):
        if universe:
            name, k, top = spec.ordering.names[i], universe.bit_count(), universe.bit_length()
            limits.check("LATTICE_BITS", k, f"ceiling of {name!r} has {k} nodes")
            limits.check("MASK_BITS", top, f"ceiling of {name!r} holds node position "
                                           f"{top - 1}, so its masks need {top} bits")


class CoordinateIndex:
    """Layout of the stored imset coordinates for one family."""

    def __init__(self, spec: FamilySpec):
        _require_layout(spec)
        self.spec = spec
        blocks = []
        subset_arrays = []
        offset = 0
        for i in range(spec.n):
            universe = spec.ceiling[i]
            if universe == 0:
                continue
            size = (1 << universe.bit_count()) - 1
            blocks.append(Block(i, universe, offset, size))
            subset_arrays.append(graded_subsets(universe)[1:])
            offset += size
        self.blocks: Tuple[Block, ...] = tuple(blocks)
        self.total = offset
        # every coordinate's subset mask and child, in storage order; each
        # block's subsets are a read-only view into the one array
        subsets = np.concatenate(subset_arrays) if blocks else np.zeros(0, dtype=np.int64)
        subsets.flags.writeable = False
        self._all_subsets = subsets
        self._subsets = tuple(subsets[b.offset:b.offset + b.size] for b in blocks)
        self._child_of = np.repeat(np.array([b.child for b in blocks], dtype=np.intp),
                                   [b.size for b in blocks])
        self._block_of_child = {b.child: j for j, b in enumerate(blocks)}
        self._lifts = {}  # child -> lift_rows(child)

    def __eq__(self, other):
        return isinstance(other, CoordinateIndex) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def block_for_child(self, child: int) -> Block:
        j = self._block_of_child.get(child)
        if j is None:
            raise DomainError(
                f"child {self.spec.ordering.names[child]!r} has no coordinate block"
            )
        return self.blocks[j]

    def block_subsets(self, child: int):
        """The numpy array of subset masks for one child's block."""
        return self._subsets[self._block_of_child[child]]

    def lift_rows(self, child: int) -> np.ndarray:
        """The positions in the child's block of its minimal lifts: the subsets
        that hold the floor and differ from it, in the free set's graded-lex
        order.  A read-only array, built on first use."""
        if child not in self._lifts:
            subs, floor = self.block_subsets(child), self.spec.floor[child]
            rows = np.flatnonzero(((subs & floor) == floor) & (subs != floor))
            rows.flags.writeable = False
            self._lifts[child] = rows
        return self._lifts[child]

    def position(self, child: int, subset_mask: int) -> int:
        block = self.block_for_child(child)
        if subset_mask == 0 or subset_mask & ~block.universe:
            raise DomainError("coordinate subset must be a nonempty subset of the ceiling")
        # the block lists its subsets in graded-lex order
        row = np.flatnonzero(self.block_subsets(child) == subset_mask)
        return block.offset + int(row[0])

    def coordinates(self) -> Iterator[Tuple[int, int]]:
        """All (child, subset mask) pairs in storage order."""
        for j, block in enumerate(self.blocks):
            for s in self._subsets[j]:
                yield block.child, int(s)


def coordinate_index(spec: FamilySpec) -> CoordinateIndex:
    """The family's coordinate index, built on the first call and kept on the spec.

    Every call refuses what a new index would: a capped family, or a block
    over the limits as they stand at the call.
    """
    _require_layout(spec)
    index = spec._index
    if index is None:
        index = CoordinateIndex(spec)
        object.__setattr__(spec, "_index", index)
    return index


@dataclass(frozen=True)
class CharImset:
    """A 0/1 coordinate vector over a CoordinateIndex, stored as bytes."""

    index: CoordinateIndex
    bits: bytes

    def __post_init__(self):
        if len(self.bits) != self.index.total:
            raise DomainError(
                f"expected {self.index.total} coordinates, got {len(self.bits)}"
            )
        if self.bits.translate(None, b"\x00\x01"):
            raise DomainError("imset entries must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        """The entries, ints 0 and 1: an imset reads as its coordinate vector."""
        return iter(self.bits)

    def bit(self, child: int, subset_mask: int) -> int:
        return self.bits[self.index.position(child, subset_mask)]

    def block_slice_bytes(self, child: int) -> bytes:
        block = self.index.block_for_child(child)
        return self.bits[block.offset:block.offset + block.size]


def characteristic_imset(g: ParentMap, index: CoordinateIndex) -> CharImset:
    if not family_contains(index.spec, g):
        raise DomainError("graph is not a member of the indexed family")
    subs = index._all_subsets
    p = np.array(g.parents, dtype=np.int64)[index._child_of]
    return CharImset(index, ((subs & p) == subs).view(np.uint8).tobytes())


def imset_from_bits(index: CoordinateIndex, bits: Sequence[int]) -> CharImset:
    return CharImset(index, bytes(bits))


def imset_to_graph(c: CharImset) -> ParentMap:
    """Invert characteristic_imset, verifying the product pattern on every block."""
    spec = c.index.spec
    parents = [spec.floor[i] for i in range(spec.n)]
    for j, block in enumerate(c.index.blocks):
        subs = c.index._subsets[j]
        stored = np.frombuffer(c.bits, dtype=np.uint8,
                               count=block.size, offset=block.offset)
        singles = subs[(stored == 1) & (subs & (subs - 1) == 0)]
        p = int(np.bitwise_or.reduce(singles)) if singles.size else 0
        expected = ((subs & p) == subs)
        mismatch = np.nonzero(expected != (stored == 1))[0]
        if mismatch.size:
            pos = int(mismatch[0])
            child_name = spec.ordering.names[block.child]
            subset_names = ",".join(spec.ordering.names_of_mask(int(subs[pos])))
            raise NotAVertexError(
                f"coordinate ({child_name}, {{{subset_names}}}) breaks the product "
                "pattern: the vector is not the imset of any graph"
            )
        parents[block.child] = p
    g = _parent_map_unchecked(spec.ordering, tuple(parents))
    if not family_contains(spec, g):
        raise NotAVertexError("the decoded parent sets fall outside the family")
    return g


def block_slice(c: CharImset, child: int) -> Tuple[int, ...]:
    return tuple(c.block_slice_bytes(child))


def _subset_labels(universe: int, names: Sequence[str]) -> List[str]:
    """`a,b,...` for every nonempty subset of universe, in graded_subsets order.

    Each label is the label of the set without its highest node, which the
    graded order reached earlier, plus that node's name.
    """
    labels = {}
    for t in graded_subsets(universe)[1:].tolist():
        top = t.bit_length() - 1
        rest = t ^ 1 << top
        labels[t] = f"{labels[rest]},{names[top]}" if rest else names[top]
    return list(labels.values())


def imset_text_lines(c: CharImset) -> Iterator[str]:
    """Text form: one `<child> <parents> <bit>` line per coordinate."""
    names = c.index.spec.ordering.names
    for block in c.index.blocks:
        bits = c.bits[block.offset:block.offset + block.size]
        for label, bit in zip(_subset_labels(block.universe, names), bits):
            yield f"{names[block.child]} {label} {bit}"


def export_full_vector(c: CharImset) -> List[int]:
    """The imset over every node set T with |T| >= 2, in graded-lex order.

    This inflates the block storage to the classical dense vector of length
    2**n - (n+1); entries off the family's support are zero.  Intended only
    for cross-tool comparison.
    """
    spec = c.index.spec
    n = spec.n
    limits.check("LATTICE_BITS", n, f"full vector over {n} nodes")
    position = graded_positions(n)
    # coordinate (i, S) is node set S plus i; every parent precedes its child
    index = c.index
    full = np.zeros(len(position), dtype=np.uint8)
    full[position[index._all_subsets | 1 << index._child_of]] = np.frombuffer(c.bits, np.uint8)
    # the empty set and the n singletons come first in graded-lex order
    return full[n + 1:].tolist()


def full_vector_labels(spec: FamilySpec) -> List[str]:
    """`a,b,...` for each entry of export_full_vector: every label but the singletons'."""
    limits.check("LATTICE_BITS", spec.n, f"full vector over {spec.n} nodes")
    return _subset_labels((1 << spec.n) - 1, spec.ordering.names)[spec.n:]
