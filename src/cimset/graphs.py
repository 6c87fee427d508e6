"""Node orderings, parent maps and admissible-parent families.

All graphs here are DAGs compatible with one fixed node ordering: the
parents of a node must come strictly earlier in the ordering.  A family is
described per child by a floor (parents that must be present), a ceiling
(parents that may be present) and an optional cap on the parent-set size.

A `ParentMap` is a `tuple` subclass, the pair (ordering, parents), so it
hashes, compares, copies and pickles as that pair.  `family_graph_texts`
joins each member's JSON text from one `json.dumps` fragment per (child,
admissible parent set), in enumeration order, and takes
`enumerate_family`'s `limit`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from . import limits
from .errors import DomainError, FormatError
from .subsets import bits_of, graded_subsets


@dataclass(frozen=True)
class NodeOrdering:
    """A total order on named nodes; position in `names` is the node index."""

    names: tuple
    position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 1:
            raise DomainError("an ordering needs at least one node")
        pos = {}
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise DomainError(f"node names must be nonempty strings, got {name!r}")
            if name in pos:
                raise DomainError(f"duplicate node name {name!r}")
            pos[name] = i
        object.__setattr__(self, "position", pos)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.position[name]
        except KeyError:
            raise DomainError(f"unknown node name {name!r}") from None

    def mask_of_names(self, names) -> int:
        position = self.position
        mask = 0
        for name in names:
            try:
                mask |= 1 << position[name]
            except KeyError:
                raise DomainError(f"unknown node name {name!r}") from None
        return mask

    def names_of_mask(self, mask: int) -> tuple:
        return tuple(self.names[b] for b in bits_of(mask))


class ParentMap(tuple):
    """One DAG compatible with the ordering: parents[i] is a bitmask of indices < i.

    An immutable `(ordering, parents)` pair; hash and equality are the pair's.
    """

    __slots__ = ()

    def __new__(cls, ordering: NodeOrdering, parents):
        parents = tuple(parents)
        n = ordering.n
        if len(parents) != n:
            raise DomainError(f"expected {n} parent sets, got {len(parents)}")
        for i, p in enumerate(parents):
            if p & ~((1 << i) - 1):
                raise DomainError(
                    f"child {ordering.names[i]!r} lists a non-predecessor parent"
                )
        return tuple.__new__(cls, (ordering, parents))

    ordering = property(operator.itemgetter(0))
    parents = property(operator.itemgetter(1))

    # copy and pickle rebuild through __new__, which needs both arguments
    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"ParentMap(ordering={self.ordering!r}, parents={self.parents!r})"

    def parent_names(self, i: int) -> tuple:
        return self.ordering.names_of_mask(self.parents[i])

    def edges(self) -> list:
        out = []
        for i in range(self.ordering.n):
            child = self.ordering.names[i]
            for b in bits_of(self.parents[i]):
                out.append((self.ordering.names[b], child))
        return out


def _parent_map_unchecked(ordering: NodeOrdering, parents: tuple) -> ParentMap:
    # Internal fast path for streams that produce already-valid parent tuples.
    return tuple.__new__(ParentMap, (ordering, parents))


@dataclass(frozen=True)
class FamilySpec:
    """Per-child floor/ceiling parent constraints plus an optional size cap."""

    ordering: NodeOrdering
    floor: tuple
    ceiling: tuple
    max_parents: Optional[int] = None
    # Per child: its admissible tuple once iter_admissible has built it, else None.
    _admissible: list = field(init=False, repr=False, compare=False)
    # degree(), summed once: neighbors() asks for it on every call
    _degree: int = field(init=False, repr=False, compare=False)
    # The CoordinateIndex once imsets.coordinate_index has built it, else None.
    _index: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "floor", tuple(self.floor))
        object.__setattr__(self, "ceiling", tuple(self.ceiling))
        n = self.ordering.n
        if len(self.floor) != n or len(self.ceiling) != n:
            raise DomainError("floor and ceiling must list one mask per node")
        cap = self.max_parents
        if cap is not None and cap < 0:
            raise DomainError("max_parents must be nonnegative")
        for i in range(n):
            pred = (1 << i) - 1
            f, c = self.floor[i], self.ceiling[i]
            if c & ~pred:
                raise DomainError(
                    f"ceiling of {self.ordering.names[i]!r} contains a non-predecessor"
                )
            if f & ~c:
                raise DomainError(
                    f"floor of {self.ordering.names[i]!r} is not contained in its ceiling"
                )
            if cap is not None and f.bit_count() > cap:
                raise DomainError(
                    f"floor of {self.ordering.names[i]!r} exceeds max_parents={cap}; "
                    "the family is empty"
                )
        object.__setattr__(self, "_admissible", [None] * n)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_degree",
                           sum(self.admissible_count(i) - 1 for i in range(n)))

    @property
    def n(self) -> int:
        return self.ordering.n

    def free_mask(self, i: int) -> int:
        return self.ceiling[i] & ~self.floor[i]

    def admissible_count(self, i: int) -> int:
        f = self.free_mask(i).bit_count()
        if self.max_parents is None:
            return 1 << f
        extra = self.max_parents - self.floor[i].bit_count()
        return sum(math.comb(f, j) for j in range(0, min(extra, f) + 1))

    def iter_admissible(self, i: int) -> Tuple[int, ...]:
        """Admissible parent sets of child i in graded-lex order, built once per spec."""
        cached = self._admissible[i]
        if cached is None:
            floor = self.floor[i]
            budget = None if self.max_parents is None else self.max_parents - floor.bit_count()
            cached = tuple(floor | s for s in graded_subsets(self.free_mask(i), budget).tolist())
            self._admissible[i] = cached
        return cached

    def degree(self) -> int:
        """Polytope neighbors of every member: one per other admissible set of one child."""
        return self._degree

    def family_size(self) -> int:
        size = 1
        for i in range(self.n):
            size *= self.admissible_count(i)
        return size


def diagnosis_family(m: int, n: int) -> FamilySpec:
    """Bipartite family: m disease nodes a1..am, n symptom nodes b1..bn.

    Symptoms may take any subset of the diseases as parents; diseases have
    no parents.
    """
    if m <= 0 or n <= 0:
        raise DomainError(f"diagnosis family needs positive dimensions, got m={m}, n={n}")
    names = tuple(f"a{i}" for i in range(1, m + 1)) + tuple(f"b{j}" for j in range(1, n + 1))
    ordering = NodeOrdering(names)
    disease_mask = (1 << m) - 1
    floor = (0,) * (m + n)
    ceiling = (0,) * m + (disease_mask,) * n
    return FamilySpec(ordering, floor, ceiling, None)


def full_ordered_family(ordering) -> FamilySpec:
    """Every DAG compatible with the ordering: ceiling is all predecessors."""
    if not isinstance(ordering, NodeOrdering):
        ordering = NodeOrdering(tuple(ordering))
    n = ordering.n
    floor = (0,) * n
    ceiling = tuple((1 << i) - 1 for i in range(n))
    return FamilySpec(ordering, floor, ceiling, None)


def family_contains(spec: FamilySpec, g: ParentMap) -> bool:
    if spec.ordering is not g.ordering and spec.ordering != g.ordering:
        raise DomainError("graph and family use different node orderings")
    parents = g.parents
    # every floor parent present (floor & p == floor) and none over the
    # ceiling (p & ceiling == p), each one C-level pass over the children.
    # Comparing tuples built from these maps was a little faster, but raised
    # the geometry census's peak RSS by about 0.7 MB
    if any(map(operator.ne, map(operator.and_, spec.floor, parents), spec.floor)):
        return False
    if any(map(operator.ne, map(operator.and_, parents, spec.ceiling), parents)):
        return False
    cap = spec.max_parents
    return cap is None or max(map(int.bit_count, parents)) <= cap


def _check_enum_limit(spec: FamilySpec, limit: Optional[int]) -> None:
    size = spec.family_size()
    limits.check("ENUM_LIMIT", size, f"family has {size} members", limit)


def enumerate_family(spec: FamilySpec, limit: Optional[int] = None) -> Iterator[ParentMap]:
    """Stream every family member in canonical order.

    Canonical order: the tuple of parent sets runs through the cartesian
    product of the per-child admissible lists (each in graded-lex order),
    with later children varying fastest.  Refuses families larger than
    `limit` (default: `limits.default_enum_limit()`) at the call, before
    any member is produced.
    """
    _check_enum_limit(spec, limit)
    ordering = spec.ordering
    return (_parent_map_unchecked(ordering, combo)
            for combo in itertools.product(*(spec.iter_admissible(i) for i in range(spec.n))))


# --- JSON forms ---------------------------------------------------------
#
# family: {"ordering": [names], "floor": [[names]...], "ceiling": [[names]...],
#          "max_parents": int | null}
# graph:  {"ordering": [names], "parents": [[names]...]}

def _require(obj, key, kind, what):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{what} is missing the {key!r} field")
    val = obj[key]
    if not isinstance(val, kind):
        raise FormatError(f"{what} field {key!r} has the wrong type")
    return val


def _names_to_mask(ordering: NodeOrdering, entry, what: str, key) -> int:
    """The mask of one JSON list of distinct node names; errors name it as `what` and `key`."""
    if not isinstance(entry, list):
        raise FormatError(f"{what} {key!r} must be a list of node names")
    try:
        mask = ordering.mask_of_names(entry)
    except (DomainError, TypeError) as exc:
        # names are strings, so a non-string is what failed whenever there is one
        bad = [nm for nm in entry if not isinstance(nm, str)]
        if bad:
            raise FormatError(f"{what} {key!r} lists {bad[0]!r}, not a node name") from None
        raise FormatError(f"{what} {key!r}: {exc}") from None
    if mask.bit_count() != len(entry):
        dup = next(nm for j, nm in enumerate(entry) if nm in entry[:j])
        raise FormatError(f"{what} {key!r} lists {dup!r} twice")
    return mask


def _name_lists_to_masks(ordering: NodeOrdering, lists, what: str) -> tuple:
    if len(lists) != ordering.n:
        raise FormatError(f"{what} must list one entry per node")
    return tuple(_names_to_mask(ordering, entry, f"{what} entry of", child)
                 for child, entry in zip(ordering.names, lists))


def family_to_json(spec: FamilySpec) -> dict:
    return {
        "ordering": list(spec.ordering.names),
        "floor": [list(spec.ordering.names_of_mask(m)) for m in spec.floor],
        "ceiling": [list(spec.ordering.names_of_mask(m)) for m in spec.ceiling],
        "max_parents": spec.max_parents,
    }


def family_from_json(obj) -> FamilySpec:
    names = _require(obj, "ordering", list, "family")
    ordering = NodeOrdering(tuple(names))
    floor = _name_lists_to_masks(ordering, _require(obj, "floor", list, "family"), "floor")
    ceiling = _name_lists_to_masks(ordering, _require(obj, "ceiling", list, "family"), "ceiling")
    cap = obj.get("max_parents")
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int)):
        raise FormatError("max_parents must be an integer or null")
    try:
        return FamilySpec(ordering, floor, ceiling, cap)
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def graph_to_json(g: ParentMap) -> dict:
    return {
        "ordering": list(g.ordering.names),
        "parents": [list(g.parent_names(i)) for i in range(g.ordering.n)],
    }


def family_graph_texts(spec: FamilySpec, limit: Optional[int] = None) -> Iterator[str]:
    """`json.dumps(graph_to_json(g))` of every member g, in `enumerate_family` order.

    Each text is joined from `json.dumps` fragments with json's default
    separators: one for the ordering head and one per (child, admissible
    parent set), so every byte, escapes included, is json's own.  Refuses
    what `enumerate_family(spec, limit)` refuses, at the call.
    """
    _check_enum_limit(spec, limit)
    names = spec.ordering.names_of_mask
    # the record up to its parent lists: '{"ordering": [...], "parents": ['
    record = graph_to_json(_parent_map_unchecked(spec.ordering, (0,) * spec.n))
    head = json.dumps(dict(record, parents=[]))[:-len("]}")]
    fragments = [[json.dumps(list(names(p))) for p in spec.iter_admissible(i)]
                 for i in range(spec.n)]
    return (f"{head}{', '.join(combo)}]}}" for combo in itertools.product(*fragments))


def graph_from_json(obj) -> ParentMap:
    names = _require(obj, "ordering", list, "graph")
    ordering = NodeOrdering(tuple(names))
    parents = _name_lists_to_masks(ordering, _require(obj, "parents", list, "graph"), "parents")
    try:
        return ParentMap(ordering, parents)
    except DomainError as exc:
        raise FormatError(str(exc)) from None
