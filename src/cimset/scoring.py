"""Discrete-data scoring and the linear objective over imset coordinates.

A fitted graph is scored as a sum of per-child local scores.  Because the
family factors into per-child blocks, each local score table can be folded
by a subset Möbius transform into a vector r over the block coordinates,
and the graph score becomes (sum of per-child offsets) - <r, c_G>.  The
transform algebra is type-agnostic: integer or Fraction tables stay exact,
float tables stay float.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import limits
from .errors import DomainError, FormatError, UnsupportedError
from .graphs import FamilySpec, NodeOrdering, ParentMap, _names_to_mask, family_contains, \
    family_from_json, family_to_json
from .imsets import CharImset, CoordinateIndex
from .subsets import bits_of, mobius_subsets_inplace, pdep, pext

SCORE_SNAP = 1e-12

CRITERIA = ("ll", "bic", "aic")


def score_gt(a, b) -> bool:
    """Strict greater-than used for every score comparison.

    Exact when both operands are exact; floats are compared after an
    absolute snap, so near-ties resolve the same way on every platform.
    """
    if isinstance(a, float) or isinstance(b, float):
        return a - b > SCORE_SNAP
    return a > b


# --- data ---------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Complete discrete observations over the ordering's variables."""

    ordering: NodeOrdering
    cardinalities: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.ordering.n
        if len(self.cardinalities) != n:
            raise DomainError("one cardinality per variable required")
        if any(c < 1 for c in self.cardinalities):
            raise DomainError("cardinalities must be at least 1")
        if not self.rows:
            raise DomainError("a dataset needs at least one row")
        for r, row in enumerate(self.rows):
            if len(row) != n:
                raise DomainError(f"row {r} has {len(row)} values, expected {n}")
            for j, v in enumerate(row):
                if type(v) is not int and (isinstance(v, bool)
                                           or not isinstance(v, numbers.Integral)):
                    raise DomainError(
                        f"row {r} column {self.ordering.names[j]}: state {v!r} is not an integer"
                    )
                if not 0 <= v < self.cardinalities[j]:
                    raise DomainError(
                        f"row {r} column {self.ordering.names[j]}: state {v} out of range"
                    )

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def load_csv(path, ordering: NodeOrdering) -> Dataset:
    """Read a header + bare-token CSV, mapping values to dense state indices.

    Columns are matched by header name and may appear in any order; extra
    columns are ignored.  State indices follow first appearance per column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        cols = []
        for name in ordering.names:
            if name not in header:
                raise FormatError(f"{path}: column '{name}' missing from header")
            if header.count(name) > 1:
                raise FormatError(f"{path}: column '{name}' appears more than once in header")
            cols.append(header.index(name))

        seen: List[Dict[str, int]] = [{} for _ in ordering.names]
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            row = []
            for j, c in enumerate(cols):
                if c >= len(raw):
                    raise FormatError(
                        f"{path}: row {lineno} is missing column '{ordering.names[j]}'"
                    )
                tok = raw[c].strip()
                if not tok:
                    raise FormatError(
                        f"{path}: empty cell at row {lineno}, column '{ordering.names[j]}'"
                    )
                row.append(seen[j].setdefault(tok, len(seen[j])))
            rows.append(tuple(row))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    cards = tuple(len(s) for s in seen)
    return Dataset(ordering, cards, tuple(rows))


# --- local scores -------------------------------------------------------
#
# Counts come from integer row codes: a parent set's code for a row is its
# mixed-radix parent configuration, so one np.bincount tallies every
# configuration at once.  Each score is a function of the multiset of
# counts alone, so row order and state labels cannot change it.

def _columns(data: Dataset):
    """The dataset as one contiguous int64 array per variable, and each
    variable's code radix.

    The radix is the largest observed state plus one, so codes are bounded
    by the data, not by the declared cardinality; a column whose states
    pass the row count is first renumbered densely, so every radix is at
    most the row count.
    """
    try:
        cols = np.ascontiguousarray(np.array(data.rows, dtype=np.int64).T)
    except OverflowError:
        # a state of 2**63 or more: renumber every column densely first
        cols = np.array([_dense(col) for col in zip(*data.rows)], dtype=np.int64)
    radix = []
    for j, col in enumerate(cols):
        r = int(col.max()) + 1
        if r > len(col):
            uniq, cols[j] = np.unique(col, return_inverse=True)
            r = len(uniq)
        radix.append(r)
    return cols, radix


def _dense(column):
    """States of a column renumbered 0, 1, ... in increasing order."""
    rank = {v: r for r, v in enumerate(sorted(set(column)))}
    return [rank[v] for v in column]


def _extend(code: np.ndarray, configs: int, column: np.ndarray, radix: int):
    """Row codes after appending one variable; every code lies below `configs`.

    Once `configs` would pass the row count the codes are renumbered
    densely, so they stay below rows * radix <= rows**2 and cannot
    overflow int64.
    """
    code = code * radix + column
    configs *= radix
    if configs > len(code):
        uniq, code = np.unique(code, return_inverse=True)
        configs = len(uniq)
    return code, configs


def _codes(cols: np.ndarray, radix, parents: int):
    """Row codes of one parent set, built from its own columns."""
    code, configs = np.zeros(cols.shape[1], dtype=np.int64), 1
    for j in bits_of(parents):
        code, configs = _extend(code, configs, cols[j], radix[j])
    return code, configs


def _clogc(counts: np.ndarray) -> float:
    """Sum of c ln c over the counts; exactly rounded, so order cannot matter."""
    c = counts[counts > 1].astype(np.float64)
    return math.fsum((c * np.log(c)).tolist())


def _fit(code: np.ndarray, configs: int, cols: np.ndarray, radix, cards,
         child: int, parents: int, crit: str) -> float:
    """Local score of `parents` for `child` from the parent set's row codes.

    The penalty counts the declared cardinalities `cards`.
    """
    joint, _ = _extend(code, configs, cols[child], radix[child])
    ll = _clogc(np.bincount(joint)) - _clogc(np.bincount(code))
    if crit == "ll":
        return ll
    free_params = math.prod(cards[j] for j in bits_of(parents)) * (cards[child] - 1)
    if crit == "bic":
        return ll - math.log(len(code)) / 2 * free_params
    return ll - free_params


def _criterion(criterion: str) -> str:
    crit = criterion.lower()
    if crit not in CRITERIA:
        raise DomainError(f"unknown criterion '{criterion}'")
    return crit


def local_score(data: Dataset, child: int, parents: int, criterion: str):
    """Per-child fit of one parent set: ll, bic, or aic.

    ll is the maximized multinomial log-likelihood sum over parent
    configurations; bic subtracts (ln N / 2) * q * (r - 1) and aic
    subtracts q * (r - 1), q = product of parent cardinalities.
    """
    crit = _criterion(criterion)
    if parents & ~((1 << child) - 1):
        raise DomainError("parents must precede the child in the ordering")
    cols, radix = _columns(data)
    return _fit(*_codes(cols, radix, parents), cols, radix, data.cardinalities,
                child, parents, crit)


# --- score tables -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Local score of every admissible parent set, for every child."""

    spec: FamilySpec
    entries: Tuple[Dict[int, object], ...]
    criterion: str = "custom"

    def __post_init__(self):
        if len(self.entries) != self.spec.ordering.n:
            raise DomainError("one entry map per child required")
        for i, cell in enumerate(self.entries):
            # the count is closed-form, so a wrong-sized table is refused
            # without listing the child's admissible sets
            if (len(cell) != self.spec.admissible_count(i)
                    or set(cell) != set(self.spec.iter_admissible(i))):
                raise DomainError(
                    f"child {self.spec.ordering.names[i]}: score table keys do not "
                    f"match the admissible parent sets"
                )
            for v in cell.values():
                if isinstance(v, float) and not math.isfinite(v):
                    raise DomainError("scores must be finite")

    def local(self, child: int, parents: int):
        try:
            return self.entries[child][parents]
        except (IndexError, KeyError):
            raise DomainError("no score for that child and parent set") from None


def build_score_table(data: Dataset, spec: FamilySpec, criterion: str) -> ScoreTable:
    """Local score of every admissible parent set of every child.

    Each child's lattice is walked in graded-lex order; a parent set's row
    codes extend those of its predecessor (the set without its highest
    free bit) by one column, so only the previous size level is kept.
    """
    crit = _criterion(criterion)
    if data.ordering.names != spec.ordering.names:
        raise DomainError("dataset and family use different variable orderings")
    (cols, radix), cards = _columns(data), data.cardinalities
    entries = []
    for i in range(spec.ordering.n):
        count = spec.admissible_count(i)
        limits.check("TABLE_CHILD_LIMIT", count,
                     f"child {spec.ordering.names[i]} has {count} admissible parent sets")
        floor, free = spec.floor[i], spec.free_mask(i)
        cell: Dict[int, float] = {}
        prev: Dict[int, tuple] = {}
        level = {floor: _codes(cols, radix, floor)}
        size = floor.bit_count()
        for p in spec.iter_admissible(i):
            if p != floor:
                if p.bit_count() > size:
                    prev, level, size = level, {}, p.bit_count()
                top = (p & free).bit_length() - 1
                level[p] = _extend(*prev[p ^ 1 << top], cols[top], radix[top])
            cell[p] = _fit(*level[p], cols, radix, cards, i, p, crit)
        entries.append(cell)
    return ScoreTable(spec, tuple(entries), crit)


def table_graph_score(table: ScoreTable, g: ParentMap):
    """Sum of the per-child locals at the graph's parent sets."""
    total = 0
    for i, p in enumerate(g.parents):
        total = total + table.local(i, p)
    return total


def score_table_to_json(table: ScoreTable) -> dict:
    scores = []
    names = table.spec.ordering.names
    for i, cell in enumerate(table.entries):
        for p in sorted(cell, key=lambda m: (m.bit_count(), m)):
            v = cell[p]
            if isinstance(v, Fraction):
                v = str(v)
            scores.append({"child": names[i],
                           "parents": list(table.spec.ordering.names_of_mask(p)),
                           "score": v})
    return {"family": family_to_json(table.spec), "criterion": table.criterion,
            "scores": scores}


def score_table_from_json(obj) -> ScoreTable:
    if not isinstance(obj, dict) or "family" not in obj or "scores" not in obj:
        raise FormatError("score table JSON needs 'family' and 'scores'")
    spec = family_from_json(obj["family"])
    entries: Tuple[Dict[int, object], ...] = tuple({} for _ in spec.ordering.names)
    for k, item in enumerate(obj["scores"]):
        if not isinstance(item, dict) or "child" not in item or "score" not in item:
            raise FormatError(f"score entry {k}: needs 'child' and 'score'")
        try:
            cell = entries[spec.ordering.index(item["child"])]
        except (DomainError, TypeError) as exc:
            raise FormatError(f"score entry {k}: {exc}") from None
        mask = _names_to_mask(spec.ordering, item.get("parents", []), "score entry", k)
        v = item["score"]
        if isinstance(v, str):
            try:
                v = Fraction(v)
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"score entry {k}: bad rational '{v}'") from None
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise FormatError(f"score entry {k}: score must be a number")
        if mask in cell:
            raise FormatError(
                f"score entry {k}: a second score for child {item['child']!r} "
                f"with parents {list(spec.ordering.names_of_mask(mask))}"
            )
        cell[mask] = v
    try:
        return ScoreTable(spec, entries, str(obj.get("criterion", "custom")))
    except DomainError as exc:
        raise FormatError(str(exc)) from None


# --- the linear objective -----------------------------------------------

@dataclass(frozen=True, eq=False)
class DataVector:
    """Block-coordinate vector r plus per-child offsets.

    For every admissible parent set P of child i the identity
    offsets[i] - sum(values over coordinates (i, S) with S <= P) = local(i, P)
    holds; summing over children turns the table score into
    sum(offsets) - <r, c_G>.
    """

    index: CoordinateIndex
    values: Tuple[object, ...]
    offsets: Tuple[object, ...]

    def __post_init__(self):
        if len(self.values) != self.index.total:
            raise DomainError("one value per coordinate required")
        if len(self.offsets) != self.index.spec.ordering.n:
            raise DomainError("one offset per child required")

    @property
    def s_total(self):
        total = 0
        for v in self.offsets:
            total = total + v
        return total


def _fold(cells: list, k: int, source: np.ndarray) -> np.ndarray:
    """Möbius-fold one block's table cells (listed in lift order) and return
    the negated results at `source`, as an object array of Python scalars.

    Every value has the type and value the scalar fold over Python objects
    gives: an all-float block folds in float64 (the same IEEE operations in
    the same order); an all-int or all-Fraction block is scaled by the lcm
    of its denominators and folds in int64 while no partial sum can reach
    2**63, else in Python ints, then divides once; any other block folds as
    Python objects.
    """
    kinds = set(map(type, cells))
    if kinds == {float}:
        arr = np.array(cells, dtype=np.float64)
        mobius_subsets_inplace(arr, k)
        return (-arr[source]).astype(object)
    if kinds != {int} and kinds != {Fraction}:
        arr = np.array(cells, dtype=object)
        mobius_subsets_inplace(arr, k)
        return -arr[source]
    scale = 1
    if kinds == {Fraction}:
        scale = math.lcm(*(v.denominator for v in cells))
        cells = [v.numerator * (scale // v.denominator) for v in cells]
    # after pass j every entry is a signed sum of 2**j inputs
    bound = max(max(cells), -min(cells))
    arr = np.array(cells, dtype=np.int64 if bound << k < 1 << 63 else object)
    mobius_subsets_inplace(arr, k)
    out = (-arr[source]).astype(object)
    if kinds == {Fraction}:
        out[:] = [Fraction(v, scale) for v in out.tolist()]
    return out


def mobius_data_vector(table: ScoreTable, index: CoordinateIndex) -> DataVector:
    """Fold a score table into the block objective by Möbius inversion.

    Within each block the transform runs over the child's free sublattice;
    the result lands on the minimal lift (free part united with the floor),
    every other coordinate of the block gets zero.
    """
    spec = table.spec
    if spec != index.spec:
        raise DomainError("score table and coordinate index describe different families")
    if spec.max_parents is not None:
        raise UnsupportedError("block objectives for capped families are unsupported")

    values = np.zeros(index.total, dtype=object)
    offsets = tuple(table.local(i, spec.floor[i]) for i in range(spec.ordering.n))
    for block in index.blocks:
        i = block.child
        floor, free = spec.floor[i], spec.free_mask(i)
        k = free.bit_count()
        # the child's table cells in transform order, and the block rows of
        # the minimal lifts (S contains the floor and differs from it)
        lift = floor | pdep(np.arange(1 << k), free)
        cells = list(map(table.entries[i].__getitem__, lift.tolist()))
        subs = index.block_subsets(i)
        rows = np.flatnonzero(((subs & floor) == floor) & (subs != floor))
        values[block.offset + rows] = _fold(cells, k, pext(subs[rows], free))
    return DataVector(index, tuple(values.tolist()), offsets)


def data_vector_dot(dv: DataVector, c: CharImset):
    """Exact <r, c> over the shared coordinate index."""
    if c.index != dv.index:
        raise DomainError("imset and data vector use different coordinate indexes")
    total = 0
    for v, b in zip(dv.values, c.bits):
        if b and v != 0:
            total = total + v
    return total


def score_graph(dv: DataVector, g: ParentMap):
    """Graph quality sum(offsets) - <r, c_g>, computed blockwise."""
    spec = dv.index.spec
    if not family_contains(spec, g):
        raise DomainError("graph is not a member of the data vector's family")
    total = dv.s_total
    values = dv.values
    for block in dv.index.blocks:
        pa = g.parents[block.child]
        subs = dv.index.block_subsets(block.child)
        for j in np.flatnonzero((subs & pa) == subs).tolist():
            v = values[block.offset + j]
            if v != 0:
                total = total - v
    return total
