"""Discrete-data scoring and the linear objective over imset coordinates.

A fitted graph is scored as a sum of per-child local scores.  Because the
family factors into per-child blocks, each local score table can be folded
by a subset Möbius transform into a vector r over the block coordinates,
and the graph score becomes (sum of per-child offsets) - <r, c_G>.  The
transform algebra is type-agnostic: integer or Fraction tables stay exact,
float tables stay float.  A child scored only by Fractions is held as int
numerators over one denominator, so it is compared and folded as ints;
a Fraction is built only where a score or a folded value is read out.

`load_csv` reads the CSV in blocks of lines, parses each distinct line of a
block once with `csv.reader` and labels each column's distinct tokens once
per block, so it never builds row tuples; from the first block where a
quoted field runs across lines it reads records in file order.  Every node
set a score table needs is counted once, by one `np.bincount` of its row
codes, which extend the codes of S minus its top node by one column.
`score_table_from_json` reads the entries in one loop; on a refused entry,
`_entry_error` re-runs the shape, child, parents and score checks in that
order to name the first that fails, else the repeated parent set.

The fold reads and writes each block through numpy maps built from
`subsets.pdep`/`pext`: the lift of each dense free subset into the table,
and the block's minimal-lift rows from `CoordinateIndex.lift_rows` with
their dense source.  An all-float block folds in float64, an all-int block,
which a scaled child's numerators are, in int64 (Python ints past 2**63),
and any other as Python objects; every value equals the scalar fold's in
type and value.  Fractions are built where a value leaves the library:
`local()`, the learn results, `DataVector.values` (lazily, on the
minimal-lift rows) and `score_graph`, which subtracts one Fraction per
scaled block.  Scores are summed by `_ordered_sum`, a left fold, never by
`sum()`, which compensates float additions from Python 3.12.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, count, islice
from operator import add, and_, mul, or_
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import limits
from .errors import DomainError, FormatError
from .graphs import FamilySpec, NodeOrdering, ParentMap, _names_to_mask, family_contains, \
    family_from_json, family_to_json
from .imsets import CharImset, CoordinateIndex
from .subsets import bits_of, mobius_subsets_inplace, pdep, pext

CRITERIA = ("ll", "bic", "aic")


# --- data ---------------------------------------------------------------

class Dataset:
    """Complete discrete observations over the ordering's variables.

    Held as one int64 code column per variable, which numbers the column's
    distinct states 0, 1, ..., and each column's radix: its count of them.
    """

    __slots__ = ("ordering", "cardinalities", "_codes", "_radix", "_states")

    def __init__(self, ordering: NodeOrdering, cardinalities, rows):
        n, cards = ordering.n, tuple(cardinalities)
        if len(cards) != n:
            raise DomainError("one cardinality per variable required")
        if any(c < 1 for c in cards):
            raise DomainError("cardinalities must be at least 1")
        if not rows:
            raise DomainError("a dataset needs at least one row")
        for r, row in enumerate(rows):
            if len(row) != n:
                raise DomainError(f"row {r} has {len(row)} values, expected {n}")
            for j, v in enumerate(row):
                where = f"row {r} column {ordering.names[j]}"
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise DomainError(f"{where}: state {v!r} is not an integer")
                if not 0 <= v < cards[j]:
                    raise DomainError(f"{where}: state {v} out of range")
        states = tuple(zip(*rows))
        ranks = [{v: k for k, v in enumerate(sorted(set(col)))} for col in states]
        codes = tuple(np.fromiter(map(rank.__getitem__, col), np.int64, len(col))
                      for rank, col in zip(ranks, states))
        self._set(ordering, cards, codes, tuple(map(len, ranks)), states)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    @property
    def n_rows(self) -> int:
        return len(self._codes[0])

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """One tuple of states per row, rebuilt from the columns."""
        return tuple(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                           for c in self._states)))

    def __eq__(self, other):
        return (isinstance(other, Dataset) and self.ordering == other.ordering
                and self.cardinalities == other.cardinalities and self.rows == other.rows)


_BLOCK = 1024  # CSV lines read, parsed and coded at a time, to bound the tokens held


def _blocks(fh):
    """The data rows of `fh`, a block at a time, as (records, take): the block's
    rows in file order are records[take].

    Each distinct line of a block is parsed once, from a fresh reader state.
    If every one of them ends its own record, the file-order parse also starts
    afresh at every line and gives it that same record; a closing blank line
    tests the last distinct line as well.  From the first block where a quoted
    field runs across lines, records are read in file order and take is the
    identity.
    """
    while lines := list(islice(fh, _BLOCK)):
        ids = dict.fromkeys(lines)
        try:
            records = list(csv.reader(chain(ids, ("\n",))))
        except csv.Error:  # the file-order read decides whether, and where, to refuse
            break
        if len(records) <= len(ids):
            break
        records.pop()  # the closing blank line's empty record
        number = dict(zip(ids, count()))
        yield records, np.fromiter(map(number.__getitem__, lines), np.intp, len(lines))
    else:
        return
    reader = csv.reader(chain(lines, fh))
    while block := list(islice(reader, _BLOCK)):
        yield block, np.arange(len(block))


def load_csv(path, ordering: NodeOrdering) -> Dataset:
    """Read a header + bare-token CSV, mapping values to dense state indices.

    Columns are matched by header name and may appear in any order; extra
    columns are ignored.  Labels are stripped; state indices follow first
    appearance per column.  Each distinct line of a block is parsed once and
    each column's distinct tokens in it are labelled once (`_blocks`).
    """
    try:
        # utf-8-sig skips the byte-order mark that spreadsheet exports put first
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            header = [h.strip() for h in header]
            cols = []
            for name in ordering.names:
                if name not in header:
                    raise FormatError(f"{path}: column '{name}' missing from header")
                if header.count(name) > 1:
                    raise FormatError(f"{path}: column '{name}' appears more than once in header")
                cols.append(header.index(name))

            labels: List[Dict[str, int]] = [{} for _ in cols]  # stripped label -> state
            chunks = [[] for _ in cols]  # each column's codes, one array per block
            start = 2  # file row of the block's first row
            for records, take in _blocks(fh):
                columns = list(zip(*records))  # as many as the shortest record has
                for label, chunk, c in zip(labels, chunks, cols):
                    if c < len(columns):
                        code = {tok: label.setdefault(tok.strip(), len(label))
                                for tok in dict.fromkeys(columns[c])}
                        chunk.append(np.fromiter(map(code.__getitem__, columns[c]), np.int64,
                                                 len(records))[take])
                if len(columns) <= max(cols) or any("" in label for label in labels):
                    _raise_bad_cell(path, ordering, cols, map(records.__getitem__, take.tolist()),
                                    start)
                start += len(take)
    except OSError as exc:
        raise FormatError(f"cannot read data file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: not a readable CSV ({exc})") from None
    if start == 2:
        raise FormatError(f"{path}: no data rows")
    cards, codes = tuple(map(len, labels)), tuple(map(np.concatenate, chunks))
    return object.__new__(Dataset)._set(ordering, cards, codes, cards, codes)


def _raise_bad_cell(path, ordering, cols, block, first_row):
    """Raise the error of the first short row or empty cell of `block`."""
    for lineno, raw in enumerate(block, first_row):
        for name, c in zip(ordering.names, cols):
            if c >= len(raw):
                raise FormatError(f"{path}: row {lineno} is missing column '{name}'")
            if not raw[c].strip():
                raise FormatError(f"{path}: empty cell at row {lineno}, column '{name}'")


# --- local scores -------------------------------------------------------
#
# H(S) is the exactly rounded sum of c ln c over the counts of a node set's
# configurations (one np.bincount of its mixed-radix row codes), so neither
# row order nor state labels change it.  ll(child i, parents P) = H(P | {i}) - H(P).

def _extend(code: np.ndarray, configs: int, column: np.ndarray, radix: int):
    """Row codes after appending one variable; every code lies below `configs`.

    Codes are renumbered densely once `configs` would pass the row count, so
    they stay below rows * radix <= rows**2 and cannot overflow int64.
    """
    code = code * radix + column
    configs *= radix
    if configs > len(code):
        uniq, code = np.unique(code, return_inverse=True)
        configs = len(uniq)
    return code, configs


def _clogc(code: np.ndarray) -> float:
    """H of a node set from its row codes."""
    c = np.bincount(code)
    c = c[c > 1].astype(np.float64)
    return math.fsum((c * np.log(c)).tolist())


def _clogc_of_sets(data: Dataset, needed) -> Dict[int, float]:
    """H(S) for every node set S in `needed`, one count pass each.  Sets are
    built by size, the codes of S extending those of S minus its top bit by
    one column and kept until the last set that extends them is built."""
    built = {0, *needed} | {s & (1 << b) - 1 for s in needed for b in bits_of(s)}
    order = sorted(built, key=int.bit_count)
    last = {s ^ 1 << s.bit_length() - 1: s for s in order if s}  # each base's last extension
    codes, h = {0: (np.zeros(data.n_rows, dtype=np.int64), 1)}, {}
    for s in order:
        if s:
            top = s.bit_length() - 1
            codes[s] = _extend(*codes[s ^ 1 << top], data._codes[top], data._radix[top])
            if last[s ^ 1 << top] == s:
                del codes[s ^ 1 << top]
        if s in needed:
            h[s] = _clogc(codes[s][0])
        if s not in last:
            del codes[s]
    return h


def _score(data: Dataset, child: int, parents: int, crit: str, h) -> float:
    """Local score from the table of H; the penalty counts declared cardinalities."""
    ll = h[parents | 1 << child] - h[parents]
    if crit == "ll":
        return ll
    cards = data.cardinalities
    free_params = math.prod(cards[j] for j in bits_of(parents)) * (cards[child] - 1)
    if crit == "bic":
        return ll - math.log(data.n_rows) / 2 * free_params
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
    return _score(data, child, parents, crit,
                  _clogc_of_sets(data, {parents, parents | 1 << child}))


# --- score tables -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Local score of every admissible parent set, for every child.

    A child whose scores are all Fractions is held scaled: `entries[i]` maps
    each parent set to an int numerator over `denominators[i]`, the lcm of
    the scores' denominators, so comparing numerators orders and ties the
    scores as comparing the Fractions does.  Any other child holds its scores
    as given, with denominator None.  `local` reads a score either way.
    Leave `denominators` None unless `entries` already holds numerators:
    the constructor scales every all-Fraction child itself.
    """

    spec: FamilySpec
    entries: Tuple[Dict[int, object], ...]
    criterion: str = "custom"
    denominators: Optional[Tuple[Optional[int], ...]] = None

    def __post_init__(self):
        spec = self.spec
        n, names = spec.ordering.n, spec.ordering.names
        if len(self.entries) != n:
            raise DomainError("one entry map per child required")
        entries = list(self.entries)
        dens = [None] * n if self.denominators is None else list(self.denominators)
        if len(dens) != n:
            raise DomainError("one denominator per child required")
        cap = spec.max_parents
        for i, cell in enumerate(entries):
            # the keys are distinct, so as many as the closed-form count, each
            # an int holding the floor, inside the ceiling and within the cap,
            # are the admissible sets; no child's lattice is listed
            floor, outside = spec.floor[i], ~spec.ceiling[i]
            try:
                keys_match = (len(cell) == spec.admissible_count(i)
                              and not reduce(or_, cell, 0) & outside
                              and reduce(and_, cell, -1) & floor == floor
                              and (cap is None or max(map(int.bit_count, cell)) <= cap))
            except TypeError:  # a key that is not an int
                keys_match = False
            if not keys_match:
                raise DomainError(
                    f"child {names[i]}: score table keys do not "
                    f"match the admissible parent sets"
                )
            kinds, d = set(map(type, cell.values())), dens[i]
            if d is not None:
                if type(d) is not int or d < 1:
                    raise DomainError(f"child {names[i]}: denominator {d!r} is not a positive int")
                if kinds != {int}:
                    raise DomainError(f"child {names[i]}: a scaled score is not an int")
            elif kinds == {Fraction}:
                entries[i], dens[i] = _over_lcm(cell, [v.numerator for v in cell.values()],
                                                [v.denominator for v in cell.values()])
            elif any(issubclass(kind, float) for kind in kinds):
                for v in cell.values():
                    if isinstance(v, float) and not math.isfinite(v):
                        raise DomainError("scores must be finite")
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "denominators", tuple(dens))

    def local(self, child: int, parents: int):
        """The score of `parents` for `child`: a scaled child's as a Fraction."""
        try:
            v = self.entries[child][parents]
        except (IndexError, KeyError):
            raise DomainError("no score for that child and parent set") from None
        d = self.denominators[child]
        return v if d is None else Fraction(v, d)


def _over_lcm(keys, nums, dens):
    """The dict from `keys` to the numerators of nums[j]/dens[j] over one
    denominator, and that denominator: the lcm of the fractions' lowest-terms
    denominators."""
    den = math.lcm(*set(dens))
    nums = list(map(mul, nums, map(den.__floordiv__, dens)))
    g = math.gcd(den, *nums)  # above 1 only when some input was not in lowest terms
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return dict(zip(keys, nums)), den


def build_score_table(data: Dataset, spec: FamilySpec, criterion: str) -> ScoreTable:
    """Local score of every admissible parent set of every child.

    The node sets P and P | {child} of all children are counted once each.
    """
    crit = _criterion(criterion)
    if data.ordering.names != spec.ordering.names:
        raise DomainError("dataset and family use different variable orderings")
    lattices = []
    for i in range(spec.ordering.n):
        count = spec.admissible_count(i)
        limits.check("TABLE_CHILD_LIMIT", count,
                     f"child {spec.ordering.names[i]} has {count} admissible parent sets")
        lattices.append(spec.iter_admissible(i))
    h = _clogc_of_sets(data, {s for i, lattice in enumerate(lattices)
                              for p in lattice for s in (p, p | 1 << i)})
    entries = tuple({p: _score(data, i, p, crit, h) for p in lattice}
                    for i, lattice in enumerate(lattices))
    return ScoreTable(spec, entries, crit)


def _ordered_sum(values):
    """0 + v0 + v1 + ..., added left to right.  Not `sum()`, which compensates
    float additions from Python 3.12: sum([0.1] * 10 + [1e16, 1.0, -1e16]) is
    0.0 on 3.11 and 2.0 on 3.12, while this fold gives 0.0 on every version."""
    return reduce(add, values, 0)


def table_graph_score(table: ScoreTable, g: ParentMap):
    """Sum of the per-child locals at the graph's parent sets."""
    return _ordered_sum(map(table.local, range(len(g.parents)), g.parents))


def score_table_to_json(table: ScoreTable) -> dict:
    scores = []
    names = table.spec.ordering.names
    for i in range(len(names)):
        for p in table.spec.iter_admissible(i):
            v = table.local(i, p)
            if isinstance(v, Fraction):
                v = str(v)
            scores.append({"child": names[i],
                           "parents": list(table.spec.ordering.names_of_mask(p)),
                           "score": v})
    return {"family": family_to_json(table.spec), "criterion": table.criterion,
            "scores": scores}


def _rational(text: str) -> Tuple[int, int]:
    """(numerator, denominator) of Fraction(text), the denominator positive.
    The ASCII forms score_table_to_json writes, `-?digits` and
    `-?digits/digits`, are read as ints without Fraction's regex and are
    not reduced; every other text goes to Fraction itself."""
    num, slash, den = text.partition("/")
    if text.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
        d = int(den) if slash else 1
        if not d:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        return int(num), d
    f = Fraction(text)
    return f.numerator, f.denominator


def _entry_error(ordering: NodeOrdering, k: int, item) -> FormatError:
    """The FormatError of score entry `k`, which the reader refused: the first
    of its shape, child, parents and score checks that fails, else a repeat of
    its child and parent set."""
    if not isinstance(item, dict) or "child" not in item or "score" not in item:
        return FormatError(f"score entry {k}: needs 'child' and 'score'")
    try:
        ordering.index(item["child"])
    except (DomainError, TypeError) as exc:
        return FormatError(f"score entry {k}: {exc}")
    try:
        mask = _names_to_mask(ordering, item.get("parents", []), "score entry", k)
    except FormatError as exc:
        return exc
    v = item["score"]
    if isinstance(v, str):
        try:
            _rational(v)
        except (ValueError, ZeroDivisionError):
            return FormatError(f"score entry {k}: bad rational '{v}'")
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        return FormatError(f"score entry {k}: score must be a number")
    return FormatError(f"score entry {k}: a second score for child {item['child']!r} "
                       f"with parents {list(ordering.names_of_mask(mask))}")


_NO_PARENTS: list = []  # the parents of an entry that lists none; never written


def score_table_from_json(obj) -> ScoreTable:
    if not isinstance(obj, dict) or "family" not in obj or "scores" not in obj:
        raise FormatError("score table JSON needs 'family' and 'scores'")
    if not isinstance(obj["scores"], list):
        raise FormatError("score table JSON: 'scores' must be a list of entries, "
                          f"got {type(obj['scores']).__name__}")
    spec = family_from_json(obj["family"])
    position = spec.ordering.position
    bit = {name: 1 << i for name, i in position.items()}
    entries: List[Dict[int, object]] = [{} for _ in spec.ordering.names]
    # a "p/q" score is held as p in its cell and q in its child's texts
    texts: List[Dict[int, int]] = [{} for _ in spec.ordering.names]
    for k, item in enumerate(obj["scores"]):
        try:
            if not isinstance(item, dict):
                raise TypeError
            i = position[item["child"]]
            cell = entries[i]
            names, v = item.get("parents", _NO_PARENTS), item["score"]
            if not isinstance(names, list):
                raise TypeError
            mask = sum(map(bit.__getitem__, names))  # a repeated name carries
            if mask.bit_count() != len(names) or mask in cell:
                raise KeyError
            # an int or float subclass, or a str one, is accepted after the exact types
            kind = type(v)
            exact = kind is int or kind is float
            if kind is str or not exact and isinstance(v, str):
                cell[mask], texts[i][mask] = _rational(v)
            elif exact or kind is not bool and isinstance(v, (int, float)):
                cell[mask] = v
            else:
                raise TypeError
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise _entry_error(spec.ordering, k, item) from None
    # a child of texts only is scaled to one denominator; a text among
    # numbers becomes a Fraction, so its child keeps the types it was given
    dens = [None] * len(entries)
    for i, (cell, den) in enumerate(zip(entries, texts)):
        if den and len(den) == len(cell):
            entries[i], dens[i] = _over_lcm(den, map(cell.__getitem__, den), den.values())
        else:
            for p, d in den.items():
                cell[p] = Fraction(cell[p], d)
    try:
        return ScoreTable(spec, tuple(entries), str(obj.get("criterion", "custom")), tuple(dens))
    except DomainError as exc:
        raise FormatError(str(exc)) from None


# --- the linear objective -----------------------------------------------

@dataclass(frozen=True, eq=False)
class DataVector:
    """Block-coordinate vector r plus per-child offsets.

    For every admissible parent set P of child i the identity
    offsets[i] - sum(values over coordinates (i, S) with S <= P) = local(i, P)
    holds; summing over children turns the table score into
    sum(offsets) - <r, c_G>.  `folded` is r as the fold leaves it: the block
    of a child the table holds scaled (see ScoreTable) as int numerators over
    `denominators[child]`, every other block as r itself.
    """

    index: CoordinateIndex
    folded: Tuple[object, ...]
    denominators: Tuple[Optional[int], ...]
    offsets: Tuple[object, ...]

    def __post_init__(self):
        if len(self.folded) != self.index.total:
            raise DomainError("one value per coordinate required")
        n = self.index.spec.ordering.n
        if len(self.denominators) != n:
            raise DomainError("one denominator per child required")
        if len(self.offsets) != n:
            raise DomainError("one offset per child required")

    @cached_property
    def values(self) -> Tuple[object, ...]:
        """r: a scaled block's minimal lifts as Fractions, its other rows int 0."""
        values = list(self.folded)
        for block in self.index.blocks:
            d = self.denominators[block.child]
            if d is not None:
                for j in (block.offset + self.index.lift_rows(block.child)).tolist():
                    values[j] = Fraction(values[j], d)
        return tuple(values)

    @property
    def s_total(self):
        return _ordered_sum(self.offsets)


def _fold(cells: list, k: int, source: np.ndarray) -> np.ndarray:
    """Möbius-fold one block's table cells (listed in lift order) and return
    the negated results at `source`, as an object array of Python scalars.

    Every value has the type and value the scalar fold over Python objects
    gives: an all-float block folds in float64 (the same IEEE operations in
    the same order); an all-int block folds in int64 while no partial sum
    can reach 2**63, else in Python ints; any other block folds as Python
    objects.
    """
    kinds = set(map(type, cells))
    if kinds == {float}:
        arr = np.array(cells, dtype=np.float64)
        mobius_subsets_inplace(arr, k)
        return (-arr[source]).astype(object)
    if kinds != {int}:
        arr = np.array(cells, dtype=object)
        mobius_subsets_inplace(arr, k)
        return -arr[source]
    # after pass j every entry is a signed sum of 2**j inputs
    bound = max(max(cells), -min(cells))
    arr = np.array(cells, dtype=np.int64 if bound << k < 1 << 63 else object)
    mobius_subsets_inplace(arr, k)
    return (-arr[source]).astype(object)


def mobius_data_vector(table: ScoreTable, index: CoordinateIndex) -> DataVector:
    """Fold a score table into the block objective by Möbius inversion.

    Within each block the transform runs over the child's free sublattice;
    the result lands on the minimal lift (free part united with the floor),
    every other coordinate of the block gets zero.  A scaled child's
    numerators fold as ints over its denominator.
    """
    spec = table.spec
    if spec != index.spec:
        raise DomainError("score table and coordinate index describe different families")

    folded = np.zeros(index.total, dtype=object)
    offsets = tuple(table.local(i, spec.floor[i]) for i in range(spec.ordering.n))
    for block in index.blocks:
        i = block.child
        floor, free = spec.floor[i], spec.free_mask(i)
        k = free.bit_count()
        # the child's table cells in transform order, and where each lift
        # row's value sits in the folded block
        lift = floor | pdep(np.arange(1 << k), free)
        cells = list(map(table.entries[i].__getitem__, lift.tolist()))
        rows = index.lift_rows(i)
        source = pext(index.block_subsets(i)[rows], free)
        folded[block.offset + rows] = _fold(cells, k, source)
    return DataVector(index, tuple(folded.tolist()), table.denominators, offsets)


def data_vector_dot(dv: DataVector, c: CharImset):
    """Exact <r, c> over the shared coordinate index."""
    if c.index != dv.index:
        raise DomainError("imset and data vector use different coordinate indexes")
    return _ordered_sum(v for v, b in zip(dv.values, c.bits) if b and v != 0)


def score_graph(dv: DataVector, g: ParentMap):
    """Graph quality sum(offsets) - <r, c_g>, computed blockwise.

    A scaled block's picked numerators are summed as ints and subtracted as
    one Fraction while the total is exact; otherwise every nonzero value is
    subtracted in turn, so a float total rounds value by value, as the
    scalar sum over `values` does.
    """
    spec = dv.index.spec
    if not family_contains(spec, g):
        raise DomainError("graph is not a member of the data vector's family")
    total = dv.s_total
    folded = dv.folded
    for block in dv.index.blocks:
        i, base = block.child, block.offset
        subs = dv.index.block_subsets(i)
        picked = [folded[base + j] for j in np.flatnonzero((subs & g.parents[i]) == subs).tolist()]
        d = dv.denominators[i]
        if d is not None and isinstance(total, Fraction):
            if s := sum(picked):
                total = total - Fraction(s, d)
            continue
        for v in picked:
            if v != 0:
                total = total - (v if d is None else Fraction(v, d))
    return total
