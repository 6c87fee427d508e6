import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import random
import time
from collections import Counter, OrderedDict
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cimset.scoring
from cimset.cli import main
from cimset.errors import DomainError, FormatError
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           enumerate_family, family_to_json, full_ordered_family)
from cimset.imsets import characteristic_imset, coordinate_index
from cimset.learn import k2_backward, k2_forward, optimize_exact
from cimset.scoring import (CRITERIA, Dataset, ScoreTable, build_score_table,
                            data_vector_dot, load_csv, local_score, mobius_data_vector,
                            score_graph, score_table_from_json, score_table_to_json,
                            table_graph_score)
from cimset.subsets import bits_of
from test_graphs import family_specs


# --- datasets -------------------------------------------------------------

def _ab_dataset():
    o = NodeOrdering(("a", "b"))
    return Dataset(o, (2, 2), ((0, 0), (0, 0), (0, 1), (1, 1)))


def test_dataset_validation():
    o = NodeOrdering(("a", "b"))
    with pytest.raises(DomainError):
        Dataset(o, (2,), ((0, 0),))
    with pytest.raises(DomainError):
        Dataset(o, (2, 0), ((0, 0),))
    with pytest.raises(DomainError):
        Dataset(o, (2, 2), ())
    with pytest.raises(DomainError):
        Dataset(o, (2, 2), ((0, 2),))
    with pytest.raises(DomainError):
        Dataset(o, (2, 2), ((0,),))
    assert _ab_dataset().n_rows == 4


@pytest.mark.parametrize("state", [0.5, 1.0, True, "1", None, np.float64(1.0), np.bool_(True)])
def test_dataset_rejects_non_integer_states(state):
    o = NodeOrdering(("a", "b"))
    with pytest.raises(DomainError, match="row 1 column b: state .* is not an integer"):
        Dataset(o, (2, 2), ((0, 0), (1, state)))


def test_dataset_accepts_numpy_integer_states():
    o = NodeOrdering(("a", "b"))
    data = Dataset(o, (2, 2), ((np.int64(0), np.uint8(1)), (1, np.int32(0))))
    assert local_score(data, 1, 0b01, "ll") == local_score(
        Dataset(o, (2, 2), ((0, 1), (1, 0))), 1, 0b01, "ll")


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("b,junk,a\nyes,1,x\nno,2,y\nyes,3,x\n")
    o = NodeOrdering(("a", "b"))
    data = load_csv(p, o)
    # column order follows the ordering, not the file; states by first appearance
    assert data.rows == ((0, 0), (1, 1), (0, 0))
    assert data.cardinalities == (2, 2)


def test_load_csv_errors(tmp_path):
    o = NodeOrdering(("a", "b"))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        load_csv(empty, o)
    noheader = tmp_path / "missing.csv"
    noheader.write_text("a,c\n1,2\n")
    with pytest.raises(FormatError, match="column 'b'"):
        load_csv(noheader, o)
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv(short, o)
    blank = tmp_path / "blank.csv"
    blank.write_text("a,b\n1,\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv(blank, o)
    nodata = tmp_path / "nodata.csv"
    nodata.write_text("a,b\n")
    with pytest.raises(FormatError, match="no data rows"):
        load_csv(nodata, o)
    twice = tmp_path / "twice.csv"
    twice.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(FormatError, match="column 'a' appears more than once"):
        load_csv(twice, o)
    # repeats of a column the ordering does not name stay ignored
    extra = tmp_path / "extra.csv"
    extra.write_text("a,junk,b,junk\n1,x,2,y\n")
    assert load_csv(extra, o).rows == ((0, 0),)


def test_load_csv_merges_padded_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n yes,x\nyes ,y\nno,x \n")
    data = load_csv(p, NodeOrdering(("a", "b")))
    assert data.rows == ((0, 0), (0, 1), (1, 0))
    assert data.cardinalities == (2, 2)


def test_load_csv_reads_crlf_and_quoted_commas(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b'a,b\r\n"x,1",p\r\ny,q\r\n"x,1",q\r\n')
    data = load_csv(p, NodeOrdering(("a", "b")))
    assert data.rows == ((0, 0), (1, 1), (0, 1))
    assert data.cardinalities == (2, 2)


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark, which was
    # once read into the first column's name: "column 'a1' missing"
    plain = Path(__file__).resolve().parent.parent / "fixtures" / "binary_demo.csv"
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    o = NodeOrdering(("a1", "a2", "b1", "b2"))
    assert load_csv(marked, o) == load_csv(plain, o)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"\xef\xbb\xbfa1,a2,b1,b2\n\xff,0,0,0\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load_csv(latin1, o)


def _first_appearance(rows):
    """Rows relabelled so each column's states follow first appearance."""
    codes = [{} for _ in rows[0]]
    return tuple(tuple(c.setdefault(v, len(c)) for c, v in zip(codes, row)) for row in rows)


def _write_csv(path, names, rows):
    path.write_text(",".join(names) + "\n"
                    + "".join(",".join(f"s{v}" for v in row) + "\n" for row in rows))


def test_load_csv_codes_follow_first_appearance_across_blocks(tmp_path):
    block = cimset.scoring._BLOCK
    # states 2 and 3 of column a first appear in the second block, 3 before 2
    rows = [(k % 2, k % 3) for k in range(block)] + [(3, 0), (0, 1), (2, 2)] * 5
    p = tmp_path / "d.csv"
    _write_csv(p, ("a", "b"), rows)
    data = load_csv(p, NodeOrdering(("a", "b")))
    assert data.n_rows == block + 15
    assert data.rows == _first_appearance(rows)
    assert data.rows[block] == (2, 0) and data.cardinalities == (4, 3)


@pytest.mark.parametrize("bad, message", [
    ("s1", "row {row} is missing column 'b'"),
    ("s1,", "empty cell at row {row}, column 'b'"),
    ("  ,s1", "empty cell at row {row}, column 'a'"),
])
def test_load_csv_error_after_the_first_block_names_its_file_row(tmp_path, bad, message):
    block = cimset.scoring._BLOCK
    good = [(k % 2, k % 3) for k in range(block + 7)]
    p = tmp_path / "d.csv"
    _write_csv(p, ("a", "b"), good)
    p.write_text(p.read_text() + bad + "\ns0,s0\n")
    # the header is file row 1 and the data rows follow it
    with pytest.raises(FormatError, match=message.format(row=block + 9)):
        load_csv(p, NodeOrdering(("a", "b")))


def test_load_csv_equals_the_row_constructor(tmp_path):
    rng = random.Random(8)
    o = NodeOrdering(tuple(f"v{j}" for j in range(5)))
    cards = (2, 3, 4, 3, 2)
    rows = _first_appearance(_dependent_rows(cards, 2500, rng))
    p = tmp_path / "d.csv"
    _write_csv(p, o.names, rows)
    loaded, built = load_csv(p, o), Dataset(o, cards, rows)
    assert loaded == built and loaded.n_rows == 2500
    spec = full_ordered_family(o)
    for crit in CRITERIA:
        assert _tables_identical(build_score_table(loaded, spec, crit),
                                 build_score_table(built, spec, crit))


def _file_order_rows(path, names):
    """The rows of a CSV read by one file-order csv.reader, relabelled by first appearance."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *records = csv.reader(fh)
    cols = [header.index(name) for name in names]
    return _first_appearance([tuple(r[c].strip() for c in cols) for r in records])


@pytest.mark.parametrize("seed", range(4))
def test_load_csv_equals_a_file_order_reader(tmp_path, seed):
    rng = random.Random(seed)
    labels = ["x", " x", "x ", "y", '"y"', '"x,1"', '" x,1 "', '"q""z"', "z"]
    lines = [",".join(rng.choice(labels) for _ in range(4)) for _ in range(rng.randint(3, 40))]
    rows = rng.choices(lines, k=2 * cimset.scoring._BLOCK + rng.randint(1, 300))
    p = tmp_path / "d.csv"
    p.write_bytes("".join(line + rng.choice(["\n", "\r\n"])
                          for line in ["c,a,junk,b"] + rows).encode())
    names = ("a", "b", "c")
    data = load_csv(p, NodeOrdering(names))
    assert data.n_rows == len(rows)
    assert data.rows == _file_order_rows(p, names)


@pytest.mark.parametrize("where", [(0,), (1,), (0, 1)])
def test_load_csv_reads_a_quoted_label_across_lines(tmp_path, where):
    block = cimset.scoring._BLOCK
    rows = [["s0,p", "s1,q", "s0,p"][k % 3] for k in range(2 * block)]
    for b in where:  # into the first block, a later one or both, twice each
        rows[b * block + 5] = rows[b * block + 9] = '"yes\nno",q'
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "".join(row + "\n" for row in rows))
    data = load_csv(p, NodeOrdering(("a", "b")))
    assert data.n_rows == len(rows)
    assert data.rows == _file_order_rows(p, ("a", "b"))
    assert data.cardinalities == (3, 2)


@pytest.mark.parametrize("before", [0, 1])
def test_load_csv_reads_on_past_a_last_distinct_line_that_opens_a_quote(tmp_path, before):
    # the block's distinct lines end with '"z,r', which opens a quote that
    # swallows the repeated 'x,p' after it: two rows, not three
    rows = ["w,q"] * (before * cimset.scoring._BLOCK) + ["x,p", '"z,r', "x,p"]
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "".join(row + "\n" for row in rows))
    data = load_csv(p, NodeOrdering(("a",)))
    assert data.n_rows == len(rows) - 1
    assert data.rows == _file_order_rows(p, ("a",))
    assert data.rows[-1] == (data.cardinalities[0] - 1,)


def test_load_csv_reads_a_quote_closed_by_a_repeated_line(tmp_path):
    # in file order 'q",z' closes the quote '"open' opens; among the distinct
    # lines nothing closes it, and the long lines after it overflow the field limit
    rows = ['q",z', '"open', 'q",z'] + [f"{k}{'y' * 1000},z" for k in range(200)]
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "".join(row + "\n" for row in rows))
    data = load_csv(p, NodeOrdering(("a", "b")))
    assert data.n_rows == len(rows) - 1
    assert data.rows == _file_order_rows(p, ("a", "b"))


def test_load_csv_refuses_a_repeated_bad_line_at_its_first_row(tmp_path):
    block = cimset.scoring._BLOCK
    rows = ["s0,s1", "s1,s0"] * (block + 10)
    rows[block + 3] = rows[block + 11] = rows[2 * block + 2] = "s1"
    rows[block + 7] = rows[block + 9] = "s1,"
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "".join(row + "\n" for row in rows))
    # the header is file row 1 and the data rows follow it
    with pytest.raises(FormatError, match=f"row {block + 5} is missing column 'b'$"):
        load_csv(p, NodeOrdering(("a", "b")))


# --- local scores -----------------------------------------------------------

def test_local_score_ll_by_hand():
    data = _ab_dataset()
    # child b with parent a: counts (2,1) under a=0 and (1,) under a=1
    got = local_score(data, 1, 0b01, "ll")
    want = (2 * math.log(2) + 1 * math.log(1) - 3 * math.log(3)) + (
        1 * math.log(1) - 1 * math.log(1))
    assert got == pytest.approx(want, rel=1e-12)
    # child b with no parents: counts (2, 2) out of 4
    got0 = local_score(data, 1, 0, "ll")
    assert got0 == pytest.approx(4 * math.log(2) - 4 * math.log(4), rel=1e-12)


def test_local_score_penalties():
    data = _ab_dataset()
    ll = local_score(data, 1, 0b01, "ll")
    # q = card(a) = 2 parent configurations, r - 1 = 1 free parameter each
    assert local_score(data, 1, 0b01, "bic") == pytest.approx(
        ll - math.log(4) / 2 * 2, rel=1e-12)
    assert local_score(data, 1, 0b01, "aic") == pytest.approx(ll - 2, rel=1e-12)


def test_local_score_guards():
    data = _ab_dataset()
    with pytest.raises(DomainError):
        local_score(data, 0, 0b10, "ll")  # parent after child
    with pytest.raises(DomainError):
        local_score(data, 1, 0, "bayes")


def test_perfect_dependence_prefers_the_parent():
    o = NodeOrdering(("a", "b"))
    rows = tuple((i & 1, i & 1) for i in range(8))
    data = Dataset(o, (2, 2), rows)
    assert local_score(data, 1, 1, "bic") > local_score(data, 1, 0, "bic")


# --- the count engine --------------------------------------------------------

def _counter_score(data, child, parents, crit):
    """Reference local score from Counter tallies of explicit configurations."""
    pcols = bits_of(parents)
    marg = Counter(tuple(row[j] for j in pcols) for row in data.rows)
    joint = Counter((tuple(row[j] for j in pcols), row[child]) for row in data.rows)
    ll = (math.fsum(c * math.log(c) for c in joint.values())
          - math.fsum(c * math.log(c) for c in marg.values()))
    free_params = math.prod(data.cardinalities[j] for j in pcols) * (
        data.cardinalities[child] - 1)
    return {"ll": ll, "bic": ll - math.log(data.n_rows) / 2 * free_params,
            "aic": ll - free_params}[crit]


def _reorder(data, rng):
    """The same observations with the rows shuffled and each column's states relabelled."""
    perms = [rng.sample(range(c), c) for c in data.cardinalities]
    rows = [tuple(perms[j][v] for j, v in enumerate(row)) for row in data.rows]
    rng.shuffle(rows)
    return Dataset(data.ordering, data.cardinalities, tuple(rows))


def _tables_identical(a, b):
    return [list(cell.items()) for cell in a.entries] == [list(cell.items()) for cell in b.entries]


@st.composite
def scored_families(draw):
    spec = draw(family_specs())
    cards = tuple(draw(st.integers(1, 4)) for _ in range(spec.n))
    rows = draw(st.lists(st.tuples(*(st.integers(0, c - 1) for c in cards)),
                         min_size=1, max_size=40))
    return Dataset(spec.ordering, cards, tuple(rows)), spec


@settings(max_examples=60, deadline=None)
@given(scored_families(), st.sampled_from(CRITERIA), st.randoms(use_true_random=False))
def test_table_is_local_score_and_ignores_row_order_and_labels(case, crit, rng):
    data, spec = case
    table = build_score_table(data, spec, crit)
    for i in range(spec.n):
        for p in spec.iter_admissible(i):
            assert table.local(i, p) == local_score(data, i, p, crit)
            assert table.local(i, p) == pytest.approx(_counter_score(data, i, p, crit),
                                                      rel=1e-12, abs=1e-12)
    assert _tables_identical(build_score_table(_reorder(data, rng), spec, crit), table)


def _dependent_rows(cards, n_rows, rng):
    """Rows where each variable copies an earlier one or draws at random."""
    rows = []
    for _ in range(n_rows):
        row = []
        for j, c in enumerate(cards):
            if j and rng.random() < 0.6:
                row.append(row[rng.randrange(j)] % c)
            else:
                row.append(rng.randrange(c))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("crit", CRITERIA)
def test_table_bit_identical_under_shuffle_and_relabel(crit):
    rng = random.Random(21)
    o = NodeOrdering(tuple(f"v{j}" for j in range(8)))
    cards = (2, 3, 4, 2, 3, 4, 2, 3)
    data = Dataset(o, cards, _dependent_rows(cards, 3000, rng))
    spec = full_ordered_family(o)
    table = build_score_table(data, spec, crit)
    rows = list(data.rows)
    rng.shuffle(rows)
    shuffled = Dataset(o, cards, tuple(rows))
    assert _tables_identical(build_score_table(shuffled, spec, crit), table)
    assert _tables_identical(build_score_table(_reorder(data, rng), spec, crit), table)


def test_independence_learns_one_graph_under_shuffle_and_relabel():
    # c is independent of a and b in the sample: every count is a product
    # m(a, b) w(c), so ll({a}) = ll({}) in exact arithmetic; in floats the two
    # differ by rounding alone, a difference the learners take as it is
    o = NodeOrdering(("a", "b", "c"))
    m, w = {(0, 0): 6, (0, 1): 1, (1, 0): 1, (1, 1): 1}, (11, 9)
    rows = tuple((a, b, c) for (a, b), ma in m.items() for c, wc in enumerate(w)
                 for _ in range(7 * ma * wc))
    data = Dataset(o, (2, 2, 2), rows)
    assert data.n_rows == 1260
    spec = full_ordered_family(o)
    ll = build_score_table(data, spec, "ll")
    assert abs(ll.local(2, 0b01) - ll.local(2, 0)) < 1e-9
    rng = random.Random(5)
    learners = (optimize_exact, k2_forward, k2_backward)
    for crit in CRITERIA:
        table = build_score_table(data, spec, crit)
        learned = [f(table, spec).graph for f in learners]
        for _ in range(3):
            again = build_score_table(_reorder(data, rng), spec, crit)
            assert _tables_identical(again, table)
            assert [f(again, spec).graph for f in learners] == learned


def test_wide_floor_codes_do_not_wrap():
    # 5**30 floor configurations overflow int64 unless codes are renumbered
    rng = random.Random(5)
    n = 33
    o = NodeOrdering(tuple(f"v{j}" for j in range(n)))
    cards = (5,) * 32 + (3,)
    patterns = [tuple(rng.randrange(5) for _ in range(30)) for _ in range(25)]
    rows = []
    for _ in range(400):
        pat = rng.choice(patterns)
        free = (rng.randrange(5), rng.randrange(5))
        child = (pat[0] + free[1]) % 3 if rng.random() < 0.7 else rng.randrange(3)
        rows.append(pat + free + (child,))
    data = Dataset(o, cards, tuple(rows))
    floor = (1 << 30) - 1
    spec = FamilySpec(o, (0,) * 32 + (floor,), (0,) * 32 + ((1 << 32) - 1,))
    for crit in CRITERIA:
        table = build_score_table(data, spec, crit)
        for p in spec.iter_admissible(32):
            want = _counter_score(data, 32, p, crit)
            assert table.local(32, p) == pytest.approx(want, rel=1e-12)
            assert local_score(data, 32, p, crit) == table.local(32, p)


def test_table_counts_each_node_set_once(monkeypatch):
    rng = random.Random(3)
    spec = diagnosis_family(5, 3)
    cards = (2,) * spec.n
    data = Dataset(spec.ordering, cards, _dependent_rows(cards, 500, rng))
    calls = 0
    h = cimset.scoring._clogc

    def counted(code):
        nonlocal calls
        calls += 1
        return h(code)
    monkeypatch.setattr(cimset.scoring, "_clogc", counted)
    table = build_score_table(data, spec, "bic")
    node_sets = {s for i in range(spec.n) for p in spec.iter_admissible(i)
                 for s in (p, p | 1 << i)}
    assert calls == len(node_sets) == 128
    monkeypatch.undo()
    for i in range(spec.n):
        for p in spec.iter_admissible(i):
            assert table.local(i, p) == local_score(data, i, p, "bic")


def test_floor_above_the_free_parents():
    # child v3 always has v2, a higher node than its optional parents v0 and v1
    rng = random.Random(4)
    o = NodeOrdering(("v0", "v1", "v2", "v3"))
    spec = FamilySpec(o, (0, 0, 0, 0b100), (0, 0, 0, 0b111))
    cards = (3, 2, 4, 3)
    data = Dataset(o, cards, _dependent_rows(cards, 300, rng))
    for crit in CRITERIA:
        table = build_score_table(data, spec, crit)
        assert sorted(table.entries[3]) == [0b100, 0b101, 0b110, 0b111]
        for p in spec.iter_admissible(3):
            assert table.local(3, p) == local_score(data, 3, p, crit)
            assert table.local(3, p) == pytest.approx(_counter_score(data, 3, p, crit),
                                                      rel=1e-12)


@pytest.mark.parametrize("cards, rows", [
    # declared cardinality times the row count past 2**63
    ((2 ** 70, 2), ((0, 1), (5, 0), (0, 1))),
    # a state of 2**64 does not fit an int64 at all
    ((2 ** 70, 2), ((0, 1), (2 ** 64, 0), (0, 1))),
    # radix = largest child state + 1 = 2**62 + 8 would wrap (0, 32) and (4, 0)
    # onto one int64 code; a child whose states pass the row count is renumbered
    ((5, 2 ** 63), ((0, 32), (4, 0), (1, 2 ** 62 + 7), (2, 5), (3, 5))),
])
def test_huge_cardinality_codes_do_not_overflow(cards, rows):
    o = NodeOrdering(("x", "y"))
    data = Dataset(o, cards, rows)
    spec = full_ordered_family(o)
    for crit in CRITERIA:
        want = _counter_score(data, 1, 0b1, crit)
        assert local_score(data, 1, 0b1, crit) == pytest.approx(want, rel=1e-12)
        assert build_score_table(data, spec, crit).local(1, 0b1) == local_score(
            data, 1, 0b1, crit)


# --- score tables -----------------------------------------------------------

def test_score_table_validation():
    spec = diagnosis_family(2, 1)
    with pytest.raises(DomainError):
        ScoreTable(spec, ({0: 0.0}, {0: 0.0}))
    with pytest.raises(DomainError):
        ScoreTable(spec, ({0: 0.0}, {0: 0.0}, {0: 0.0, 1: 1.0}))
    with pytest.raises(DomainError):
        ScoreTable(spec, ({0: 0.0}, {0: 0.0},
                          {0: 0.0, 1: 1.0, 2: 2.0, 3: math.nan}))
    table = ScoreTable(spec, ({0: 0.0}, {0: 0.0}, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}))
    assert table.local(2, 0b10) == 2.0
    with pytest.raises(DomainError):
        table.local(2, 0b100)


def test_short_table_for_a_wide_child_is_refused_quickly():
    # 40 free parents: listing the admissible sets would need 2**40 of them
    o = NodeOrdering(tuple(f"v{i}" for i in range(41)))
    spec = FamilySpec(o, (0,) * 41, (0,) * 40 + ((1 << 40) - 1,))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="score table keys do not match"):
        ScoreTable(spec, ({0: 0.0},) * 40 + ({0: 0.0, 1: 1.0},))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("bad_key", [
    0b1001,  # v3 is outside its own ceiling
    0b110,   # lacks the floor v0
    0b111,   # three parents, over max_parents
    5.0,     # equal to the admissible 0b101, but not an int
])
def test_right_count_with_a_bad_key_is_refused(bad_key):
    o = NodeOrdering(("v0", "v1", "v2", "v3"))
    spec = FamilySpec(o, (0, 0, 0, 0b001), (0, 0, 0b11, 0b111), max_parents=2)
    good = ({0: 0}, {0: 0}, {0: 0, 1: 0, 2: 0, 3: 0}, {0b001: 0, 0b011: 0, 0b101: 0})
    assert ScoreTable(spec, good).local(3, 0b101) == 0
    bad = good[:3] + ({0b001: 0, 0b011: 0, bad_key: 0},)
    with pytest.raises(DomainError, match="child v3: score table keys do not match"):
        ScoreTable(spec, bad)


def test_build_table_and_graph_score():
    o = NodeOrdering(("a", "b"))
    data = _ab_dataset()
    spec = full_ordered_family(o)
    table = build_score_table(data, spec, "ll")
    g = ParentMap(o, (0, 0b01))
    assert table_graph_score(table, g) == pytest.approx(
        local_score(data, 0, 0, "ll") + local_score(data, 1, 1, "ll"), rel=1e-12)
    other = NodeOrdering(("x", "y"))
    with pytest.raises(DomainError):
        build_score_table(data, full_ordered_family(other), "ll")


def test_score_table_json_roundtrip():
    spec = diagnosis_family(2, 1)
    table = ScoreTable(spec, ({0: 0}, {0: Fraction(1, 3)},
                              {0: 0.5, 1: 1, 2: Fraction(-7, 2), 3: 3}),
                       criterion="custom")
    obj = score_table_to_json(table)
    assert obj["criterion"] == "custom"
    assert any(isinstance(e["score"], str) for e in obj["scores"])
    back = score_table_from_json(obj)
    assert back.spec == spec
    for i in range(3):
        for p in spec.iter_admissible(i):
            assert back.local(i, p) == table.local(i, p)
            assert type(back.local(i, p)) is type(table.local(i, p))
    with pytest.raises(FormatError):
        score_table_from_json({"scores": []})
    bad = dict(obj)
    bad["scores"] = obj["scores"][:-1]
    with pytest.raises(FormatError):
        score_table_from_json(bad)


@pytest.mark.parametrize("repeat", [
    {"child": "a1", "parents": [], "score": 1},
    {"child": "b1", "parents": ["a2", "a1"], "score": 9},
])
def test_score_table_json_rejects_repeated_entry(repeat):
    spec = diagnosis_family(2, 1)
    table = ScoreTable(spec, ({0: 0}, {0: 0}, {0: 0, 1: 1, 2: 2, 3: 3}))
    obj = score_table_to_json(table)
    obj["scores"].append(repeat)
    with pytest.raises(FormatError, match=r"score entry 6: a second score"):
        score_table_from_json(obj)


@pytest.mark.parametrize("parents, problem", [
    (["a1", "a1"], "lists 'a1' twice"),
    ("a1", "must be a list of node names"),  # not read as the names 'a' and '1'
])
def test_score_table_json_rejects_ambiguous_parents(parents, problem):
    spec = diagnosis_family(2, 1)
    obj = score_table_to_json(ScoreTable(spec, ({0: 0}, {0: 0}, {0: 0, 1: 1, 2: 2, 3: 3})))
    k = next(k for k, e in enumerate(obj["scores"]) if e["parents"] == ["a1"])
    obj["scores"][k]["parents"] = parents
    with pytest.raises(FormatError, match=f"score entry {k} {problem}"):
        score_table_from_json(obj)


# text shaped like a rational: signs, spaces, underscores, non-ASCII digits,
# decimals, exponents and zero or negative denominators
_RATIONAL_LIKE = st.from_regex(
    r"\s*[-+]{0,2}[0-9_\u0663\uff15]{0,4}(\.[0-9]{0,2})?([eE][-+]?[0-9]{1,2})?"
    r"(\s*/\s*[-+]?[0-9_\u0663]{0,3})?\s*", fullmatch=True)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _RATIONAL_LIKE, st.sampled_from(
    ["0", "-0", "0007/0010", "-12/8", "5/0", "-5/0", "7/-3", "-7/3", "1_000", "1/2_0",
     "\u0663", "\u0663/4", "+5", " 5", "5 ", "--5", "-", "", "/", "5/", "/5", "1e3", "1.5/2"])))
def test_rational_reads_text_as_fraction_does(text):
    def read(parse):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc)
    pair = read(cimset.scoring._rational)
    if type(pair) is tuple:
        n, d = pair
        assert type(n) is int and type(d) is int and d > 0
    got = read(lambda t: Fraction(*cimset.scoring._rational(t)))
    want = read(Fraction)
    assert got == want and type(got) is type(want)


def _diag21_table_json():
    spec = diagnosis_family(2, 1)
    table = ScoreTable(spec, ({0: 0}, {0: Fraction(1, 3)},
                              {0: 0.5, 1: 1, 2: Fraction(-7, 2), 3: 3}))
    # entries a1, a2, b1, b1 <- a1, b1 <- a2, b1 <- a1 a2
    return score_table_to_json(table)


@pytest.mark.parametrize("k, entry, message", [
    (3, ["b1", ["a1"], 1], "score entry 3: needs 'child' and 'score'"),
    (3, MappingProxyType({"child": "b1", "parents": ["a1"], "score": 1}),
     "score entry 3: needs 'child' and 'score'"),
    (0, {"parents": [], "score": 1}, "score entry 0: needs 'child' and 'score'"),
    (4, {"child": "zz", "parents": ["a2"], "score": 1}, "score entry 4: unknown node name 'zz'"),
    (4, {"child": ["b1"], "parents": ["a2"], "score": 1},
     "score entry 4: unhashable type: 'list'"),
    (3, {"child": "b1", "parents": "a1", "score": 1},
     "score entry 3 must be a list of node names"),
    (5, {"child": "b1", "parents": ["a1", 7], "score": 1},
     "score entry 5 lists 7, not a node name"),
    (5, {"child": "b1", "parents": ["a2", "a2"], "score": 1}, "score entry 5 lists 'a2' twice"),
    (2, {"child": "b1", "parents": [], "score": True}, "score entry 2: score must be a number"),
    (2, {"child": "b1", "parents": [], "score": None}, "score entry 2: score must be a number"),
    (1, {"child": "a2", "parents": [], "score": Fraction(1, 3)},
     "score entry 1: score must be a number"),
    (4, {"child": "b1", "parents": ["a2"], "score": "1/0"}, "score entry 4: bad rational '1/0'"),
    (4, {"child": "b1", "parents": ["a2"], "score": "abc"}, "score entry 4: bad rational 'abc'"),
    (5, {"child": "b1", "parents": ["a2"], "score": 9},
     "score entry 5: a second score for child 'b1' with parents ['a2']"),
])
def test_score_table_json_refusals_keep_their_text(k, entry, message):
    obj = _diag21_table_json()
    obj["scores"][k] = entry
    with pytest.raises(FormatError) as refused:
        score_table_from_json(obj)
    assert str(refused.value) == message


@pytest.mark.parametrize("parents", ["ab", ("a", "b")])
def test_score_table_json_parents_must_be_a_list(parents):
    # "ab" is not read as the one-letter names 'a' and 'b'
    obj = score_table_to_json(ScoreTable(full_ordered_family(("a", "b", "c")), (
        {0: 0}, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2, 3: 3})))
    k = next(k for k, e in enumerate(obj["scores"]) if e["parents"] == ["a", "b"])
    obj["scores"][k]["parents"] = parents
    with pytest.raises(FormatError) as refused:
        score_table_from_json(obj)
    assert str(refused.value) == f"score entry {k} must be a list of node names"


def test_shuffled_score_table_loads_and_compares_alike(tmp_path, capsys):
    rng = random.Random(12)
    obj = score_table_to_json(_random_table(full_ordered_family(("a", "b", "c", "d")), rng))
    shuffled = dict(obj, scores=rng.sample(obj["scores"], len(obj["scores"])))
    assert shuffled["scores"] != obj["scores"]
    assert score_table_from_json(shuffled).entries == score_table_from_json(obj).entries
    reports = []
    for name, doc in (("table.json", obj), ("shuffled.json", shuffled)):
        (tmp_path / name).write_text(json.dumps(doc))
        assert main(["compare-k2", "--scores", str(tmp_path / name)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_score_table_json_odd_but_valid_entries_load_as_the_plain_ones():
    # entries with no "parents" for the empty set, OrderedDict entries from
    # json's object_pairs_hook, a list subclass of parents and a numpy float
    # score all load as the plain JSON entries do; the float keeps its type
    obj = _diag21_table_json()
    plain = score_table_from_json(obj)
    text = json.dumps(obj)

    def same(table):
        return table.entries == plain.entries and table.denominators == plain.denominators

    assert same(score_table_from_json(json.loads(text, object_pairs_hook=OrderedDict)))
    bare = json.loads(text)
    for e in bare["scores"]:
        if not e["parents"]:
            del e["parents"]
    assert same(score_table_from_json(bare))

    class Names(list):
        pass

    odd = json.loads(text)
    k = next(k for k, e in enumerate(odd["scores"]) if len(e["parents"]) == 2)
    odd["scores"][k]["parents"] = Names(odd["scores"][k]["parents"])
    k = next(k for k, e in enumerate(odd["scores"]) if e["score"] == 0.5)
    odd["scores"][k]["score"] = np.float64(0.5)
    table = score_table_from_json(odd)
    assert same(table) and type(table.entries[2][0]) is np.float64


def test_score_table_json_lists_each_child_in_admissible_order():
    spec = full_ordered_family(tuple("abcde"))
    table = ScoreTable(spec, tuple({p: p for p in spec.iter_admissible(i)} for i in range(5)))
    listed = [(e["child"], e["parents"]) for e in score_table_to_json(table)["scores"]]
    assert listed == [(spec.ordering.names[i], list(spec.ordering.names_of_mask(p)))
                      for i in range(5) for p in spec.iter_admissible(i)]
    # graded-lex, where a sort by (size, mask) would put {b,c} before {a,d}
    e_sets = [p for c, p in listed if c == "e"]
    assert e_sets.index(["a", "d"]) < e_sets.index(["b", "c"])


def test_scores_are_summed_left_to_right_on_every_python():
    # from Python 3.12 sum() compensates float additions: it gives 1.0 here
    spec = FamilySpec(NodeOrdering(("a", "b", "c")), (0, 0, 0), (0, 0, 0))
    locals_ = [1e16, 1.0, -1e16]
    want = functools.reduce(operator.add, locals_, 0)
    assert want == 0.0
    assert cimset.scoring._ordered_sum([0.1] * 10 + locals_) == 0.0
    table = ScoreTable(spec, tuple({0: v} for v in locals_))
    g = ParentMap(spec.ordering, (0, 0, 0))
    assert table_graph_score(table, g) == want
    assert optimize_exact(table, spec).total_score == want
    dv = mobius_data_vector(table, coordinate_index(spec))
    assert dv.s_total == want and score_graph(dv, g) == want


# --- block objective ---------------------------------------------------------

def _random_table(spec, rng, exact=True):
    entries = []
    for i in range(spec.ordering.n):
        if exact:
            cell = {p: Fraction(rng.randrange(-400, 400), rng.randrange(1, 7))
                    for p in spec.iter_admissible(i)}
        else:
            cell = {p: rng.uniform(-40, 40) for p in spec.iter_admissible(i)}
        entries.append(cell)
    return ScoreTable(spec, tuple(entries))


def test_mobius_identity_exact_whole_family():
    rng = random.Random(11)
    for spec in (diagnosis_family(2, 2), full_ordered_family(("a", "b", "c", "d"))):
        idx = coordinate_index(spec)
        table = _random_table(spec, rng, exact=True)
        dv = mobius_data_vector(table, idx)
        for g in enumerate_family(spec):
            assert score_graph(dv, g) == table_graph_score(table, g)
            c = characteristic_imset(g, idx)
            assert dv.s_total - data_vector_dot(dv, c) == score_graph(dv, g)


def test_mobius_identity_with_floor():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0b10), (0, 0b01, 0b11, 0b111))
    rng = random.Random(12)
    idx = coordinate_index(spec)
    table = _random_table(spec, rng, exact=True)
    dv = mobius_data_vector(table, idx)
    # values live only on minimal lifts: subsets containing the floor
    for block in idx.blocks:
        floor = spec.floor[block.child]
        subs = idx.block_subsets(block.child)
        for j in range(block.size):
            s = int(subs[j])
            if s & floor != floor or s == floor:
                assert dv.values[block.offset + j] == 0
    for g in enumerate_family(spec):
        assert score_graph(dv, g) == table_graph_score(table, g)


def test_mobius_identity_float():
    spec = diagnosis_family(3, 1)
    idx = coordinate_index(spec)
    rng = random.Random(13)
    table = _random_table(spec, rng, exact=False)
    dv = mobius_data_vector(table, idx)
    for g in enumerate_family(spec):
        assert score_graph(dv, g) == pytest.approx(table_graph_score(table, g),
                                                   rel=1e-9, abs=1e-9)


def _scalar_fold(table, index):
    """The block fold with per-subset bit remapping and the pure-Python
    transform loop, as a reference for mobius_data_vector's values."""
    spec = table.spec
    values = [0] * index.total
    for block in index.blocks:
        i = block.child
        floor, members = spec.floor[i], bits_of(spec.free_mask(i))
        k = len(members)

        def lift(c):
            return floor | sum(1 << b for t, b in enumerate(members) if c >> t & 1)

        def dense(s):
            return sum(1 << t for t, b in enumerate(members) if s >> b & 1)

        arr = [table.local(i, lift(c)) for c in range(1 << k)]
        for j in range(k):
            for m in range(1 << k):
                if m >> j & 1:
                    arr[m] = arr[m] - arr[m ^ 1 << j]
        for j, s in enumerate(index.block_subsets(i).tolist()):
            if s & floor == floor and s != floor:
                values[block.offset + j] = -arr[dense(s)]
    return values


def _scalar_score(dv, g):
    """sum(offsets) - <r, c_g> by a scan of every block coordinate."""
    total = 0
    for v in dv.offsets:
        total = total + v
    for block in dv.index.blocks:
        pa = g.parents[block.child]
        for j, s in enumerate(dv.index.block_subsets(block.child).tolist()):
            v = dv.values[block.offset + j]
            if v != 0 and s & pa == s:
                total = total - v
    return total


def _same(a, b):
    """Equal in type and value; floats bit for bit (repr round-trips and keeps -0.0)."""
    return type(a) is type(b) and repr(a) == repr(b)


_DRAWS = {
    "int": lambda rng: rng.randrange(-10 ** 6, 10 ** 6),
    "fraction": lambda rng: Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 13)),
    "float": lambda rng: rng.uniform(-1e3, 1e3),
}


def _check_fold(table, members):
    index = coordinate_index(table.spec)
    dv = mobius_data_vector(table, index)
    ref = _scalar_fold(table, index)
    assert all(_same(v, r) for v, r in zip(dv.values, ref)), (dv.values, ref)
    exact = all(type(v) is not float for cell in table.entries for v in cell.values())
    for g in members:
        got = score_graph(dv, g)
        assert _same(got, _scalar_score(dv, g))
        if exact:
            assert got == table_graph_score(table, g)


@settings(max_examples=120, deadline=None)
@given(family_specs(), st.sampled_from(["int", "fraction", "float", "mixed"]),
       st.randoms(use_true_random=False))
def test_fold_matches_the_scalar_fold(spec, kind, rng):
    spec = dataclasses.replace(spec, max_parents=None)
    draws = list(_DRAWS.values())
    entries = tuple({p: (rng.choice(draws) if kind == "mixed" else _DRAWS[kind])(rng)
                     for p in spec.iter_admissible(i)} for i in range(spec.n))
    members = list(itertools.islice(enumerate_family(spec), 200))
    _check_fold(ScoreTable(spec, entries), members)


def test_fold_of_ints_past_int64_stays_exact():
    # partial sums of a 5-bit fold of ints of 2**62 and more leave int64, and
    # so do Fractions scaled to a common denominator past 2**63: these
    # blocks must fold in Python ints
    spec = diagnosis_family(5, 1)
    rng = random.Random(62)
    primes = (1000003, 1000033, 1000037, 1000039)
    for draw in (lambda: rng.randrange(2 ** 62, 2 ** 63),
                 lambda: -rng.randrange(2 ** 62, 2 ** 70),
                 lambda: Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(primes))):
        entries = tuple({p: draw() for p in spec.iter_admissible(i)} for i in range(spec.n))
        _check_fold(ScoreTable(spec, entries), list(enumerate_family(spec)))


@st.composite
def rational_tables(draw, capped=True):
    """A random family with Fraction scores over denominators 1..12, drawn
    from a pool of at most six values so that exact ties are common, and
    one child with an int among its Fractions: (spec, per-child dicts)."""
    spec = draw(family_specs())
    if not capped:
        spec = dataclasses.replace(spec, max_parents=None)
    pool = draw(st.lists(st.fractions(-4, 4, max_denominator=12), min_size=1, max_size=6))
    cells = [{p: draw(st.sampled_from(pool)) for p in spec.iter_admissible(i)}
             for i in range(spec.n)]
    mixed = cells[draw(st.integers(0, spec.n - 1))]
    mixed[draw(st.sampled_from(sorted(mixed)))] = draw(st.integers(-4, 4))
    return spec, cells


def rational_table_pair(spec, cells):
    """The table of `cells` built directly and read back from its JSON text."""
    direct = ScoreTable(spec, tuple(map(dict, cells)))
    return direct, score_table_from_json(json.loads(json.dumps(score_table_to_json(direct))))


@settings(max_examples=120, deadline=None)
@given(rational_tables(capped=False))
def test_rational_tables_fold_and_score_as_their_fractions_do(case):
    spec, cells = case
    members = list(itertools.islice(enumerate_family(spec), 200))
    for table in rational_table_pair(spec, cells):
        for i, cell in enumerate(cells):
            assert all(_same(table.local(i, p), v) for p, v in cell.items())
        # the values against the scalar fold of the Fractions, and every
        # member's score_graph against its table score
        _check_fold(table, members)


def test_rational_table_from_json_holds_numerators_over_the_lcm():
    spec = diagnosis_family(2, 1)
    obj = {"family": family_to_json(spec), "scores": [
        {"child": "a1", "parents": [], "score": 4},
        {"child": "a2", "parents": [], "score": "-3/9"},
        {"child": "b1", "parents": [], "score": "1/2"},
        {"child": "b1", "parents": ["a1"], "score": "-1/3"},
        {"child": "b1", "parents": ["a2"], "score": "5/4"},
        {"child": "b1", "parents": ["a1", "a2"], "score": "2/4"}]}
    table = score_table_from_json(obj)
    assert table.denominators == (None, 3, 12)
    assert table.entries == ({0: 4}, {0: -1}, {0: 6, 1: -4, 2: 15, 3: 6})
    assert all(type(v) is int for cell in table.entries for v in cell.values())
    assert table.local(2, 3) == Fraction(1, 2) and type(table.local(2, 3)) is Fraction
    assert table.local(1, 0) == Fraction(-1, 3) and type(table.local(0, 0)) is int
    # a text among numbers stays a Fraction, and its child is not scaled
    obj["scores"][4]["score"] = 5
    table = score_table_from_json(obj)
    assert table.denominators == (None, 3, None)
    assert [type(v) for v in table.entries[2].values()] == [Fraction, Fraction, int, Fraction]
    # the library constructor scales an all-Fraction child the same way
    direct = ScoreTable(spec, ({0: 4}, {0: Fraction(-1, 3)},
                               {p: Fraction(v, 12) for p, v in enumerate((6, -4, 15, 6))}))
    assert direct.denominators == (None, 3, 12)
    assert direct.entries[2] == {0: 6, 1: -4, 2: 15, 3: 6}


@pytest.mark.parametrize("denominators, message", [
    ((None, None), "one denominator per child required"),
    ((None, None, 0), "child b1: denominator 0 is not a positive int"),
    ((None, None, True), "child b1: denominator True is not a positive int"),
    ((None, None, 2.0), "child b1: denominator 2.0 is not a positive int"),
    ((None, 3, None), "child a2: a scaled score is not an int"),
    ((None, None, 2), "child b1: a scaled score is not an int"),
])
def test_score_table_refuses_bad_denominators(denominators, message):
    spec = diagnosis_family(2, 1)
    cells = ({0: 1}, {0: Fraction(1, 3)}, {0: 1, 1: 2, 2: 3, 3: Fraction(1, 2)})
    with pytest.raises(DomainError) as refused:
        ScoreTable(spec, cells, "custom", denominators)
    assert str(refused.value) == message


def test_values_of_a_scaled_block_with_a_floor_are_int_zero_off_the_lifts():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0b10), (0, 0, 0, 0b111))
    table = _random_table(spec, random.Random(14), exact=True)
    assert table.denominators[3] is not None
    idx = coordinate_index(spec)
    dv = mobius_data_vector(table, idx)
    assert all(type(v) is int for v in dv.folded)
    block = idx.block_for_child(3)
    for j, s in enumerate(idx.block_subsets(3).tolist()):
        v = dv.values[block.offset + j]
        lift = s & 0b10 and s != 0b10
        assert type(v) is (Fraction if lift else int)
        assert lift or v == 0


def test_data_vector_guards():
    spec = diagnosis_family(2, 1)
    idx = coordinate_index(spec)
    other_idx = coordinate_index(diagnosis_family(2, 2))
    table = ScoreTable(spec, ({0: 0}, {0: 0}, {0: 0, 1: 1, 2: 2, 3: 3}))
    with pytest.raises(DomainError):
        mobius_data_vector(table, other_idx)
    dv = mobius_data_vector(table, idx)
    g_out = ParentMap(diagnosis_family(2, 2).ordering, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        score_graph(dv, g_out)
