import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from cimset.errors import DomainError
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           family_from_json, full_ordered_family)
from cimset.learn import (METHODS, compare, k2_backward, k2_forward, optimize_exact,
                          structural_hamming)
from cimset.oracle import learn_bruteforce
from cimset.scoring import CRITERIA, ScoreTable, build_score_table, load_csv, table_graph_score
from cimset.subsets import bits_of
from test_graphs import family_specs
from test_scoring import rational_table_pair, rational_tables

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def _table(spec, *entries, criterion="custom"):
    return ScoreTable(spec, tuple(entries), criterion)


def test_methods_tuple():
    assert METHODS == ("exact", "k2-forward", "k2-backward")


def test_exact_picks_per_child_best():
    spec = diagnosis_family(2, 2)
    table = _table(spec, {0: 0}, {0: 0},
                   {0: 0, 1: 4, 2: 1, 3: 2}, {0: 0, 1: 1, 2: 2, 3: 9})
    res = optimize_exact(table, spec)
    assert res.graph.parents == (0, 0, 0b01, 0b11)
    assert res.total_score == 4 + 9
    assert res.method == "exact"
    assert [c.evaluated for c in res.per_child] == [1, 1, 4, 4]


def test_exact_tie_takes_graded_lex_first():
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: 0}, {0: 0}, {0: 3, 1: 3, 2: 3, 3: 3})
    assert optimize_exact(table, spec).graph.parents[2] == 0
    table2 = _table(spec, {0: 0}, {0: 0}, {0: 0, 1: 3, 2: 3, 3: 3})
    assert optimize_exact(table2, spec).graph.parents[2] == 0b01


@pytest.mark.parametrize("criterion", CRITERIA)
def test_duplicated_column_ties_go_to_the_graded_lex_first_set(criterion):
    # a2 copies a1, so {a1}, {a2} and {a1, a2} have equal count multisets:
    # their ll is bit-identical, and bic and aic charge {a1, a2} more
    spec = family_from_json(json.loads((FIX / "diag_2_2.json").read_text()))
    data = load_csv(FIX / "diag_2_2_duplicated.csv", spec.ordering)
    table = build_score_table(data, spec, criterion)
    for child in (2, 3):
        one, other, both = (table.local(child, p) for p in (0b01, 0b10, 0b11))
        assert one == other > table.local(child, 0)
        assert both == one if criterion == "ll" else both < one
    assert optimize_exact(table, spec).graph.parents == (0, 0, 0b01, 0b01)
    assert k2_forward(table, spec).graph.parents == (0, 0, 0b01, 0b01)
    # backward starts from {a1, a2}: under ll no removal is a strict gain, and
    # under bic and aic the two equal gains go to removing a1, the lower node
    want = 0b11 if criterion == "ll" else 0b10
    assert k2_backward(table, spec).graph.parents == (0, 0, want, want)


def test_exact_matches_bruteforce_including_ties():
    rng = random.Random(21)
    spec = full_ordered_family(("a", "b", "c", "d"))
    for trial in range(40):
        entries = []
        for i in range(spec.n):
            # small integer range forces frequent exact ties
            entries.append({p: rng.randrange(-3, 4) for p in spec.iter_admissible(i)})
        table = ScoreTable(spec, tuple(entries))
        assert optimize_exact(table, spec).graph == learn_bruteforce(spec, table)


def test_k2_forward_greedy_trap():
    # adding either single node alone hurts, so forward greedy stays empty
    # even though the pair scores best
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: 0}, {0: 0}, {0: 5, 1: 4, 2: 4, 3: 9})
    fwd = k2_forward(table, spec)
    assert fwd.graph.parents[2] == 0
    exact = optimize_exact(table, spec)
    assert exact.graph.parents[2] == 0b11
    assert exact.total_score - fwd.total_score == 4


def test_k2_backward_greedy_trap():
    # dropping either node from the pair hurts, so backward stays at the pair
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: 0}, {0: 0}, {0: 9, 1: 4, 2: 4, 3: 5})
    bwd = k2_backward(table, spec)
    assert bwd.graph.parents[2] == 0b11
    assert optimize_exact(table, spec).graph.parents[2] == 0


def test_k2_ties_prefer_lowest_index():
    spec = diagnosis_family(2, 1)
    # both single additions improve by the same amount; a1 wins
    table = _table(spec, {0: 0}, {0: 0}, {0: 0, 1: 2, 2: 2, 3: 1})
    assert k2_forward(table, spec).graph.parents[2] == 0b01
    # both single removals improve equally; removing a1 first leaves {a2}
    table2 = _table(spec, {0: 0}, {0: 0}, {0: 1, 1: 2, 2: 2, 3: 0})
    assert k2_backward(table2, spec).graph.parents[2] == 0b10


def test_k2_respects_floor_and_ceiling():
    o = NodeOrdering(("a", "b", "c"))
    spec = FamilySpec(o, (0, 0, 0b01), (0, 0, 0b11))
    table = _table(spec, {0: 0}, {0: 0}, {0b01: 0, 0b11: -5})
    fwd = k2_forward(table, spec)
    assert fwd.graph.parents[2] == 0b01  # never descends below the floor
    bwd = k2_backward(table, spec)
    assert bwd.graph.parents[2] == 0b01  # removal stops at the floor


def test_k2_respects_cap():
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0), (0, 1, 0b11, 0b111), max_parents=1)
    table = _table(spec, {0: 0}, {0: 0, 1: 1}, {0: 0, 1: 2, 2: 1},
                   {0: 0, 1: 5, 2: 6, 4: 7})
    fwd = k2_forward(table, spec)
    assert fwd.graph.parents[3] == 0b100
    assert fwd.graph.parents[3].bit_count() <= 1
    bwd = k2_backward(table, spec)
    # backward starts from the graded-lex-first maximal admissible set {a}
    assert bwd.graph.parents[3] == 0b001


def test_exact_rational_scores_stay_exact():
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: Fraction(1, 3)}, {0: Fraction(1, 7)},
                   {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1, 3),
                    3: Fraction(5, 11)})
    res = optimize_exact(table, spec)
    assert res.total_score == Fraction(1, 3) + Fraction(1, 7) + Fraction(1, 2)
    assert isinstance(res.total_score, Fraction)


def test_wrong_family_rejected():
    spec = diagnosis_family(2, 1)
    other = diagnosis_family(2, 2)
    table = _table(spec, {0: 0}, {0: 0}, {0: 0, 1: 1, 2: 2, 3: 3})
    for fn in (optimize_exact, k2_forward, k2_backward, compare):
        with pytest.raises(DomainError):
            fn(table, other)


def test_structural_hamming():
    o = NodeOrdering(("a", "b", "c"))
    g1 = ParentMap(o, (0, 0b01, 0b11))
    g2 = ParentMap(o, (0, 0, 0b10))
    assert structural_hamming(g1, g2) == 2
    assert structural_hamming(g1, g1) == 0
    with pytest.raises(DomainError):
        structural_hamming(g1, ParentMap(NodeOrdering(("x", "y", "z")), (0, 0, 0)))


def test_compare_report():
    spec = diagnosis_family(2, 1)
    table = _table(spec, {0: 0}, {0: 0}, {0: 5, 1: 4, 2: 4, 3: 9})
    rep = compare(table, spec)
    assert set(rep.results) == set(METHODS)
    assert rep.gaps["k2-forward"] == 4
    assert rep.gaps["k2-backward"] == 0
    assert rep.agreement["k2-forward"] == (True, True, False)
    assert rep.hamming["k2-forward"] == 2
    assert rep.hamming["k2-backward"] == 0
    # totals are consistent with scoring the graphs directly
    for name, res in rep.results.items():
        assert table_graph_score(table, res.graph) == res.total_score


def test_k2_never_beats_exact_random():
    rng = random.Random(33)
    spec = full_ordered_family(("a", "b", "c", "d", "e"))
    for trial in range(30):
        entries = []
        for i in range(spec.n):
            entries.append({p: rng.uniform(-10, 10) for p in spec.iter_admissible(i)})
        table = ScoreTable(spec, tuple(entries))
        rep = compare(table, spec)
        for name in ("k2-forward", "k2-backward"):
            assert rep.gaps[name] >= 0


# --- properties over random families ----------------------------------------

@st.composite
def int_tables(draw):
    """A random family, capped or not, with a score in -3..3 per admissible set: many ties."""
    spec = draw(family_specs())
    assume(spec.family_size() <= 4096)
    cells = tuple({p: draw(st.integers(-3, 3)) for p in spec.iter_admissible(i)}
                  for i in range(spec.n))
    return spec, ScoreTable(spec, cells)


@settings(max_examples=60, deadline=None)
@given(int_tables())
def test_exact_matches_bruteforce_on_random_families(case):
    spec, table = case
    assert optimize_exact(table, spec).graph == learn_bruteforce(spec, table)


@settings(max_examples=60, deadline=None)
@given(int_tables())
def test_k2_never_scores_above_exact_on_random_families(case):
    spec, table = case
    best = optimize_exact(table, spec).total_score
    assert k2_forward(table, spec).total_score <= best
    assert k2_backward(table, spec).total_score <= best


@st.composite
def tied_float_tables(draw):
    """A random family whose float scores come from a small pool: many exact
    ties, and values one ulp apart, which are not ties."""
    spec = draw(family_specs())
    seeds = draw(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=3))
    pool = sorted({v for x in seeds
                   for v in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))})
    cells = tuple({p: draw(st.sampled_from(pool)) for p in spec.iter_admissible(i)}
                  for i in range(spec.n))
    return spec, ScoreTable(spec, cells)


@settings(max_examples=100, deadline=None)
@given(tied_float_tables())
def test_exact_is_the_first_max_per_child_on_float_tables(case):
    # checked per child, not against brute force, whose float sums round
    spec, table = case
    res = optimize_exact(table, spec)
    for i, choice in enumerate(res.per_child):
        lattice = spec.iter_admissible(i)
        scores = [table.local(i, p) for p in lattice]
        assert choice.parents == lattice[scores.index(max(scores))]
        assert choice.local == max(scores) and choice.evaluated == len(lattice)


def _reference_choices(spec, cells, method):
    """Each child's parent set by a first maximum or a greedy walk over the
    scores as given: Fractions and ints compared with `>`."""
    chosen = []
    for i, cell in enumerate(cells):
        lattice = spec.iter_admissible(i)
        if method == "exact":
            chosen.append(max(lattice, key=cell.__getitem__))
            continue
        forward = method == "k2-forward"
        p = spec.floor[i] if forward else max(lattice, key=int.bit_count)
        while True:
            if forward:
                full = spec.max_parents is not None and p.bit_count() >= spec.max_parents
                moves = [] if full else [p | 1 << b for b in bits_of(spec.free_mask(i) & ~p)]
            else:
                moves = [p & ~(1 << b) for b in bits_of(p & ~spec.floor[i])]
            best = max(moves, key=cell.__getitem__, default=None)  # ties: lowest node
            if best is None or not cell[best] > cell[p]:
                break
            p = best
        chosen.append(p)
    return chosen


@settings(max_examples=120, deadline=None)
@given(rational_tables())
def test_learners_on_rational_tables_choose_as_the_fractions_do(case):
    # the table holds each all-Fraction child as numerators over one
    # denominator, built directly or read from JSON; ties included, every
    # learner picks what the Fractions themselves pick, and reports them
    spec, cells = case
    for table in rational_table_pair(spec, cells):
        for learner in (optimize_exact, k2_forward, k2_backward):
            res = learner(table, spec)
            want = _reference_choices(spec, cells, res.method)
            assert list(res.graph.parents) == want
            for c, p in zip(res.per_child, want):
                v = cells[c.child][p]
                assert c.local == v and type(c.local) is type(v)
            total = sum(cells[i][p] for i, p in enumerate(want))
            assert res.total_score == total and type(res.total_score) is type(total)
