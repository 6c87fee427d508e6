"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `criterion N: PASS/FAIL` line with its runtime
and enforces the stated time budget.  All comparisons are exact unless a
tolerance is stated inline.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from cimset.geometry import (affine_dimension_formula, are_neighbors, facet_evaluate,
                             facet_matrix, neighbors, vertex_block_vector)
from cimset.graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                           enumerate_family, full_ordered_family)
from cimset.imsets import block_slice, characteristic_imset, coordinate_index
from cimset.learn import k2_backward, k2_forward, optimize_exact
from cimset.oracle import (affine_dimension, learn_bruteforce, oracle_adjacent,
                           oracle_facet_check)
from cimset.scoring import (ScoreTable, data_vector_dot, mobius_data_vector,
                            score_graph, score_table_from_json, table_graph_score)
from cimset.subsets import (iter_graded_subsets, iter_submasks,
                            mobius_subsets_inplace, zeta_subsets_inplace)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(n, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {n}: FAIL ({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {n} ran {dt:.2f}s, over its {budget}s budget"
    print(f"criterion {n}: PASS ({dt:.2f}s, budget {budget:.0f}s)", flush=True)


# --- 1: two-source worked example, imset matrix and facet matrix ----------

def test_criterion_1():
    with criterion(1, 1.0):
        spec = diagnosis_family(2, 1)
        idx = coordinate_index(spec)
        matrix = [list(characteristic_imset(g, idx).bits)
                  for g in enumerate_family(spec)]
        assert matrix == [
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [1, 1, 1],
        ]
        assert facet_matrix(2).dense_matrix() == [
            [1, -1, -1, 1],
            [0, 1, 0, -1],
            [0, 0, 1, -1],
            [0, 0, 0, 1],
        ]


# --- 2: greedy-trap score vectors ------------------------------------------

def _load_fixture_table(name):
    import json
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return score_table_from_json(json.load(fh))


def test_criterion_2():
    with criterion(2, 1.0):
        spec = diagnosis_family(3, 1)
        idx = coordinate_index(spec)

        tests = [
            # (fixture, stated objective vector r, exact parents, exact <r,c>,
            #  greedy runner, greedy parents, greedy <r,c>)
            ("example_k2_forward.json", (-1, -2, -1, -3, -10, -4, 20),
             0b101, -12, k2_forward, 0b110, -7),
            ("example_k2_backward.json", (-3, -1, -1, 3, 3, 0, 10),
             0b001, -3, k2_backward, 0b110, -2),
        ]
        for name, r, best_pa, best_dot, greedy, greedy_pa, greedy_dot in tests:
            table = _load_fixture_table(name)
            assert table.spec == spec
            dv = mobius_data_vector(table, idx)
            assert dv.values == r
            assert dv.s_total == 0

            exact = optimize_exact(table, spec)
            assert exact.graph.parents[3] == best_pa
            c_best = characteristic_imset(exact.graph, idx)
            assert data_vector_dot(dv, c_best) == best_dot
            # the stated optimum is strictly below every other member
            for g in enumerate_family(spec):
                c = characteristic_imset(g, idx)
                if g != exact.graph:
                    assert data_vector_dot(dv, c) > best_dot

            res = greedy(table, spec)
            assert res.graph.parents[3] == greedy_pa
            assert data_vector_dot(dv, characteristic_imset(res.graph, idx)) == greedy_dot


# --- 3: counting, degree, and dimension -------------------------------------

def test_criterion_3():
    with criterion(3, 60.0):
        for m in range(1, 13):
            for n in range(1, 13):
                if m * n > 12:
                    continue
                spec = diagnosis_family(m, n)
                idx = coordinate_index(spec)
                members = list(enumerate_family(spec))
                vecs = [characteristic_imset(g, idx).bits for g in members]
                assert len(vecs) == 2 ** (m * n)
                assert len(set(vecs)) == 2 ** (m * n)
                degree = n * (2 ** m - 1)
                for g in members:
                    assert sum(1 for _ in neighbors(g, spec)) == degree
                assert affine_dimension(vecs) == degree
                assert affine_dimension_formula(spec) == degree
        for n in range(1, 6):
            spec = full_ordered_family(tuple(f"a{i}" for i in range(1, n + 1)))
            idx = coordinate_index(spec)
            vecs = [characteristic_imset(g, idx).bits for g in enumerate_family(spec)]
            assert affine_dimension(vecs) == 2 ** n - (n + 1)


# --- 4: facet rows certified; indicator identity sampled --------------------

def test_criterion_4():
    with criterion(4, 30.0):
        for k in range(1, 5):
            sysk = facet_matrix(k)
            cloud = [vertex_block_vector(k, p) for p in range(1 << k)]
            for s in iter_submasks((1 << k) - 1):
                cert = oracle_facet_check((s, sysk.dense_row(s)), cloud)
                assert cert.verified, f"k={k}, s={s:b}"
                assert cert.replay()

        systems = {k: facet_matrix(k) for k in range(1, 11)}
        rng = random.Random(4)
        for _ in range(10 ** 4):
            k = rng.randint(1, 10)
            s = rng.randrange(1 << k)
            sp = rng.randrange(1 << k)
            got = facet_evaluate(systems[k], s, vertex_block_vector(k, sp))
            assert got == (1 if s == sp else 0)


# --- 5: combinatorial adjacency rule vs the exact adjacency oracle ----------

def test_criterion_5():
    with criterion(5, 120.0):
        families = []
        for m in range(1, 7):
            for n in range(1, 7):
                if m * n <= 6:
                    families.append(diagnosis_family(m, n))
        for n in range(1, 5):
            families.append(full_ordered_family(tuple(f"a{i}" for i in range(1, n + 1))))

        checked = 0
        for spec in families:
            idx = coordinate_index(spec)
            members = list(enumerate_family(spec))
            vecs = [characteristic_imset(g, idx).bits for g in members]
            for i, j in combinations(range(len(members)), 2):
                cert = oracle_adjacent(vecs[i], vecs[j], vecs)
                assert cert.verified
                closed = are_neighbors(members[i], members[j], spec)
                assert closed == (cert.kind == "adjacency"), \
                    f"{spec.ordering.names}: pair {i},{j}"
                checked += 1
        assert checked == 11530


# --- 6: block-slice sets factor the vertex set -------------------------------

def _example_47_family():
    """Seven ordered nodes; node 6 must keep 1 and 2 as parents and may not
    use 5; the remaining children are narrowed to keep the family small."""
    names = tuple(f"a{i}" for i in range(1, 8))
    floor = (0, 0, 0, 0, 0, 0b00011, 0)
    ceiling = (0, 0b1, 0b11, 0b111, 0, 0b01111, 0)
    return FamilySpec(NodeOrdering(names), floor, ceiling)


def _assert_product(spec):
    idx = coordinate_index(spec)
    members = list(enumerate_family(spec))
    imsets = [characteristic_imset(g, idx) for g in members]
    size = spec.family_size()
    assert len({c.bits for c in imsets}) == size == len(members)
    prod = 1
    for i in range(spec.n):
        if spec.ceiling[i]:
            slices = {c.block_slice_bytes(i) for c in imsets}
            assert len(slices) == spec.admissible_count(i)
            prod *= len(slices)
    assert prod == size


PAPER_BLOCK_COLUMNS = ["a1", "a2", "a1,a2", "a3", "a4", "a3,a4", "a1,a3",
                       "a1,a4", "a1,a3,a4", "a2,a3", "a2,a4", "a2,a3,a4",
                       "a1,a2,a3", "a1,a2,a4", "a1,a2,a3,a4"]
PAPER_BLOCK_ROWS = [
    (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
    (1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
]


def test_criterion_6():
    with criterion(6, 10.0):
        fam47 = _example_47_family()
        for spec in (diagnosis_family(3, 4), full_ordered_family(
                tuple(f"a{i}" for i in range(1, 6))), fam47, diagnosis_family(2, 2)):
            assert spec.family_size() <= 1 << 12
            _assert_product(spec)

        # node 6's block carries exactly the four published slice rows
        idx = coordinate_index(fam47)
        ordering = fam47.ordering
        universe = fam47.ceiling[5]
        graded = [",".join(ordering.names[b] for b in range(4) if s >> b & 1)
                  for s in iter_graded_subsets(universe)]
        col_of = {label: j for j, label in enumerate(graded)}
        perm = [col_of[label] for label in PAPER_BLOCK_COLUMNS]

        admissible = list(fam47.iter_admissible(5))
        assert [a.bit_count() for a in admissible] == [2, 3, 3, 4]
        expected_rows = []
        for row in PAPER_BLOCK_ROWS:
            graded_row = [0] * 15
            for val, pos in zip(row, perm):
                graded_row[pos] = val
            expected_rows.append(tuple(graded_row))

        for pa, want in zip(admissible, expected_rows):
            parents = list(fam47.floor)
            parents[5] = pa
            g = ParentMap(ordering, tuple(parents))
            assert block_slice(characteristic_imset(g, idx), 5) == want

        block_set = {block_slice(characteristic_imset(g, idx), 5)
                     for g in enumerate_family(fam47)}
        assert block_set == set(expected_rows)


# --- 7: per-block maximization equals exhaustive search ----------------------

def test_criterion_7():
    with criterion(7, 60.0):
        rng = random.Random(7)
        families = [diagnosis_family(2, 2), diagnosis_family(3, 1),
                    full_ordered_family(("a", "b", "c", "d")),
                    _example_47_family(), diagnosis_family(2, 3)]
        for spec in families:
            assert spec.family_size() <= 1 << 12
            for _ in range(200):
                entries = tuple({p: rng.randrange(-20, 21)
                                 for p in spec.iter_admissible(i)}
                                for i in range(spec.n))
                table = ScoreTable(spec, entries)
                exact = optimize_exact(table, spec)
                assert exact.graph == learn_bruteforce(spec, table)
                assert table_graph_score(table, exact.graph) == exact.total_score
                for greedy in (k2_forward, k2_backward):
                    assert greedy(table, spec).total_score <= exact.total_score


# --- 8: transform algebra -----------------------------------------------------

def test_criterion_8():
    with criterion(8, 10.0):
        rng = random.Random(8)
        for k in (4, 8, 12):
            a = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(1 << k)]
            b = list(a)
            zeta_subsets_inplace(b, k)
            mobius_subsets_inplace(b, k)
            assert b == a
            c = list(a)
            mobius_subsets_inplace(c, k)
            zeta_subsets_inplace(c, k)
            assert c == a
        a = [Fraction(rng.randrange(-999, 1000), rng.randrange(1, 99))
             for _ in range(1 << 8)]
        b = list(a)
        zeta_subsets_inplace(b, 8)
        mobius_subsets_inplace(b, 8)
        assert b == a

        # rational mode end to end on the widest single block
        spec = diagnosis_family(12, 1)
        idx = coordinate_index(spec)
        entries = tuple({p: rng.randrange(-10 ** 6, 10 ** 6)
                         for p in spec.iter_admissible(i)}
                        for i in range(spec.n))
        table = ScoreTable(spec, entries)
        dv = mobius_data_vector(table, idx)
        members = list(enumerate_family(spec))
        for g in rng.sample(members, 192):
            assert score_graph(dv, g) == table_graph_score(table, g)

        # float mode within 1e-9 relative
        spec = diagnosis_family(4, 2)
        idx = coordinate_index(spec)
        entries = tuple({p: rng.uniform(-100, 100)
                         for p in spec.iter_admissible(i)}
                        for i in range(spec.n))
        table = ScoreTable(spec, entries)
        dv = mobius_data_vector(table, idx)
        for g in enumerate_family(spec):
            want = table_graph_score(table, g)
            got = score_graph(dv, g)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
