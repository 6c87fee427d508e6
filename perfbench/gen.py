"""Seeded benchmark inputs and their reference answers.

This module uses only the standard library and numpy, never cimset, so the
answers the benchmark checks outputs against are computed independently of
the code under test.  A family is kept as per-child floor and ceiling
bitmasks; the JSON it writes is the family format the cimset CLI reads.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

# Two local scores of one child closer than this count as a near-tie; the
# data generator redraws such datasets so that the learned graph does not
# depend on how a score was summed.
TIE_GAP = 1e-6


def _bits(mask):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


class Family:
    """Ordered DAG family: parents of child i lie between floor[i] and ceiling[i]."""

    def __init__(self, label, names, floor, ceiling):
        self.label = label
        self.names = tuple(names)
        self.floor = tuple(floor)
        self.ceiling = tuple(ceiling)

    @property
    def n(self):
        return len(self.names)

    def free(self, i):
        return self.ceiling[i] & ~self.floor[i]

    def admissible(self, i):
        """Every parent set of child i: floor plus any subset of the free parents."""
        free = _bits(self.free(i))
        return [self.floor[i] | sum(1 << b for b in combo)
                for k in range(len(free) + 1) for combo in combinations(free, k)]

    def size(self):
        return math.prod(1 << self.free(i).bit_count() for i in range(self.n))

    def degree(self):
        """Neighbors of every vertex, which is also the polytope's affine dimension."""
        return sum((1 << self.free(i).bit_count()) - 1 for i in range(self.n))

    def coordinates(self):
        return sum((1 << c.bit_count()) - 1 for c in self.ceiling if c)

    def names_of(self, mask):
        return [self.names[b] for b in _bits(mask)]

    def to_json(self):
        return {"ordering": list(self.names),
                "floor": [self.names_of(m) for m in self.floor],
                "ceiling": [self.names_of(m) for m in self.ceiling],
                "max_parents": None}

    def graph_json(self, parents):
        return {"ordering": list(self.names),
                "parents": [self.names_of(p) for p in parents]}


def diagnosis(m, n):
    names = [f"a{i}" for i in range(1, m + 1)] + [f"b{j}" for j in range(1, n + 1)]
    ceiling = [0] * m + [(1 << m) - 1] * n
    return Family(f"diagnosis({m},{n})", names, [0] * (m + n), ceiling)


def full_ordered(n):
    return Family(f"full_ordered({n})", [f"a{i}" for i in range(1, n + 1)],
                  [0] * n, [(1 << i) - 1 for i in range(n)])


def example_47():
    """Seven ordered nodes; a6 must keep a1 and a2 and may not use a5."""
    return Family("example_4.7", [f"a{i}" for i in range(1, 8)],
                  [0, 0, 0, 0, 0, 0b00011, 0],
                  [0, 0b1, 0b11, 0b111, 0, 0b01111, 0])


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# --- reference learners over a score table ---------------------------------
#
# table[i] maps each admissible parent mask of child i to its local score.
# Callers guarantee that the scores of one child are pairwise distinct by
# more than any rounding, so plain comparisons decide every step.

def ref_exact(fam, table):
    return tuple(max(table[i], key=table[i].get) for i in range(fam.n))


def ref_k2_forward(fam, table):
    out = []
    for i in range(fam.n):
        p = fam.floor[i]
        while True:
            trials = [p | 1 << b for b in _bits(fam.free(i) & ~p)]
            best = max(trials, key=table[i].get, default=None)
            if best is None or table[i][best] <= table[i][p]:
                break
            p = best
        out.append(p)
    return tuple(out)


def ref_k2_backward(fam, table):
    out = []
    for i in range(fam.n):
        p = fam.ceiling[i]
        while True:
            trials = [p & ~(1 << b) for b in _bits(p & ~fam.floor[i])]
            best = max(trials, key=table[i].get, default=None)
            if best is None or table[i][best] <= table[i][p]:
                break
            p = best
        out.append(p)
    return tuple(out)


REFERENCE_LEARNERS = {"exact": ref_exact, "k2-forward": ref_k2_forward,
                      "k2-backward": ref_k2_backward}


def reference_results(fam, table, exact_sum):
    """Learned parents and graph score of every method, keyed like the CLI output."""
    out = {}
    for method, learner in REFERENCE_LEARNERS.items():
        parents = learner(fam, table)
        locals_ = [table[i][p] for i, p in enumerate(parents)]
        out[method] = {"parents": [fam.names_of(p) for p in parents],
                       "score": exact_sum(locals_)}
    return out


def _distinct_enough(table):
    for cell in table:
        vals = sorted(float(v) for v in cell.values())
        if any(b - a <= TIE_GAP for a, b in zip(vals, vals[1:])):
            return False
    return True


# --- learn-data: CSV drawn from a random DAG in the family -----------------

STATE_LABELS = ("no", "yes", "maybe", "unknown")


def _draw_dataset(fam, rows, cards, rng):
    parents = [fam.floor[i] | sum(1 << b for b in _bits(fam.free(i)) if rng.random() < 0.5)
               for i in range(fam.n)]
    data = np.zeros((rows, fam.n), dtype=np.int64)
    for i in range(fam.n):
        config = np.zeros(rows, dtype=np.int64)
        nconf = 1
        for b in _bits(parents[i]):
            config = config * cards[b] + data[:, b]
            nconf *= cards[b]
        # Dirichlet draws mixed with uniform mass keep every state observed
        cpt = 0.8 * rng.dirichlet(np.full(cards[i], 0.7), size=nconf) + 0.2 / cards[i]
        cum = np.cumsum(cpt, axis=1)[config]
        u = rng.random(rows)[:, None]
        data[:, i] = np.minimum((u > cum).sum(axis=1), cards[i] - 1)
    return data, parents


def bic_table(fam, data):
    """BIC of every admissible parent set, as cimset defines it, from numpy counts."""
    rows = data.shape[0]
    observed = [len(np.unique(data[:, j])) for j in range(fam.n)]
    radix = [int(data[:, j].max()) + 1 for j in range(fam.n)]
    log_n = math.log(rows)

    def clogc(codes):
        counts = np.unique(codes, return_counts=True)[1]
        return math.fsum(sorted(float(c) * math.log(c) for c in counts))

    table = []
    for i in range(fam.n):
        cell = {}
        for p in fam.admissible(i):
            code = np.zeros(rows, dtype=np.int64)
            q = 1
            for b in _bits(p):
                code = code * radix[b] + data[:, b]
                q *= observed[b]
            ll = clogc(code * radix[i] + data[:, i]) - clogc(code)
            cell[p] = ll - log_n / 2 * q * (observed[i] - 1)
        table.append(cell)
    return table


def make_learn_data(fam, rows, cards, seed, csv_path):
    """Write a CSV with string labels; return its reference answers and properties."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        data, truth = _draw_dataset(fam, rows, cards, rng)
        table = bic_table(fam, data)
        if _distinct_enough(table):
            break
    else:
        raise RuntimeError(f"{fam.label}: no dataset without near-tied scores")
    labels = []
    for j in range(fam.n):
        perm = rng.permutation(cards[j])
        labels.append(np.array([f"{fam.names[j]}_{STATE_LABELS[k]}" for k in perm]))
    columns = [labels[j][data[:, j]] for j in range(fam.n)]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fam.names) + "\n")
        fh.write("\n".join(",".join(r) for r in zip(*columns)))
        fh.write("\n")
    dense = [math.prod(cards[b] for b in _bits(fam.ceiling[i] | 1 << i)) for i in range(fam.n)]
    props = {"family": fam.label, "rows": rows, "cardinalities": list(cards),
             "max_dense_cells": max(dense),
             "children_dense_over_rows": sum(d > rows for d in dense),
             "any_dense_over_rows": any(d > rows for d in dense),
             "parent_sets": sum(len(fam.admissible(i)) for i in range(fam.n)),
             "true_parents": [fam.names_of(p) for p in truth]}
    return reference_results(fam, table, math.fsum), props


# --- learn-table: score tables of one numeric type --------------------------

NUMERIC_KINDS = ("rational", "int", "float")
# Denominators of rational scores.  Their lcm bounds every denominator the
# Möbius fold produces, so the cost of exact arithmetic does not depend on
# which denominators the seed draws.
DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def make_score_table(fam, kind, seed, path):
    """Write a score table JSON; return its reference answers and properties."""
    rng = random.Random(seed)

    def draw():
        v = rng.randrange(-10 ** 9, -10 ** 6)
        if kind == "int":
            return v
        if kind == "float":
            return v / 7919.0
        return Fraction(v, rng.choice(DENOMINATORS))

    table = []
    scores = []
    for i in range(fam.n):
        cell = {}
        seen = set()
        for p in fam.admissible(i):
            v = draw()
            while v in seen:
                v = draw()
            seen.add(v)
            cell[p] = v
        table.append(cell)
        for p, v in cell.items():
            scores.append({"child": fam.names[i], "parents": fam.names_of(p),
                           "score": str(v) if kind == "rational" else v})
    write_json(path, {"family": fam.to_json(), "criterion": "custom", "scores": scores})
    exact_sum = math.fsum if kind == "float" else sum
    props = {"family": fam.label, "numeric": kind, "entries": len(scores),
             "coordinates": fam.coordinates(), "widest_block": max(
                 fam.free(i).bit_count() for i in range(fam.n))}
    return reference_results(fam, table, exact_sum), props
