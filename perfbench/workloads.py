"""The four workloads: a fixed pool of ops each, with seeded inputs and output checks.

An op's `run` is the timed call into cimset, through `cimset.cli.main` or
the public library functions; it sees only the files written here.  Every
cimset function is looked up on its module at call time, so the traced run
reaches the wrapped names.  `check` runs outside the timed span and
compares the output with answers computed in `gen` without cimset.

Pool sizes are fixed per workload and the seed changes only the contents
(DAG, tables, sampled members and pairs), so every seed does the same
amount of work and runs with different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import cimset.cli
import cimset.geometry
import cimset.graphs
import cimset.imsets
import cimset.oracle
import cimset.scoring

import gen

METHODS = ("exact", "k2-forward", "k2-backward")


@dataclass
class Op:
    label: str
    props: dict
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    side_file: Optional[str] = None

    def digest(self, out) -> str:
        """Hash of everything the op produced; tracing must not change it."""
        h = hashlib.sha256(repr(out).encode())
        if self.side_file is not None:
            with open(self.side_file, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


def cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cimset.cli.main(argv)
    return rc, out.getvalue()


def _close(got, want, exact):
    if exact:
        return Fraction(got) == want
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)


def _check_learned(doc, ref, exact):
    for m in METHODS:
        if doc[m]["graph"]["parents"] != ref[m]["parents"]:
            return f"{m}: learned graph differs from the reference"
        if not _close(doc[m]["score"], ref[m]["score"], exact):
            return f"{m}: score {doc[m]['score']} != reference {ref[m]['score']}"
    return None


# --- learn-data --------------------------------------------------------------
#
# Equal rows x parent-sets products keep the ops at similar cost; the
# cardinalities put some children's ceiling-plus-child contingency table
# above the row count and some below it.

LEARN_DATA = (
    (gen.diagnosis(5, 3), 2500, (2, 2, 2, 2, 2, 2, 2, 2)),
    (gen.diagnosis(6, 2), 1900, (3, 4, 3, 4, 3, 4, 4, 3)),
    (gen.diagnosis(4, 4), 3700, (2, 3, 2, 3, 3, 2, 3, 2)),
    (gen.full_ordered(7), 2000, (4, 2, 3, 4, 2, 3, 4)),
)


def learn_data_ops(seed, work):
    ops = []
    for k, (fam, rows, cards) in enumerate(LEARN_DATA):
        fam_path = f"{work}/learn_data_{k}_family.json"
        csv_path = f"{work}/learn_data_{k}.csv"
        gen.write_json(fam_path, fam.to_json())
        ref, props = gen.make_learn_data(fam, rows, cards, [seed, k], csv_path)
        argv = ["learn", "--data", csv_path, "--family", fam_path,
                "--method", "all", "--format", "json"]

        def check(out, ref=ref):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            return _check_learned(json.loads(text), ref, exact=False)

        ops.append(Op(f"learn {fam.label} rows={rows}", props,
                      lambda argv=argv: cli(argv), check))
    return ops


# --- learn-table -------------------------------------------------------------

TABLE_FAMILIES = (gen.diagnosis(11, 2), gen.diagnosis(12, 1), gen.full_ordered(12))


def _fold(path, doc):
    with open(path, encoding="utf-8") as fh:
        table = cimset.scoring.score_table_from_json(json.load(fh))
    idx = cimset.imsets.coordinate_index(table.spec)
    dv = cimset.scoring.mobius_data_vector(table, idx)
    return {m: cimset.scoring.score_graph(dv, cimset.graphs.graph_from_json(doc[m]["graph"]))
            for m in METHODS}


def _table_op(path):
    rc, text = cli(["compare-k2", "--scores", path])
    folded = _fold(path, json.loads(text)) if rc == 0 else None
    return rc, text, folded


def learn_table_ops(seed, work):
    ops = []
    for k, (fam, kind) in enumerate((f, kind) for f in TABLE_FAMILIES
                                    for kind in gen.NUMERIC_KINDS):
        path = f"{work}/table_{k}.json"
        ref, props = gen.make_score_table(fam, kind, f"{seed}-{k}", path)
        exact = kind != "float"

        def check(out, ref=ref, exact=exact):
            rc, text, folded = out
            if rc != 0:
                return f"exit code {rc}"
            bad = _check_learned(json.loads(text), ref, exact)
            if bad:
                return bad
            for m in METHODS:
                if not _close(folded[m], ref[m]["score"], exact):
                    return f"{m}: folded score {folded[m]} != table score {ref[m]['score']}"
            return None

        ops.append(Op(f"compare-k2+fold {fam.label} {kind}", props,
                      lambda path=path: _table_op(path), check))
    return ops


# --- geometry ----------------------------------------------------------------
#
# (family, members whose neighbors are drained; None drains every member).

GEOMETRY = (
    (gen.diagnosis(10, 1), 96),
    (gen.diagnosis(8, 1), None),
    (gen.diagnosis(5, 2), None),
    (gen.diagnosis(3, 3), None),
    (gen.diagnosis(2, 5), None),
    (gen.full_ordered(5), None),
    (gen.example_47(), None),
)


def _census(fam_path, graph_path, sample):
    with open(fam_path, encoding="utf-8") as fh:
        spec = cimset.graphs.family_from_json(json.load(fh))
    idx = cimset.imsets.coordinate_index(spec)
    members = list(cimset.graphs.enumerate_family(spec))
    vecs = [cimset.imsets.characteristic_imset(g, idx).bits for g in members]
    picks = members if sample is None else [members[j] for j in sample]
    degrees = [sum(1 for _ in cimset.geometry.neighbors(g, spec)) for g in picks]
    rank = cimset.oracle.affine_dimension(vecs)
    formula = cimset.geometry.affine_dimension_formula(spec)
    rc, text = cli(["neighbors", "--family", fam_path, "--graph", graph_path, "--count-only"])
    return {"members": len(members), "distinct": len(set(vecs)), "degrees": degrees,
            "rank": rank, "formula": formula, "rc": rc, "cli": text}


def geometry_ops(seed, work):
    ops = []
    for k, (fam, sample_size) in enumerate(GEOMETRY):
        rng = random.Random(f"{seed}-{k}")
        fam_path = f"{work}/geometry_{k}_family.json"
        graph_path = f"{work}/geometry_{k}_graph.json"
        gen.write_json(fam_path, fam.to_json())
        member = [rng.choice(fam.admissible(i)) for i in range(fam.n)]
        gen.write_json(graph_path, fam.graph_json(member))
        size, degree = fam.size(), fam.degree()
        sample = None if sample_size is None else sorted(rng.sample(range(size), sample_size))
        drained = size if sample is None else sample_size

        def check(out, size=size, degree=degree, drained=drained):
            if out["members"] != size or out["distinct"] != size:
                return f"{out['members']} members, {out['distinct']} distinct imsets, want {size}"
            if len(out["degrees"]) != drained or set(out["degrees"]) != {degree}:
                return f"neighbor counts {sorted(set(out['degrees']))}, want {degree}"
            if not out["rank"] == out["formula"] == degree:
                return f"affine rank {out['rank']}, formula {out['formula']}, want {degree}"
            if out["rc"] != 0 or out["cli"] != f"{degree}\n":
                return f"neighbors --count-only printed {out['cli']!r} (exit {out['rc']})"
            return None

        props = {"family": fam.label, "vertices": size, "coordinates": fam.coordinates(),
                 "degree": degree, "members_drained": drained,
                 "neighbors_drained": drained * degree}
        ops.append(Op(f"census {fam.label}", props,
                      lambda a=(fam_path, graph_path, sample): _census(*a),
                      check))
    return ops


# --- verify ------------------------------------------------------------------
#
# (family, --limit).  Pair limits give the ops similar cost, except that
# diagnosis(3,2) samples 800 of its 2016 pairs, so that the slowest op, which
# sets the tail, depends little on which pairs the seed picks.  The LP of a
# pair grows about eightfold with each parent by which the two vertices
# differ, so in diagnosis(m,1) for m >= 7 one sampled pair can cost more
# than the rest of the op and the op's time depends on the seed far more
# than on the code; diagnosis(6,1), with 63 coordinates, is the
# high-dimensional family instead.

VERIFY = (
    (gen.diagnosis(6, 1), 64),
    (gen.diagnosis(4, 2), 96),
    (gen.example_47(), 80),
    (gen.diagnosis(3, 2), 800),
    (gen.full_ordered(4), 400),
)

CHECK_NAMES = ("product", "dimension", "adjacency", "facets")


def verify_ops(seed, work):
    ops = []
    cert_path = f"{work}/certificates.jsonl"
    for k, (fam, limit) in enumerate(VERIFY):
        fam_path = f"{work}/verify_{k}_family.json"
        gen.write_json(fam_path, fam.to_json())
        size = fam.size()
        pairs = min(limit, size * (size - 1) // 2)
        facet_rows = sum(1 << fam.free(i).bit_count() for i in range(fam.n)
                         if fam.free(i) and 1 << fam.free(i).bit_count() <= limit)
        vseed = random.Random(f"{seed}-{k}").randrange(1 << 31)
        argv = ["verify", "--family", fam_path, "--checks", "all", "--limit", str(limit),
                "--seed", str(vseed), "--certificates", cert_path]

        def check(out, lines_wanted=pairs + facet_rows):
            rc, text = out
            rows = [line.split() for line in text.splitlines()]
            if rc != 0 or [r[:2] for r in rows] != [[c, "PASS"] for c in CHECK_NAMES]:
                return f"exit code {rc}: {text!r}"
            with open(cert_path, "rb") as fh:
                lines = fh.read().count(b"\n")
            if lines != lines_wanted:
                return f"{lines} certificate lines, want {lines_wanted}"
            return None

        props = {"family": fam.label, "vertices": size, "coordinates": fam.coordinates(),
                 "limit": limit, "pairs": pairs, "facet_rows": facet_rows}
        ops.append(Op(f"verify {fam.label} limit={limit}", props,
                      lambda argv=argv: cli(argv), check, side_file=cert_path))
    return ops


POOLS = {"learn-data": learn_data_ops, "learn-table": learn_table_ops,
            "geometry": geometry_ops, "verify": verify_ops}
