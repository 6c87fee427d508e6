"""Command-line front end.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 bad input or resource refusal, 2 a verification check was falsified.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from .errors import CimsetError, DomainError, FormatError
from .geometry import facet_system_for_child, neighbors, product_structure
from .graphs import (enumerate_family, family_contains, family_from_json,
                     family_graph_texts, graph_from_json, graph_to_json)
from .imsets import (characteristic_imset, coordinate_index, export_full_vector,
                     full_vector_labels, imset_text_lines)
from .learn import compare, k2_forward, k2_backward, optimize_exact
from .scoring import CRITERIA, build_score_table, load_csv, score_table_from_json
from .subsets import bits_of, iter_graded_subsets
from .verify import CHECKS, verify_family


class _Parser(argparse.ArgumentParser):
    # argparse's default SystemExit(2) collides with the verify-failure code
    def error(self, message):
        raise FormatError(message)


def _nonnegative_int(text):
    """argparse type for a nonnegative integer option such as --limit."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


class _OutFile:
    """`path` written as text, as a context manager.

    The file is opened, and an earlier one truncated, at the first write,
    or at a clean exit from the `with` block that wrote nothing: a block
    refused before its first write leaves an earlier file as it was.  An
    OSError from opening the file, from one of its writes or from its
    close is a FormatError naming it; what the `with` block raises itself
    passes through.
    """

    def __init__(self, path, what):
        self._path, self._what = path, what
        self._fh = None

    def _refusal(self, exc):
        return FormatError(f"cannot write {self._what} file {self._path}: "
                           f"{exc.strerror or exc}")

    def write(self, text):
        try:
            if self._fh is None:
                self._fh = open(self._path, "w", encoding="utf-8")
            return self._fh.write(text)
        except OSError as exc:
            raise self._refusal(exc) from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._fh is None:
            self.write("")  # a clean block that wrote nothing leaves an empty file
        if self._fh is None:
            return
        try:
            self._fh.close()
        except OSError as exc:
            # the block's own error wins over the flush failing again on close
            if exc_type is None:
                raise self._refusal(exc) from None


def _graph_text(g):
    parts = []
    for i, name in enumerate(g.ordering.names):
        parts.append(f"{name}<-{','.join(g.parent_names(i))}")
    return "; ".join(parts)


def _fraction_text(v):
    """json's default hook: an exact score as its "p/q" text."""
    if isinstance(v, Fraction):
        return str(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _print_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2, default=_fraction_text) + "\n")


def _print_lines(lines, noun):
    """One line per item on stdout, then `N <noun>` on stderr."""
    count = 0
    for line in lines:
        count += 1
        print(line)
    print(f"{count} {noun}", file=sys.stderr)


def _print_results(results):
    """Each learner's score line and graph line, as text."""
    for r in results:
        print(f"{r.method}: score={r.total_score}")
        print(f"  {_graph_text(r.graph)}")


# --- commands -------------------------------------------------------------

def cmd_imset(args) -> int:
    spec = family_from_json(_load_json(args.family, "family"))
    g = graph_from_json(_load_json(args.graph, "graph"))
    idx = coordinate_index(spec)
    c = characteristic_imset(g, idx)
    if args.full:
        vec = export_full_vector(c)
        if args.format == "json":
            _print_json({"graph": graph_to_json(g), "full_vector": vec})
            return 0
        sys.stdout.write("".join(f"{lab} {v}\n" for lab, v in zip(full_vector_labels(spec), vec)))
        return 0
    if args.format == "json":
        coords = [{"child": spec.ordering.names[ch],
                   "subset": list(spec.ordering.names_of_mask(s)),
                   "value": value}
                  for (ch, s), value in zip(idx.coordinates(), c.bits)]
        _print_json({"graph": graph_to_json(g), "coordinates": coords})
    else:
        for line in imset_text_lines(c):
            print(line)
    return 0


def cmd_facets(args) -> int:
    spec = family_from_json(_load_json(args.family, "family"))
    if args.child is not None:
        children = [spec.ordering.index(args.child)]
    else:
        children = [i for i in range(spec.n) if spec.free_mask(i)]
        if not children:
            raise DomainError("family is a single point; no facets to print")
    out = []
    for i in children:
        sysk = facet_system_for_child(spec, i)
        names = spec.ordering.names_of_mask(spec.free_mask(i))
        rows = []
        emitted = 0
        for s in iter_graded_subsets(sysk.universe, include_empty=True):
            if args.limit is not None and emitted >= args.limit:
                print(f"child {spec.ordering.names[i]}: row limit {args.limit} reached, "
                      f"{sysk.nrows - emitted} rows omitted", file=sys.stderr)
                break
            entries = sorted(sysk.row_sparse(s), key=lambda e: (e[0].bit_count(), e[0]))
            terms = [(tuple(names[b] for b in bits_of(t)), sign) for t, sign in entries]
            rows.append((tuple(names[b] for b in bits_of(s)), terms))
            emitted += 1
        out.append((i, spec.ordering.names_of_mask(spec.floor[i]), rows))

    if args.format == "json":
        doc = [{"child": spec.ordering.names[i],
                "fixed": list(fixed),
                "rows": [{"s": list(s), "terms": [
                    {"subset": list(t), "coef": sign} for t, sign in terms]}
                    for s, terms in rows]}
               for i, fixed, rows in out]
        _print_json(doc)
    else:
        for i, _, rows in out:
            for s, terms in rows:
                expr = []
                for t, sign in terms:
                    if not t:
                        expr.append(str(sign))
                    else:
                        expr.append(("+ " if sign > 0 else "- ") + "x[" + ",".join(t) + "]")
                label = "{" + ",".join(s) + "}"
                print(f"{spec.ordering.names[i]} s={label}: {' '.join(expr)} >= 0")
    return 0


def cmd_neighbors(args) -> int:
    spec = family_from_json(_load_json(args.family, "family"))
    g = graph_from_json(_load_json(args.graph, "graph"))
    if args.count_only:
        if not family_contains(spec, g):
            raise DomainError("graph is not a member of the family")
        print(spec.degree())
        return 0
    # not in enumeration order, so each neighbor is encoded on its own
    encode = _graph_text if args.format == "text" else lambda h: json.dumps(graph_to_json(h))
    _print_lines(map(encode, neighbors(g, spec)), "neighbors")
    return 0


def cmd_verify(args) -> int:
    spec = family_from_json(_load_json(args.family, "family"))
    checks = CHECKS if args.checks == "all" else args.checks.split(",")
    if args.certificates:
        with _OutFile(args.certificates, "certificates") as fh:
            rows = verify_family(spec, checks, args.limit, args.seed, fh.write)
    else:
        rows = verify_family(spec, checks, args.limit, args.seed)
    print(f"family: {spec.family_size()} vertices, block dimension "
          f"{product_structure(spec).total_dimension}, {spec.degree()} neighbors each",
          file=sys.stderr)
    if args.format == "json":
        _print_json({"checks": [{"check": n, "pass": ok, "detail": d} for n, ok, d in rows]})
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, ok, d in rows:
            print(f"{n:<{width}}  {'PASS' if ok else 'FAIL'}  {d}")
    return 0 if all(ok for _, ok, _ in rows) else 2


def _load_table(args):
    """The score table and family of learn or compare-k2; --rational refuses a float score."""
    if args.scores and args.data:
        raise FormatError("give either --scores or --data, not both")
    if args.scores:
        if args.max_parents is not None:
            raise FormatError("--max-parents applies only with --data")
        if args.criterion is not None:
            raise FormatError("--criterion applies only with --data")
        table = score_table_from_json(_load_json(args.scores, "score table"))
        if args.family:
            spec = family_from_json(_load_json(args.family, "family"))
            if spec != table.spec:
                raise DomainError("score table and --family describe different families")
    else:
        if not args.data:
            raise FormatError("one of --scores or --data is required")
        if not args.family:
            raise FormatError("--data requires --family")
        spec = family_from_json(_load_json(args.family, "family"))
        if args.max_parents is not None:
            spec = dataclasses.replace(spec, max_parents=args.max_parents)
        data = load_csv(args.data, spec.ordering)
        table = build_score_table(data, spec, args.criterion or "bic")
    if args.rational and any(isinstance(v, float) for cell in table.entries
                             for v in cell.values()):
        raise DomainError("--rational requires an exact score table (integers or rationals)")
    return table, table.spec


def _result_json(r):
    return {"score": r.total_score,
            "graph": graph_to_json(r.graph),
            "per_child": [{"child": r.graph.ordering.names[c.child],
                           "parents": list(r.graph.ordering.names_of_mask(c.parents)),
                           "local": c.local,
                           "evaluated": c.evaluated}
                          for c in r.per_child]}


def cmd_learn(args) -> int:
    table, spec = _load_table(args)
    runners = {"exact": optimize_exact, "k2f": k2_forward, "k2b": k2_backward}
    wanted = list(runners) if args.method == "all" else [args.method]
    results = {name: runners[name](table, spec) for name in wanted}
    if args.out:
        first = results[wanted[0]]
        with _OutFile(args.out, "graph") as fh:
            json.dump(graph_to_json(first.graph), fh, indent=2)
            fh.write("\n")
        print(f"wrote {first.method} graph to {args.out}", file=sys.stderr)
    if args.format == "json":
        _print_json({r.method: _result_json(r) for r in results.values()})
    else:
        _print_results(results.values())
    return 0


def cmd_compare(args) -> int:
    table, spec = _load_table(args)
    rep = compare(table, spec)
    doc = {name: _result_json(r) for name, r in rep.results.items()}
    doc["gaps"] = dict(rep.gaps)
    doc["agreement"] = {k: list(v) for k, v in rep.agreement.items()}
    doc["structural_hamming"] = dict(rep.hamming)
    if args.format == "text":
        _print_results(rep.results.values())  # keyed by each result's method
        for name in rep.gaps:
            print(f"gap {name}: {rep.gaps[name]}; hamming {rep.hamming[name]}; "
                  f"children agree {sum(rep.agreement[name])}/{len(rep.agreement[name])}")
    else:
        _print_json(doc)
    return 0


def cmd_enumerate(args) -> int:
    spec = family_from_json(_load_json(args.family, "family"))
    lines = (family_graph_texts(spec, args.limit) if args.format == "json"
             else map(_graph_text, enumerate_family(spec, limit=args.limit)))
    _print_lines(lines, "graphs")
    return 0


# --- wiring ---------------------------------------------------------------

def _add_format(p, default="text"):
    p.add_argument("--format", choices=("text", "json"), default=default)


def _add_table_source(p):
    p.add_argument("--scores", help="score table JSON")
    p.add_argument("--data", help="CSV dataset")
    p.add_argument("--family", help="family JSON (required with --data)")
    p.add_argument("--criterion", choices=CRITERIA, default=None,
                   help="local score of --data (default bic)")
    p.add_argument("--max-parents", type=int, default=None)
    p.add_argument("--rational", action="store_true",
                   help="require exact scores end to end")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for interface stability; execution is sequential")


# built once per process: parse_args keeps no state on the parser, so repeated
# main() calls in one process share it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="cimset", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("imset", parents=[], help="print a graph's characteristic imset")
    p.add_argument("--family", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--full", action="store_true",
                   help="emit the ambient vector over all node sets of size >= 2")
    _add_format(p)
    p.set_defaults(fn=cmd_imset)

    p = sub.add_parser("facets", help="print per-child facet systems")
    p.add_argument("--family", required=True)
    p.add_argument("--child", default=None)
    p.add_argument("--limit", type=_nonnegative_int, default=None, help="max rows per child")
    _add_format(p)
    p.set_defaults(fn=cmd_facets)

    p = sub.add_parser("neighbors", help="list the polytope neighbors of a graph")
    p.add_argument("--family", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--count-only", action="store_true")
    _add_format(p)
    p.set_defaults(fn=cmd_neighbors)

    p = sub.add_parser("verify", help="certify geometry claims with the exact oracle")
    p.add_argument("--family", required=True)
    p.add_argument("--checks", default="all",
                   help=f"comma list of {','.join(CHECKS)}")
    p.add_argument("--limit", type=_nonnegative_int, default=2000,
                   help="max adjacency pairs / facet rows per block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certificates", default=None, help="write JSON-lines certificates")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for interface stability; execution is sequential")
    _add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("learn", help="learn a structure from data or a score table")
    _add_table_source(p)
    p.add_argument("--method", choices=("exact", "k2f", "k2b", "all"), default="exact")
    p.add_argument("--out", default=None, help="write the learned graph JSON here")
    _add_format(p)
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("compare-k2", help="exact vs K2 forward/backward report")
    _add_table_source(p)
    _add_format(p, default="json")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("enumerate", help="list every family member")
    p.add_argument("--family", required=True)
    p.add_argument("--limit", type=_nonnegative_int, default=None)
    _add_format(p)
    p.set_defaults(fn=cmd_enumerate)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CimsetError as exc:
        print(f"cimset: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
