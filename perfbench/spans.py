"""Spans and counters around cimset's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper, in the
defining module and in every cimset module that bound the same object by
import, and `uninstall` puts the originals back.  Nothing under `src/` is
edited.  A span is [name, start, end, parent, op, busy]: busy is end - start
for a call, and for a generator only the time spent inside its next()
calls, so the consumer's work between items is not charged to it.  A
span's self time is its busy time minus the busy time of its direct
children.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, qualified name) of every function that gets a span.
SPANNED = (
    ("cimset.cli", "main"),
    ("cimset.scoring", "load_csv"),
    ("cimset.scoring", "build_score_table"),
    ("cimset.scoring", "local_score"),
    ("cimset.scoring", "score_table_from_json"),
    ("cimset.scoring", "mobius_data_vector"),
    ("cimset.scoring", "score_graph"),
    ("cimset.subsets", "mobius_subsets_inplace"),
    ("cimset.learn", "optimize_exact"),
    ("cimset.learn", "k2_forward"),
    ("cimset.learn", "k2_backward"),
    ("cimset.graphs", "family_from_json"),
    ("cimset.graphs", "enumerate_family"),
    ("cimset.imsets", "coordinate_index"),
    ("cimset.imsets", "characteristic_imset"),
    ("cimset.geometry", "neighbors"),
    ("cimset.geometry", "are_neighbors"),
    ("cimset.oracle", "affine_dimension"),
    ("cimset.oracle", "oracle_adjacent"),
    ("cimset.oracle", "oracle_facet_check"),
)

# Functions whose calls are only counted: they run too often for a span each.
COUNTED = (
    ("cimset.graphs", "FamilySpec.iter_admissible"),
    ("cimset.graphs", "family_contains"),
)

# Which end-to-end metric, on which workload, each layer's metrics should
# move.  Keys are metric-name prefixes; the longest matching prefix applies.
SHOULD_MOVE = {
    "cli": "op_p50_s on verify, learn-table",
    "scoring.load_csv": "op_p50_s on learn-data",
    "scoring.build_score_table": "op_p50_s, ops_per_s on learn-data",
    "scoring.local_score": "op_p50_s, op_tail_s on learn-data",
    "scoring.rows_scanned": "op_p50_s, op_tail_s on learn-data",
    "scoring.score_table_from_json": "op_p50_s on learn-table",
    "scoring.mobius_data_vector": "op_p50_s on learn-table",
    "subsets.mobius_subsets_inplace": "op_p50_s on learn-table",
    "scoring.score_graph": "op_p50_s on learn-table",
    "learn": "op_p50_s on learn-table (learn-data share is tiny)",
    "graphs.family_from_json": "op_p50_s on learn-data, verify",
    "graphs.enumerate_family": "op_p50_s on geometry, verify",
    "graphs.iter_admissible": "op_p50_s on geometry",
    "graphs.family_contains": "op_p50_s on geometry",
    "imsets": "op_p50_s on geometry, verify",
    "geometry.neighbors": "op_p50_s, op_tail_s on geometry",
    "geometry.are_neighbors": "op_p50_s on verify",
    "oracle.affine_dimension": "op_p50_s on geometry, verify",
    "oracle.oracle_adjacent": "op_p50_s, op_tail_s on verify",
    "oracle.oracle_facet_check": "op_p50_s on verify",
    "trace": "nothing (diagnostic)",
}


def should_move(metric):
    keys = [k for k in SHOULD_MOVE if metric == k or metric.startswith(k + ".")]
    return SHOULD_MOVE[max(keys, key=len)]


CALL_COUNTS = ("scoring.local_score", "subsets.mobius_subsets_inplace",
               "imsets.coordinate_index", "imsets.characteristic_imset",
               "geometry.are_neighbors", "oracle.affine_dimension",
               "oracle.oracle_adjacent", "oracle.oracle_facet_check",
               "graphs.iter_admissible", "graphs.family_contains")


def layer_name(module, qualname):
    return module.split(".", 1)[1] + "." + qualname.rsplit(".", 1)[-1]


def _after_call(name, args, result, counts):
    """Counters read from a traced call's arguments and result."""
    if name == "scoring.load_csv":
        counts["scoring.load_csv.rows"] += result.n_rows
    elif name == "scoring.local_score":
        counts["scoring.rows_scanned"] += args[0].n_rows
    elif name == "scoring.score_table_from_json":
        counts["scoring.score_table_from_json.entries"] += sum(map(len, result.entries))
    elif name.startswith("learn."):
        counts[name + ".evaluated"] += sum(c.evaluated for c in result.per_child)
    elif name == "oracle.oracle_adjacent" and result.kind == "adjacency":
        counts["oracle.adjacency_certificates"] += 1
        kept = len(result.payload["candidates"])
        counts["oracle.oracle_adjacent.lp_columns"] += kept
        counts["oracle.excluded"] += len(result.payload["excluded"])


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.missing = []
        self._patches = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.op, end - start]
            counts[name + ".calls"] += 1
            _after_call(name, args, result, counts)
            return result
        return wrapper

    def _gen_span(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def drive(idx, inner):
            busy = 0.0
            items = 0
            try:
                while True:
                    t0 = clock()
                    stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        stack.pop()
                        busy += clock() - t0
                    items += 1
                    yield item
            finally:
                spans[idx][2] = clock()
                spans[idx][5] = busy
                counts[name + ".yielded"] += items

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            start = clock()
            spans.append([name, start, start, parent, self.op, 0.0])
            counts[name + ".calls"] += 1
            return drive(idx, fn(*args, **kwargs))
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- patching ---------------------------------------------------------

    def install(self):
        self.missing = []
        for targets, kind in ((SPANNED, "span"), (COUNTED, "count")):
            for module, qualname in targets:
                name = layer_name(module, qualname)
                try:
                    owner = importlib.import_module(module)
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                if kind == "count":
                    wrapper = self._counter(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._gen_span(name, fn)
                else:
                    wrapper = self._span(name, fn)
                self._patch(owner, attr, fn, wrapper)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("cimset"):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- results ----------------------------------------------------------

    def busy_and_self(self):
        """Summed busy and self seconds per span name."""
        child_busy = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child_busy[rec[3]] += rec[5]
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for idx, rec in enumerate(self.spans):
            busy[rec[0]] += rec[5]
            self_time[rec[0]] += rec[5] - child_busy[idx]
        return busy, self_time

    def metrics(self, ops):
        """Per-layer metrics, each averaged over the `ops` traced ops.

        A metric whose function no longer resolves is left out, never
        reported as zero; one whose function did not run on this workload
        reads zero.
        """
        busy, self_time = self.busy_and_self()
        c = self.counts
        rows = []  # (metric, layer it is read from, value, unit)
        for module, qualname in SPANNED:
            layer = layer_name(module, qualname)
            rows.append((layer + ".busy_s", layer, busy[layer] / ops, "s/op"))
            self_name = "cli.self_s" if layer == "cli.main" else layer + ".self_s"
            rows.append((self_name, layer, self_time[layer] / ops, "s/op"))
        for layer in CALL_COUNTS:
            rows.append((layer + ".calls", layer, c[layer + ".calls"] / ops, "count/op"))
        for metric, layer in (("scoring.load_csv.rows", "scoring.load_csv"),
                              ("scoring.rows_scanned", "scoring.local_score"),
                              ("scoring.score_table_from_json.entries",
                               "scoring.score_table_from_json"),
                              ("learn.optimize_exact.evaluated", "learn.optimize_exact"),
                              ("learn.k2_forward.evaluated", "learn.k2_forward"),
                              ("learn.k2_backward.evaluated", "learn.k2_backward"),
                              ("oracle.oracle_adjacent.lp_columns", "oracle.oracle_adjacent")):
            rows.append((metric, layer, c[metric] / ops, "count/op"))
        rows.append(("graphs.enumerate_family.members", "graphs.enumerate_family",
                     c["graphs.enumerate_family.yielded"] / ops, "count/op"))
        rows.append(("geometry.neighbors.yielded", "geometry.neighbors",
                     c["geometry.neighbors.yielded"] / ops, "count/op"))
        calls = c["oracle.oracle_adjacent.calls"]
        kept = c["oracle.oracle_adjacent.lp_columns"]
        seen = kept + c["oracle.excluded"]
        rows.append(("oracle.oracle_adjacent.adjacent_ratio", "oracle.oracle_adjacent",
                     c["oracle.adjacency_certificates"] / calls if calls else 0.0, "ratio"))
        rows.append(("oracle.oracle_adjacent.kept_ratio", "oracle.oracle_adjacent",
                     kept / seen if seen else 0.0, "ratio"))
        return {metric: (value, unit) for metric, layer, value, unit in rows
                if layer not in self.missing}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
