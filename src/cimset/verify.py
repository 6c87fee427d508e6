"""Certify a family's closed-form geometry with the exact oracle.

Each check compares one closed form from `cimset.geometry` with what the
independent oracle finds on the family's enumerated vertex cloud.
"""

from __future__ import annotations

import functools
import json
import math
import random
from itertools import combinations

import numpy as np

from . import limits
from .errors import FormatError
from .geometry import FacetSystem, _one_child_apart, affine_dimension_formula
from .graphs import enumerate_family, family_graph_texts
from .imsets import characteristic_imset, coordinate_index
from .oracle import VertexCloud, affine_dimension, oracle_adjacent, oracle_facet_check
from .subsets import bits_of, iter_graded_subsets

CHECKS = ("product", "dimension", "adjacency", "facets")


def _sampled_pairs(size, limit, seed):
    """The pairs i < j < size that sorted(Random(seed).sample(pairs, limit)) picks
    from the listed pairs: `sample` picks the same indices from any population
    of one length, so the ranks it picks are unranked without listing the pairs."""
    i = first = 0  # first: the rank of pair (i, i + 1)
    for r in sorted(random.Random(seed).sample(range(size * (size - 1) // 2), limit)):
        while r >= first + size - 1 - i:
            first += size - 1 - i
            i += 1
        yield i, i + 1 + r - first


@functools.cache
def _line_head(kind, verified):
    """An adjacency certificate line up to its "pair": json's own text of the
    other two keys with the closing brace cut off."""
    return json.dumps({"kind": kind, "verified": verified})[:-1]


def verify_family(spec, checks, limit, seed, emit=None):
    """Run the named checks on `spec`: one (name, passed, detail) row each, in CHECKS order.

    Every check reads the family's enumerated vertex cloud, the members'
    imsets.  Adjacency certifies every vertex pair, or `limit` pairs
    sampled with `seed` (`_sampled_pairs`), and stops at its first
    mismatch; the closed form it is compared with is the edge rule on the
    two members' parent tuples, with no membership check, as the members
    are the family's own enumeration.  Product counts each block's distinct
    slices of the members' imsets, and facets certifies a block on that set
    cut to its `lift_rows`, so a mis-encoded member fails its block's rows.
    Each distinct cloud is certified once, with one facet system and 2**k
    checks (with a correct encoder, once per block size k), and its verdicts
    are emitted for every child with that cloud, under that child's names; a
    block of more than `limit` rows is skipped.  `emit`, when given, gets
    each certificate as one line of JSON text with its newline, in the bytes
    `json.dumps` gives the record: adjacency lines are joined from the
    members' graph texts, which `family_graph_texts` joins from one fragment
    per (child, parent set), so no member is encoded whole.
    """
    bad = [c for c in checks if c not in CHECKS]
    if bad:
        raise FormatError(f"unknown checks: {', '.join(c or repr(c) for c in bad)} "
                          f"(choose from {', '.join(CHECKS)})")
    size = spec.family_size()
    limits.check("ADJACENCY_CLOUD_MAX", size, "verify refuses families over the "
                 f"vertex-cloud limit: family has {size} members")
    idx = coordinate_index(spec)
    members = list(enumerate_family(spec))
    vecs = [characteristic_imset(g, idx).bits for g in members]
    rows = []
    # by child, its block's distinct member slices: the vertices of its factor
    if "product" in checks or "facets" in checks:
        slices = {b.child: {v[b.offset:b.offset + b.size] for v in vecs} for b in idx.blocks}

    if "product" in checks:
        ok = len(set(vecs)) == size and math.prod(map(len, slices.values())) == size
        rows.append(("product", ok,
                     f"{size} vertices = product of per-block slice counts" if ok
                     else "block slices do not factor the vertex set"))

    if "dimension" in checks:
        want = affine_dimension_formula(spec)
        got = affine_dimension(vecs)
        rows.append(("dimension", got == want, f"affine rank {got}, formula {want}"))

    if "adjacency" in checks:
        total = size * (size - 1) // 2
        pairs, note = combinations(range(size), 2), f"all {total} pairs"
        if total > limit:
            pairs, note = _sampled_pairs(size, limit, seed), f"{limit} sampled pairs (seed {seed})"
        mismatch = None
        cloud = VertexCloud(vecs)
        texts = None if emit is None else list(family_graph_texts(spec))
        for i, j in pairs:
            cert = oracle_adjacent(vecs[i], vecs[j], cloud)
            closed = _one_child_apart(members[i].parents, members[j].parents)
            if emit is not None:
                head = _line_head(cert.kind, cert.verified)
                emit(f'{head}, "pair": [{texts[i]}, {texts[j]}]}}\n')
            if not cert.verified or closed != (cert.kind == "adjacency"):
                mismatch = (i, j)
                break
        rows.append(("adjacency", mismatch is None,
                     note if mismatch is None else
                     f"mismatch on vertex pair {mismatch[0]},{mismatch[1]}"))

    if "facets" in checks:
        # a block's facet rows depend on its size k alone, and so does its
        # cloud when the encoder is right: each distinct cloud is certified once
        failures = checked = 0
        skipped = []
        verdicts = {}
        for i in range(spec.n):
            free = spec.free_mask(i)
            k = free.bit_count()
            if k == 0:
                continue
            if (1 << k) > limit:
                skipped.append(spec.ordering.names[i])
                continue
            # the cloud: the slices over the minimal lifts, all rows without a floor
            cloud, lifts = slices[i], idx.lift_rows(i)
            if len(lifts) < idx.block_for_child(i).size:
                cut = np.frombuffer(b"".join(cloud), dtype=np.uint8).reshape(len(cloud), -1)
                cloud = set(map(bytes, cut[:, lifts]))
            cloud = tuple(sorted(cloud))
            if cloud not in verdicts:
                sysk = FacetSystem(k)
                vertices = VertexCloud(cloud)
                verdicts[cloud] = [
                    (s, oracle_facet_check((s, sysk.dense_row(s)), vertices).verified)
                    for s in iter_graded_subsets(sysk.universe, include_empty=True)]
            names = spec.ordering.names_of_mask(free)
            for s, verified in verdicts[cloud]:
                checked += 1
                failures += not verified
                if emit is not None:
                    emit(json.dumps({"kind": "facet", "verified": verified,
                                     "child": spec.ordering.names[i],
                                     "s": [names[b] for b in bits_of(s)]}) + "\n")
        detail = f"{checked} rows certified"
        if skipped:
            detail += f"; skipped blocks over --limit: {', '.join(skipped)}"
        rows.append(("facets", failures == 0,
                     detail if failures == 0 else f"{failures} rows falsified"))
    return rows
