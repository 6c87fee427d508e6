"""Structure learning under a fixed ordering.

The family factors into independent per-child blocks, so the exact
optimum is found by maximizing each child's local score separately.  The
greedy K2 baselines walk the same per-child lattices by single-node
additions (forward) or removals (backward) and can get stuck; `compare`
reports both against the exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import DomainError
from .graphs import FamilySpec, ParentMap, _parent_map_unchecked
from .scoring import ScoreTable, _ordered_sum

METHODS = ("exact", "k2-forward", "k2-backward")


@dataclass(frozen=True)
class ChildChoice:
    child: int
    parents: int
    local: object
    evaluated: int


@dataclass(frozen=True, eq=False)
class LearnResult:
    graph: ParentMap
    total_score: object
    per_child: Tuple[ChildChoice, ...]
    method: str


def _assemble(spec: FamilySpec, choices: List[ChildChoice], method: str) -> LearnResult:
    g = _parent_map_unchecked(spec.ordering, tuple(c.parents for c in choices))
    return LearnResult(g, _ordered_sum(c.local for c in choices), tuple(choices), method)


def _check(table: ScoreTable, spec: FamilySpec) -> None:
    if table.spec != spec:
        raise DomainError("score table was built for a different family")


def optimize_exact(table: ScoreTable, spec: FamilySpec) -> LearnResult:
    """Per-child first maximum; ties keep the graded-lex smallest parent set.

    Block independence makes the assembled graph the global optimum over
    the entire family.  Scores compare with plain `>` on the stored values,
    with no tolerance; a scaled child's numerators share one positive
    denominator, so they compare as its scores do.
    """
    _check(table, spec)
    choices = []
    for i in range(spec.n):
        lattice = spec.iter_admissible(i)
        best = max(lattice, key=table.entries[i].__getitem__)
        choices.append(ChildChoice(i, best, table.local(i, best), len(lattice)))
    return _assemble(spec, choices, "exact")


def k2_forward(table: ScoreTable, spec: FamilySpec) -> LearnResult:
    """Greedy single-node additions from the floor, per child.

    A step is taken only on strict improvement; equally-improving
    additions resolve to the lowest node index.
    """
    _check(table, spec)
    cap = spec.max_parents

    def additions(i, p):
        return 0 if cap is not None and p.bit_count() >= cap else spec.free_mask(i) & ~p

    choices = [_greedy(table, i, spec.floor[i], additions) for i in range(spec.n)]
    return _assemble(spec, choices, "k2-forward")


def k2_backward(table: ScoreTable, spec: FamilySpec) -> LearnResult:
    """Greedy single-node removals from the graded-lex-first largest admissible set."""
    _check(table, spec)

    def removals(i, p):
        return p & ~spec.floor[i]

    choices = [_greedy(table, i, max(spec.iter_admissible(i), key=int.bit_count), removals)
               for i in range(spec.n)]
    return _assemble(spec, choices, "k2-backward")


def _greedy(table: ScoreTable, i: int, p: int, moves) -> ChildChoice:
    """K2's greedy walk for child i from parent set p.

    Each step flips the node of moves(i, p) that improves the local score
    most, and only on strict improvement; ties go to the lowest node index.
    Steps compare the stored cell values, as `optimize_exact` does.  The
    choice's `evaluated` counts the cells read.
    """
    cell = table.entries[i]
    s = cell[p]
    count = 1
    while True:
        best_v = -1
        best_s = s
        rest = moves(i, p)
        while rest:
            low = rest & -rest
            trial = cell[p ^ low]
            count += 1
            if trial > best_s:
                best_v, best_s = low, trial
            rest ^= low
        if best_v < 0:
            return ChildChoice(i, p, table.local(i, p), count)
        p ^= best_v
        s = best_s


def structural_hamming(g1: ParentMap, g2: ParentMap) -> int:
    """Size of the symmetric difference of the edge sets."""
    if g1.ordering.names != g2.ordering.names:
        raise DomainError("graphs use different orderings")
    return sum((a ^ b).bit_count() for a, b in zip(g1.parents, g2.parents))


@dataclass(frozen=True, eq=False)
class CompareReport:
    results: Dict[str, LearnResult]
    gaps: Dict[str, object]
    agreement: Dict[str, Tuple[bool, ...]]
    hamming: Dict[str, int]


def compare(table: ScoreTable, spec: FamilySpec) -> CompareReport:
    """Exact vs both K2 variants: scores, gaps, per-child agreement, SHD."""
    exact = optimize_exact(table, spec)
    results = {r.method: r for r in (exact, k2_forward(table, spec), k2_backward(table, spec))}
    gaps = {}
    agreement = {}
    hamming = {}
    for name in METHODS[1:]:
        r = results[name]
        gaps[name] = exact.total_score - r.total_score
        agreement[name] = tuple(a == b for a, b in zip(exact.graph.parents, r.graph.parents))
        hamming[name] = structural_hamming(exact.graph, r.graph)
    return CompareReport(results, gaps, agreement, hamming)
