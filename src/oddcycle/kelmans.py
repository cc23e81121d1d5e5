"""Kelmans edge-shift transformation, reduction to the extremal graph F,
and an exact matching-polynomial dominance comparison.

The transformation picks a beneficiary u and a co-beneficiary v and moves
every edge vw with w outside N(u) ∪ {u} over to uw.  Repeated shifts drive a
connected graph whose blocks are edges and odd cycles down to the canonical
form F(n, m): a star on vertex 0 plus a matching among the leaves.
``kelmans_transform`` returns only the shifted graph; ``reduce_to_F``
records each of its shifts as a ``KelmansStep``.  The reduction walks each
graph it sees once, with ``graphs.long_odd_cycles``: that one spanning-forest
walk shows the graph is connected and has only edges and odd cycles as
blocks, and names the next long cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, is_connected, iter_bits, long_odd_cycles, write_graph6
from .matching import matching_polynomial
from .roots import GT, LT, compare_max_root, max_real_root
from .polynomials import IntPolynomial


class KelmansPhase(enum.Enum):
    """Which stage of the reduction produced a step."""

    LONG_CYCLE = "long_cycle"
    DEGREE_LIFT = "degree_lift"


class DominanceVerdict(enum.Enum):
    """Sign behaviour of m(G2, x) - m(G1, x) on the ray x >= t(G1)."""

    EQUAL_POLYNOMIALS = "equal_polynomials"
    STRICTLY_DOMINATES = "strictly_dominates"
    WEAKLY_DOMINATES = "weakly_dominates"
    INCOMPARABLE = "incomparable"


class ReductionInvariantError(RuntimeError):
    """An intermediate graph broke a guarantee of the reduction."""


@dataclass(frozen=True)
class KelmansStep:
    """One edge shift: every recorded edge (v, w) was replaced by (u, w)."""

    beneficiary: int
    co_beneficiary: int
    moved_edges: tuple[tuple[int, int], ...]
    phase: KelmansPhase

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase.value,
            "beneficiary": self.beneficiary,
            "co_beneficiary": self.co_beneficiary,
            "moved_edges": [[v, w] for v, w in self.moved_edges],
        }


@dataclass(frozen=True)
class ReductionTrace:
    """Full record of a reduction run.

    ``steps`` pairs each shift with the graph it produced, so the whole
    sequence start -> ... -> final can be replayed and audited.
    """

    start: Graph
    steps: tuple[tuple[KelmansStep, Graph], ...]
    final: Graph

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def phase_counts(self) -> dict[KelmansPhase, int]:
        out = {KelmansPhase.LONG_CYCLE: 0, KelmansPhase.DEGREE_LIFT: 0}
        for step, _ in self.steps:
            out[step.phase] += 1
        return out

    def validate(self) -> None:
        """Replay every step and check it reproduces the recorded graph."""
        cur = self.start
        for step, after in self.steps:
            if kelmans_transform(cur, step.beneficiary, step.co_beneficiary) != after:
                raise ReductionInvariantError("recorded step does not reproduce its graph")
            if after.n != self.start.n or after.m != self.start.m:
                raise ReductionInvariantError("step changed the vertex or edge count")
            cur = after
        if cur != self.final:
            raise ReductionInvariantError("final graph does not match the step sequence")

    def to_json_dict(self) -> dict:
        return {
            "start": write_graph6(self.start),
            "final": write_graph6(self.final),
            "steps": [
                {**step.to_json_dict(), "result": write_graph6(after)}
                for step, after in self.steps
            ],
        }


def kelmans_transform(g: Graph, u: int, v: int) -> Graph:
    """Shift the neighbours of v that u does not already have over to u.

    Edges vw with w in N(v) \\ (N(u) ∪ {u}) become uw; a uv edge, if present,
    stays put.  Vertex and edge counts are preserved.  Returns the shifted
    graph.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        raise ValueError("beneficiary and co-beneficiary must differ")
    moved_mask = g.adj[v] & ~g.adj[u] & ~(1 << u)
    rows = list(g.adj)
    rows[v] &= ~moved_mask
    rows[u] |= moved_mask
    for w in iter_bits(moved_mask):
        rows[w] = (rows[w] & ~(1 << v)) | (1 << u)
    return Graph(g.n, tuple(rows))


def _step(cur: Graph, nxt: Graph, u: int, v: int, phase: KelmansPhase) -> KelmansStep:
    """The record of the shift cur -> nxt: the moved edges are the edges
    that v lost."""
    moved = tuple((v, w) for w in iter_bits(cur.adj[v] & ~nxt.adj[v]))
    return KelmansStep(u, v, moved, phase)


def _intermediate_cycles(g: Graph, context: str) -> tuple[tuple[int, ...], ...]:
    """The long odd cycles of an intermediate graph, read from its one shape
    walk, which also shows that g is still connected and still has only
    edges and odd cycles as blocks."""
    shape = long_odd_cycles(g)
    if shape is None:
        raise ReductionInvariantError(f"{context}: a block stopped being an edge or odd cycle")
    if shape[0] != 1:
        raise ReductionInvariantError(f"{context}: graph became disconnected")
    return shape[1]


def _is_star_plus_matching(g: Graph) -> bool:
    """True when some vertex is adjacent to all others and the remaining
    edges form a matching.  This is the target shape of the reduction and is
    checkable at any size, unlike an isomorphism search."""
    if g.n == 1:
        return True
    full = (1 << g.n) - 1
    center = -1
    for c in range(g.n):
        if g.adj[c] == full ^ (1 << c):
            center = c
            break
    if center < 0:
        return False
    off = ~(1 << center)
    return all((g.adj[w] & off).bit_count() <= 1 for w in range(g.n) if w != center)


def reduce_to_F(g: Graph) -> ReductionTrace:
    """Run the two-phase reduction and return its trace.

    Phase one removes long odd cycles (length five or more): for the
    lexicographically smallest such cycle, rotated to start at its smallest
    vertex c0 with smaller neighbour c1, shift with u = c0 and v = c2.  Each
    shift removes at least two edges from long cycles and never creates one,
    so fewer than m/2 shifts happen.  Phase two lifts the maximum degree to
    n - 1: with u the smallest max-degree vertex and v the smallest vertex at
    distance two from u, reached through their smallest common neighbour w,
    shift with beneficiary u and co-beneficiary w.  The beneficiary degree
    grows every time, so at most n - 1 shifts happen.
    """
    shape = long_odd_cycles(g)
    # a graph that fails both tests is reported as disconnected
    if shape is None and is_connected(g):
        raise ValueError("reduction needs every block to be an edge or odd cycle")
    if shape is None or shape[0] != 1:
        raise ValueError("reduction needs a connected graph")
    n, m = g.n, g.m
    steps: list[tuple[KelmansStep, Graph]] = []
    cur, cycles = g, shape[1]

    long_steps = 0
    while cycles:
        cycle = cycles[0]
        u, v = cycle[0], cycle[2]
        nxt = kelmans_transform(cur, u, v)
        long_steps += 1
        after = _intermediate_cycles(nxt, "long-cycle phase")
        if nxt.m != m:
            raise ReductionInvariantError("long-cycle phase: edge count changed")
        if sum(map(len, after)) > sum(map(len, cycles)) - 2:
            raise ReductionInvariantError("long-cycle phase: cycle edges dropped by less than two")
        if len(after) not in (len(cycles), len(cycles) - 1):
            raise ReductionInvariantError("long-cycle phase: cycle count changed by more than one")
        steps.append((_step(cur, nxt, u, v, KelmansPhase.LONG_CYCLE), nxt))
        cur, cycles = nxt, after
    if long_steps and 2 * long_steps >= m:
        raise ReductionInvariantError("long-cycle phase exceeded its m/2 step bound")

    lift_steps = 0
    while True:
        degs = [row.bit_count() for row in cur.adj]
        dmax = max(degs)
        if dmax >= n - 1:
            break
        u = degs.index(dmax)
        near = cur.adj[u]
        two_away = 0
        for w in iter_bits(near):
            two_away |= cur.adj[w]
        two_away &= ~near & ~(1 << u)
        if not two_away:
            raise ReductionInvariantError("degree-lift phase: no vertex at distance two")
        v = (two_away & -two_away).bit_length() - 1
        common = cur.adj[u] & cur.adj[v]
        w = (common & -common).bit_length() - 1
        nxt = kelmans_transform(cur, u, w)
        lift_steps += 1
        if lift_steps > n - 1:
            raise ReductionInvariantError("degree-lift phase exceeded its n - 1 step bound")
        if nxt.degree(u) <= dmax:
            raise ReductionInvariantError("degree-lift phase: beneficiary degree did not grow")
        _intermediate_cycles(nxt, "degree-lift phase")
        if nxt.m != m:
            raise ReductionInvariantError("degree-lift phase: edge count changed")
        steps.append((_step(cur, nxt, u, w, KelmansPhase.DEGREE_LIFT), nxt))
        cur = nxt

    if not _is_star_plus_matching(cur):
        raise ReductionInvariantError("reduction finished on a non-extremal shape")
    return ReductionTrace(g, tuple(steps), cur)


def dominance(g1: Graph, g2: Graph) -> DominanceVerdict:
    """Classify the sign of d = m(G2, x) - m(G1, x) for x >= t(G1).

    The decision is exact.  A negative leading coefficient settles the far
    end of the ray at once.  With a positive one, d > 0 on the whole ray
    exactly when the largest real root of d lies below t(G1), and
    ``compare_max_root`` answers that; its Descartes test at the lower end
    of t(G1)'s interval settles almost every strict pair with no Sturm
    chain of d.  Otherwise any odd-multiplicity root of d past t(G1)
    forces a sign change there, while even-multiplicity roots, and a root
    at t(G1) itself, only touch zero: the pair is incomparable exactly
    when the largest root of the odd part of d lies above t(G1).
    """
    if g1.n != g2.n:
        raise ValueError("graphs must have the same vertex count")
    p1 = matching_polynomial(g1)
    d = matching_polynomial(g2) - p1
    if d.is_zero():
        return DominanceVerdict.EQUAL_POLYNOMIALS
    if d.leading < 0:
        return DominanceVerdict.INCOMPARABLE

    t1 = max_real_root(p1)
    if compare_max_root(d, t1) == LT:
        return DominanceVerdict.STRICTLY_DOMINATES
    odd_part = IntPolynomial.one()
    for factor, mult in d.squarefree_decomposition():
        if mult % 2 == 1:
            odd_part = odd_part * factor
    if compare_max_root(odd_part, t1) == GT:
        return DominanceVerdict.INCOMPARABLE
    return DominanceVerdict.WEAKLY_DOMINATES
