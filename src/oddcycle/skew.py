"""Skew-adjacency characteristic polynomials over edge orientations.

An orientation assigns a direction to every edge; the skew-adjacency matrix
S has S[u][v] = +1 for an arc u -> v, -1 the other way, 0 otherwise.  The
characteristic polynomial det(xI - S) is computed exactly over the integers
by Berkowitz's division-free recurrence, specialised to skew S: a block M of
S is skew, and so is M^j for odd j, so c^T M^j c = 0 for odd j and
c^T M^(2i) c = (-1)^i |M^i c|^2.  Each step then needs half the products
with M, and det(xI - S) has only the terms x^(n - 2i).  It is constant on
each switching class of orientations, so the radius sweep, and the identity
sweep on odd-cycle graphs, evaluate one representative per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .graphs import Graph, GraphTooLargeError, iter_bits
from .polynomials import IntPolynomial
from .roots import AlgebraicRoot, compare_roots, max_real_root

CHAR_POLY_MAX_N = 24
# A call at either cap takes about 4 s on 2 vCPU: `skew "K1 14" --all`, and
# 2^12 switching classes at n = 24.  No odd-cycle graph of order <= 24 has
# more than 11 cycles, so the radius cap refuses none of them.
ORIENTATION_SWEEP_MAX_M = 14
RADIUS_SWEEP_MAX_M = 12  # caps m - n + c, the log2 of the switching classes


@dataclass(frozen=True)
class Orientation:
    """A graph plus an edge-direction bitmask.

    Edges are numbered in lexicographic order; bit k set means the edge is
    directed from its lower-index endpoint to its higher-index endpoint.
    """

    graph: Graph
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.graph.m):
            raise ValueError(f"orientation mask {self.mask:#x} out of range")

    def arcs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for k, (u, v) in enumerate(self.graph.edge_list()):
            out.append((u, v) if (self.mask >> k) & 1 else (v, u))
        return tuple(out)

    def mask_hex(self) -> str:
        return format(self.mask, "#x")

    def skew_matrix(self) -> list[list[int]]:
        n = self.graph.n
        s = [[0] * n for _ in range(n)]
        for tail, head in self.arcs():
            s[tail][head] = 1
            s[head][tail] = -1
        return s


def switching_representatives(g: Graph):
    """Yield one orientation mask per switching class of g, ascending.

    Switching a vertex reverses every arc at it, which negates its row and
    column of S.  That is a similarity D S D, so det(xI - S) is the same on
    a whole class.  Every class has exactly one mask whose bits on the arcs
    of a fixed BFS spanning forest are all 0, so a graph with c components
    has 2^(m - n + c) classes: every subset of the non-tree bits.  A graph
    with more than 2^RADIUS_SWEEP_MAX_M classes raises GraphTooLargeError
    before the first mask.
    """
    incident = [0] * g.n  # the edge bits at each vertex
    for k, (u, v) in enumerate(g.edge_list()):
        incident[u] |= 1 << k
        incident[v] |= 1 << k
    free = (1 << g.m) - 1
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        queue = [root]
        for u in queue:
            for v in iter_bits(g.adj[u] & ~seen):
                seen |= 1 << v
                free &= ~(incident[u] & incident[v])
                queue.append(v)
    if free.bit_count() > RADIUS_SWEEP_MAX_M:
        raise GraphTooLargeError(f"switching sweep limited to m - n + c <= {RADIUS_SWEEP_MAX_M}")
    mask = 0
    while True:
        yield mask
        if mask == free:
            return
        mask = (mask - free) & free


def all_orientations(g: Graph):
    """Yield every orientation of g exactly once (ascending bitmask)."""
    m = g.m
    if m > ORIENTATION_SWEEP_MAX_M:
        raise GraphTooLargeError(f"orientation sweep limited to m <= {ORIENTATION_SWEEP_MAX_M}")
    for mask in range(1 << m):
        yield Orientation(g, mask)


def skew_char_poly(o: Orientation) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - S) of the skew matrix.

    Berkowitz's division-free recurrence: bordering the leading k x k block
    M by a column c, a row r and a corner a multiplies det(xI - M) by the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -r c, -r M c, ..., -r M^(k-1) c).  For skew S the corner is 0
    and r = -c^T, so each entry -r M^j c is c^T M^j c: 0 for odd j, because
    M^j is then skew, and (-1)^i |M^i c|^2 for j = 2i.  A step thus takes
    floor((k - 1)/2) products with M, each a pass over the signed neighbour
    lists of the vertices below k.  det(xI - M) is carried by its even part,
    the coefficients of x^k, x^(k-2), ..., which the Toeplitz matrix
    multiplies as the series 1 + |c|^2 t - |M c|^2 t^2 + ... in t = x^-2.
    Only integer products and sums occur.
    """
    n = o.graph.n
    if n > CHAR_POLY_MAX_N:
        raise GraphTooLargeError(f"skew characteristic polynomial limited to n <= {CHAR_POLY_MAX_N}")
    # border[v]: the pairs (u, S[u][v]) for u < v, the column that borders block v
    border: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bit, (u, v) in enumerate(o.graph.edge_list()):
        border[v].append((u, 1 if o.mask >> bit & 1 else -1))
    # rows[v]: the pairs (w, S[v][w]) for w < k, so rows[:k] is the block M
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    even = [1]  # det(xI - M) as the coefficients of x^k, x^(k-2), ...
    for k, c in enumerate(border):
        if k % 2:
            even.append(0)  # the block of order k + 1 has a constant term
        if not c:
            continue
        series = [len(c)]  # |c|^2, -|M c|^2, |M^2 c|^2, ...
        vec = [0] * k
        for u, s in c:
            vec[u] = s
        sign = -1
        for _ in range((k - 1) // 2):
            nxt = []
            square = 0
            for row in rows[:k]:
                acc = 0
                for w, s in row:
                    acc += s * vec[w]
                nxt.append(acc)
                square += acc * acc
            vec = nxt
            series.append(sign * square)
            sign = -sign
        for u, s in c:
            rows[u].append((k, s))
            rows[k].append((u, -s))
        grown = even[:]
        for i, t in enumerate(series, 1):
            for j in range(len(even) - i):
                grown[i + j] += t * even[j]
        even = grown
    coeffs = [0] * (n + 1)
    coeffs[n::-2] = even
    return IntPolynomial.from_coeffs(coeffs)


def _alternating_form(phi: IntPolynomial, n: int) -> IntPolynomial:
    """Rewrite sum_k a_2k x^(n-2k) as sum_k (-1)^k a_2k x^(n-2k).

    This is the substitution x = i*y up to the unit (-i)^n: the x^(n-2k)
    term picks up (-i)^n i^(n-2k) = (-1)^k.  It serves both skew claims.
    phi's roots come in purely imaginary pairs x = +/- i*lambda, so the
    roots of its alternating form are the signed eigenvalue magnitudes and
    the largest is the spectral radius.  The alternating form of the
    matching polynomial m(G) is sum_k m_k(G) x^(n-2k), which the identity
    claim compares phi with.
    """
    coeffs = list(phi.coeffs) + [0] * (n + 1 - len(phi.coeffs))
    out = [0] * (n + 1)
    for j in range(n + 1):
        if (n - j) % 2 == 1:
            if coeffs[j]:
                raise ArithmeticError(f"skew characteristic polynomial has odd term x^{j}")
            continue
        k = (n - j) // 2
        out[j] = -coeffs[j] if k % 2 else coeffs[j]
    return IntPolynomial.from_coeffs(out)


def skew_spectral_radius(o: Orientation) -> AlgebraicRoot:
    """Spectral radius of the skew matrix as an exact algebraic number."""
    phi = skew_char_poly(o)
    return max_real_root(_alternating_form(phi, o.graph.n))


def max_skew_spectral_radius(g: Graph) -> AlgebraicRoot:
    """Maximum of skew_spectral_radius over all orientations of g.

    One orientation per switching class is evaluated; the others share its
    characteristic polynomial.  Classes whose polynomials are equal share
    one memoized root, and ``compare_roots`` settles such a tie at once.
    ``switching_representatives`` refuses a graph with too many classes.
    """
    reps = switching_representatives(g)
    return max((skew_spectral_radius(Orientation(g, mask)) for mask in reps), key=cmp_to_key(compare_roots))
