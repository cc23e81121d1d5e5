"""Skew-adjacency characteristic polynomials over edge orientations.

An orientation assigns a direction to every edge; the skew-adjacency matrix
S has S[u][v] = +1 for an arc u -> v, -1 the other way, 0 otherwise.  The
characteristic polynomial det(xI - S) is computed exactly over the integers
by Berkowitz's division-free recurrence, specialised to skew S: a block M of
S is skew, and so is M^j for odd j, so c^T M^j c = 0 for odd j and
c^T M^(2i) c = (-1)^i |M^i c|^2.  Each step then needs half the products
with M, and det(xI - S) has only the terms x^(n - 2i).  It is constant on
each switching class of orientations, so sweeps evaluate one representative
per class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphTooLargeError, iter_bits
from .matching import matching_profile, polynomial_from_profile
from .polynomials import IntPolynomial
from .roots import GT, AlgebraicRoot, compare_roots, max_real_root

CHAR_POLY_MAX_N = 24
ORIENTATION_SWEEP_MAX_M = 24
RADIUS_SWEEP_MAX_M = 20


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


class SwitchingClasses:
    """The switching classes of the orientations of one graph.

    Switching a vertex reverses every arc at it, which negates its row and
    column of S.  That is a similarity D S D, so det(xI - S) is the same on
    a whole class.  Every class has exactly one mask whose bits on the arcs
    of a fixed BFS spanning forest are all 0, so a graph with c components
    has 2^(m - n + c) classes, one per setting of the non-tree bits.
    """

    def __init__(self, g: Graph):
        cut = [0] * g.n  # edges at v; later, the edges leaving v's BFS subtree
        for k, (u, v) in enumerate(g.edge_list()):
            cut[u] |= 1 << k
            cut[v] |= 1 << k
        steps = []  # (parent, child, tree-edge bit) in BFS order
        seen = 0
        for root in range(g.n):
            if seen >> root & 1:
                continue
            seen |= 1 << root
            queue = [root]
            for u in queue:
                for v in iter_bits(g.adj[u] & ~seen):
                    seen |= 1 << v
                    steps.append((u, v, cut[u] & cut[v]))
                    queue.append(v)
        for parent, child, _ in reversed(steps):
            cut[parent] ^= cut[child]
        self.free = (1 << g.m) - 1 - sum(bit for _, _, bit in steps)
        # switching the subtree below a tree edge clears that edge's bit and
        # flips these non-tree bits
        self._flips = tuple((bit, cut[child] & self.free) for _, child, bit in steps)

    def representatives(self):
        """Yield one mask per class, ascending: every subset of the free bits."""
        free = self.free
        mask = 0
        while True:
            yield mask
            if mask == free:
                return
            mask = (mask - free) & free

    def representative(self, mask: int) -> int:
        """The representative of the class that contains mask."""
        rep = mask & self.free
        for bit, flips in self._flips:
            if mask & bit:
                rep ^= flips
        return rep


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


def _identity_target(g: Graph) -> IntPolynomial:
    """The unsigned matching-count polynomial sum_k m_k(G) x^(n-2k).

    This is the coefficientwise real form of (-i)^n m(G, ix): the x^(n-2k)
    term of m(G, ix) carries the factor (-1)^k i^(n-2k), and (-i)^n * (-1)^k *
    i^(n-2k) = (i^2)^n * (i^2)^(-k) * (-1)^k = (-1)^(2n) = 1, so every
    coefficient lands on +m_k.
    """
    return polynomial_from_profile(matching_profile(g).counts, g.n, signed=False)


def _alternating_form(phi: IntPolynomial, n: int) -> IntPolynomial:
    """Rewrite sum_k a_2k x^(n-2k) as sum_k (-1)^k a_2k x^(n-2k).

    The roots of the result are the signed eigenvalue magnitudes: phi's roots
    come in purely imaginary pairs x = +/- i*lambda, and substituting x = i*y
    turns phi into this alternating polynomial (up to a unit), whose largest
    real root is the spectral radius.
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
    characteristic polynomial.
    """
    if g.m > RADIUS_SWEEP_MAX_M:
        raise GraphTooLargeError(f"radius sweep limited to m <= {RADIUS_SWEEP_MAX_M}")
    best: AlgebraicRoot | None = None
    seen: set[tuple[int, ...]] = set()
    for mask in SwitchingClasses(g).representatives():
        phi = skew_char_poly(Orientation(g, mask))
        if phi.coeffs in seen:
            continue
        seen.add(phi.coeffs)
        rho = max_real_root(_alternating_form(phi, g.n))
        if best is None or compare_roots(rho, best) == GT:
            best = rho
    assert best is not None
    return best
