"""Independent reference implementations used to cross-check the package.

Everything here deliberately uses different machinery from the library:
direct bit-string assembly for graph6, simple-path enumeration for even
cycles, Laplace expansion for characteristic polynomials, frozenset
bookkeeping for matching counts, numpy subset tests for the bulk matching
census, edge-subset combinations for the labeled odd-cycle enumeration, and
Fraction arithmetic for root bisection, Sturm counts and dominance.  Slow
is fine; these exist to be obviously right.  The two identity checks at the end are the
exception: they hold the library's own matching polynomials to the deletion
and disjoint-union identities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from oddcycle import (
    DominanceVerdict,
    Graph,
    GraphTooLargeError,
    IntPolynomial,
    NoRealRootError,
    disjoint_union,
    edge_cap,
    matching_polynomial,
)
from oddcycle.graphs import _component_mask, odd_cycle_rows
from oddcycle.roots import _sturm_chain

LABELED_MAX_N = 9


def graph6_reference(n: int, edges) -> str:
    """Encode a labeled graph in graph6, assembled bit by bit.

    Upper-triangle cells are emitted column by column: x(0,1), x(0,2),
    x(1,2), x(0,3), ...; the bit string is padded with zeros to a multiple
    of six and each six-bit group becomes one printable byte offset by 63.
    """
    if not 1 <= n <= 62:
        raise ValueError("reference encoder covers 1 <= n <= 62 only")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if (row, col) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = 2 * val + b
        out.append(chr(63 + val))
    return "".join(out)


def has_even_cycle(n: int, edges) -> bool:
    """Search every simple cycle for one of even length.

    Cycles are enumerated from their smallest vertex by depth-first simple
    paths restricted to larger vertices; an edge back to the start closes a
    cycle whose length is the current path length.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def walk(start: int, path: list[int], on_path: set[int]) -> bool:
        cur = path[-1]
        for w in nbrs[cur]:
            if w == start and len(path) >= 3 and len(path) % 2 == 0:
                return True
            if w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                if walk(start, path, on_path):
                    return True
                on_path.remove(w)
                path.pop()
        return False

    return any(walk(s, [s], {s}) for s in range(n))


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def charpoly_reference(matrix) -> tuple[int, ...]:
    """det(xI - M) by Laplace expansion, ascending integer coefficients.

    Minors are memoized on the surviving column set; the row is implied by
    how many columns remain.  Entries of xI - M are degree <= 1 polynomials.
    """
    n = len(matrix)
    memo: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}

    def minor(cols: tuple[int, ...]) -> tuple[int, ...]:
        hit = memo.get(cols)
        if hit is not None:
            return hit
        row = n - len(cols)
        acc: tuple[int, ...] = (0,)
        sign = 1
        for idx, col in enumerate(cols):
            entry = (-matrix[row][col], 1) if row == col else (-matrix[row][col],)
            if any(entry):
                rest = minor(cols[:idx] + cols[idx + 1 :])
                term = _poly_mul(entry, rest)
                if sign < 0:
                    term = tuple(-c for c in term)
                acc = _poly_add(acc, term)
            sign = -sign
        memo[cols] = acc
        return acc

    full = minor(tuple(range(n)))
    out = list(full)
    while len(out) < n + 1:
        out.append(0)
    return tuple(out[: n + 1])


def matchings_by_size_reference(n: int, edges) -> tuple[int, ...]:
    """Count k-edge matchings by growing vertex-disjoint edge sets."""
    edges = [tuple(e) for e in edges]
    counts = [0] * (n // 2 + 1)
    counts[0] = 1

    def grow(start: int, used: frozenset[int], size: int) -> None:
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            counts[size + 1] += 1
            grow(i + 1, used | {u, v}, size + 1)

    grow(0, frozenset(), 0)
    return tuple(counts)


def gcd_reference(a_coeffs, b_coeffs) -> tuple[Fraction, ...]:
    """Monic polynomial GCD over Q by plain Euclidean division."""

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and p[-1] == 0:
            p.pop()
        return p

    def rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        a = a[:]
        while len(a) >= len(b) and a:
            q = a[-1] / b[-1]
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] -= q * c
            trim(a)
        return a

    a = trim([Fraction(c) for c in a_coeffs])
    b = trim([Fraction(c) for c in b_coeffs])
    while b:
        a, b = b, rem(a, b)
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def _sign(p: IntPolynomial, x: Fraction) -> int:
    value = p.evaluate(x)
    return (value > 0) - (value < 0)


def _variations_reference(chain, point: Fraction | None) -> int:
    """Sign variations of a Sturm chain at a rational point; None means +infinity."""
    count = 0
    prev = 0
    for p in chain:
        s = (p.leading > 0) - (p.leading < 0) if point is None else _sign(p, point)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _nonroot_point(p: IntPolynomial, mid: Fraction, hi: Fraction) -> tuple[Fraction, int]:
    """First point of mid, mid+(hi-mid)/2, mid+(hi-mid)/4, ... avoiding roots,
    with the (nonzero) sign of p there."""
    c = mid
    delta = hi - mid
    while not (s := _sign(p, c)):
        delta /= 2
        c = mid + delta
    return c, s


def refined_reference(
    p: IntPolynomial, lo: Fraction, hi: Fraction, eps: Fraction
) -> tuple[Fraction, Fraction]:
    """Sign bisection of an isolating interval of p down to width <= eps,
    in Fraction arithmetic: keep the half across which p changes sign."""
    s_hi = _sign(p, hi)
    while hi - lo > eps:
        mid, s_mid = _nonroot_point(p, (lo + hi) / 2, hi)
        if s_mid == s_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def max_real_root_reference(p: IntPolynomial, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval of the largest real root of p, width <= eps.

    Sturm bisection in Fraction arithmetic from (-B, B), B the power-of-two
    root bound, until one root is left above the lower end; then
    refined_reference.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = p.squarefree_part()
    if sf.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    chain = _sturm_chain(sf.coeffs)
    bound = sf.root_bound()
    lo, hi = -bound, bound
    v_lo = _variations_reference(chain, lo)
    v_hi = _variations_reference(chain, None)
    if v_lo == v_hi:
        raise NoRealRootError("no real roots")
    while v_lo - v_hi > 1:
        mid, _ = _nonroot_point(sf, (lo + hi) / 2, hi)
        v_mid = _variations_reference(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return refined_reference(sf, lo, hi, eps)


def sturm_root_count(p: IntPolynomial, lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of p in (lo, hi), by Sturm variations
    evaluated in Fraction arithmetic.

    Requires p nonzero and nonvanishing at both endpoints.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    if _sign(p, lo) == 0 or _sign(p, hi) == 0:
        raise ValueError("interval endpoint is a root; perturb it")
    chain = _sturm_chain(p.coeffs)
    return _variations_reference(chain, lo) - _variations_reference(chain, hi)


def _roots_past_reference(
    sf: IntPolynomial, lo: Fraction, hi: Fraction, q: IntPolynomial
) -> tuple[bool, int]:
    """For the one root alpha of the squarefree sf inside (lo, hi): whether
    q(alpha) = 0, and the number of distinct roots of q above alpha.

    alpha is a root of q exactly when the monic Fraction GCD of sf and q has
    a root in (lo, hi).  The bracket is then halved with refined_reference
    until q vanishes at neither end and keeps only alpha, if anything, inside.
    """
    g = gcd_reference(sf.coeffs, q.coeffs)
    scale = lcm(*(c.denominator for c in g))
    g_int = IntPolynomial.from_coeffs([int(c * scale) for c in g])
    on_root = g_int.degree >= 1 and sturm_root_count(g_int, lo, hi) >= 1
    while _sign(q, lo) == 0 or _sign(q, hi) == 0 or sturm_root_count(q, lo, hi) != on_root:
        lo, hi = refined_reference(sf, lo, hi, (hi - lo) / 2)
    chain = _sturm_chain(q.coeffs)
    return on_root, _variations_reference(chain, hi) - _variations_reference(chain, None)


def dominance_reference(g1: Graph, g2: Graph) -> DominanceVerdict:
    """Sign of d = m(G2, x) - m(G1, x) on x >= t(G1), asked as three
    questions in a fixed order.

    A negative leading coefficient is incomparable.  Otherwise a root of the
    odd part of d (the product of its odd-multiplicity squarefree factors)
    above t(G1) is a sign change, so incomparable; failing that, d touching
    zero at or above t(G1) is weak, and anything else strict.  Every root
    question is answered on the Fraction bracket of max_real_root_reference.
    """
    p1 = matching_polynomial(g1)
    d = matching_polynomial(g2) - p1
    if d.is_zero():
        return DominanceVerdict.EQUAL_POLYNOMIALS
    if d.leading < 0:
        return DominanceVerdict.INCOMPARABLE
    sf = p1.squarefree_part()
    lo, hi = max_real_root_reference(p1, Fraction(1, 2**16))
    odd_part = IntPolynomial.one()
    for factor, mult in d.squarefree_decomposition():
        if mult % 2 == 1:
            odd_part = odd_part * factor
    if _roots_past_reference(sf, lo, hi, odd_part)[1] > 0:
        return DominanceVerdict.INCOMPARABLE
    on_root, above = _roots_past_reference(sf, lo, hi, d)
    if on_root or above > 0:
        return DominanceVerdict.WEAKLY_DOMINATES
    return DominanceVerdict.STRICTLY_DOMINATES


def bulk_matching_profiles(n: int):
    """Matching counts of every labeled graph on n vertices at once.

    Returns (pairs, counts): pairs is the lexicographic vertex-pair list
    fixing the edge-mask bit order, and counts[k][mask] is m_k of the graph
    with that edge mask.  Each matching of the complete graph contributes to
    exactly the masks that contain it, which is one vectorized subset test.
    """
    import numpy as np

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    vmask = [(1 << u) | (1 << v) for u, v in pairs]
    total = 1 << len(pairs)
    masks = np.arange(total, dtype=np.uint32)
    counts = [np.zeros(total, dtype=np.uint16) for _ in range(n // 2 + 1)]
    counts[0][:] = 1
    for k in range(1, n // 2 + 1):
        for combo in combinations(range(len(pairs)), k):
            acc = 0
            for e in combo:
                if acc & vmask[e]:
                    break
                acc |= vmask[e]
            else:
                em = np.uint32(sum(1 << e for e in combo))
                counts[k] += (masks & em) == em
    return pairs, counts


def labeled_odd_cycle_graphs(n: int, connected_only: bool = False):
    """Stream every labeled odd-cycle graph of order n.

    Edge subsets are visited in size-then-lexicographic order; subsets above
    the extremal size cap cannot qualify and are never generated.
    """
    if not 1 <= n <= LABELED_MAX_N:
        raise GraphTooLargeError(f"labeled sweep limited to n <= {LABELED_MAX_N}")
    pairs = [(u, v, 1 << u, 1 << v) for u in range(n) for v in range(u + 1, n)]
    cap = min(edge_cap(n), len(pairs))
    full = (1 << n) - 1
    for m in range(cap + 1):
        for combo in combinations(pairs, m):
            rows = [0] * n
            for u, v, bu, bv in combo:
                rows[u] |= bv
                rows[v] |= bu
            if not odd_cycle_rows(n, rows):
                continue
            if connected_only and _component_mask(rows, 0, full) != full:
                continue
            yield Graph(n, tuple(rows))


def check_deletion_identity(g, edge: tuple[int, int]) -> bool:
    """Verify m(G,x) = m(G-e,x) - m(G-u-v,x) for the given edge."""
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    whole = matching_polynomial(g)
    kept = set(g.edge_list()) - {(min(u, v), max(u, v))}
    deleted = matching_polynomial(Graph.from_edges(g.n, kept))
    rest = [w for w in range(g.n) if w not in (u, v)]
    if rest:
        sub, _ = g.induced(rest)
        shrunk = matching_polynomial(sub)
    else:
        shrunk = IntPolynomial.one()
    return whole == deleted - shrunk


def check_union_identity(parts) -> bool:
    """Verify the matching polynomial of a disjoint union is the product."""
    parts = list(parts)
    product = IntPolynomial.one()
    for p in parts:
        product = product * matching_polynomial(p)
    return matching_polynomial(disjoint_union(parts)) == product
