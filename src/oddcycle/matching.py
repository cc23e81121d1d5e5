"""Exact matching profiles and matching polynomials.

``matching_profile`` returns the plain tuple (m_0, m_1, ..., m_{n//2}) of
k-edge matching counts, and the matching polynomial is
m(G, x) = sum_k (-1)^k m_k x^(n-2k).  The engine applies the edge-deletion
recurrence at a maximum-degree pivot p of a connected vertex mask: the
deletions of all edges at p telescope into m(G - p) + X * sum_{v ~ p}
m(G - p - v), terms on induced subgraphs only, so memoization works on
plain vertex bitmasks.  The memo holds connected masks only.  Any other
mask is split into all of its components in one walk and its value is the
product of theirs (the component product rule); a single vertex counts as
1.  At the pivot, G - p is split once into components C_1..C_k with values
P_1..P_k, and a neighbour v in C_i changes C_i alone, so the neighbour sum
is sum_i (prod_{j != i} P_j) * S_i with S_i the sum of m(C_i - v) over the
neighbours v of p in C_i; a neighbour that is a component on its own adds
prod_j P_j.

A profile is carried internally as one big integer with fixed-width fields,
one per matching size; the field width is chosen from the m_k(K_n) upper
bound so that field sums and convolutions never carry.  Addition of packed
profiles is integer addition, the component product rule is integer
multiplication and X is a shift by one field, which keeps the exhaustive
sweeps fast while staying exact.  ``matching_polynomial`` keeps a bounded
memo keyed by graph value; ``matching_profile``, run on millions of
distinct graphs, keeps nothing across calls.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import comb

from .graphs import Graph, _components
from .polynomials import IntPolynomial


@cache
def _field_width(n: int) -> int:
    bound = 1
    for k in range(n // 2 + 1):
        mk = comb(n, 2 * k)
        for j in range(2 * k - 1, 0, -2):
            mk *= j
        bound = max(bound, mk)
    return bound.bit_length() + 1


def matching_profile(g: Graph) -> tuple[int, ...]:
    """Exact matching counts m_0..m_{n//2} via the memoized deletion recurrence."""
    n = g.n
    adj = g.adj
    width = _field_width(n)
    memo: dict[int, int] = {}

    def whole(mask: int) -> int:
        # product rule over the components; a singleton counts as 1.  The
        # memo holds connected masks only, so a hit skips the walk
        hit = memo.get(mask)
        if hit is not None:
            return hit
        value = 1
        for comp in _components(adj, mask):
            if comp & (comp - 1):
                value *= connected(comp)
        return value

    def connected(mask: int) -> int:
        # mask is connected with at least two vertices
        hit = memo.get(mask)
        if hit is not None:
            return hit
        # pivot: smallest-index maximum-degree vertex; deleting its edges
        # one by one telescopes into m(mask - p) + X * sum_v m(mask - p - v)
        best, best_deg = -1, -1
        mm = mask
        while mm:
            b = mm & -mm
            mm ^= b
            v = b.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            if d > best_deg:
                best, best_deg = v, d
        rest = mask ^ (1 << best)
        nbrs = adj[best] & mask
        # m(rest) = prod_j P_j, and a neighbour v in C_i leaves C_i - v
        # beside the other components: the neighbour sum is
        # sum_i (prod_{j != i} P_j) * S_i, built like a product's derivative,
        # which is S_1 alone when rest is connected
        prod = 1
        terms = 0
        for comp in _components(adj, rest):
            if comp & (comp - 1):
                value = connected(comp)
                s = 0
                near = nbrs & comp
                while near:
                    b = near & -near
                    near ^= b
                    s += whole(comp ^ b)
                terms = terms * value + prod * s
                prod *= value
            else:
                # a neighbour v with no other edge: m(rest - v) = m(rest),
                # whose later factors the loop multiplies in
                terms += prod
        result = prod + (terms << width)
        memo[mask] = result
        return result

    value = whole((1 << n) - 1)
    fmask = (1 << width) - 1
    return tuple((value >> (k * width)) & fmask for k in range(n // 2 + 1))


def polynomial_from_profile(counts, n: int) -> IntPolynomial:
    """Build sum_k (-1)^k m_k x^(n-2k) from matching counts."""
    coeffs = [0] * (n + 1)
    for k, mk in enumerate(counts):
        if n - 2 * k < 0:
            if mk:
                raise ValueError(f"count m_{k} nonzero but 2k > n")
            continue
        coeffs[n - 2 * k] = -mk if k % 2 else mk
    return IntPolynomial.from_coeffs(coeffs)


@lru_cache(maxsize=4096)
def matching_polynomial(g: Graph) -> IntPolynomial:
    """The matching polynomial sum_k (-1)^k m_k x^(n-2k), monic, degree n."""
    return polynomial_from_profile(matching_profile(g), g.n)
