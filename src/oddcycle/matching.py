"""Exact matching profiles and matching polynomials.

``matching_profile`` returns the plain tuple (m_0, m_1, ..., m_{n//2}) of
k-edge matching counts, and the matching polynomial is
m(G, x) = sum_k (-1)^k m_k x^(n-2k).  The engine applies the edge-deletion
recurrence at a maximum-degree pivot vertex: the deletions of all edges at
the pivot telescope into subproblems on induced subgraphs only (G minus the
pivot, and G minus the pivot and one neighbor), so memoization works on
plain vertex bitmasks.  Disconnected masks factor through the component
product rule.

A profile is carried internally as one big integer with fixed-width fields,
one per matching size; the field width is chosen from the m_k(K_n) upper
bound so that field sums and convolutions never carry.  Addition of packed
profiles is integer addition and the component product rule is integer
multiplication, which keeps the exhaustive sweeps fast while staying exact.
``matching_polynomial`` keeps a bounded memo keyed by graph value;
``matching_profile``, run on millions of distinct graphs, keeps none.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import comb

from .graphs import Graph, iter_bits
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

    def packed(mask: int) -> int:
        # strip isolated vertices; they do not change any m_k
        mm = mask
        while mm:
            b = mm & -mm
            mm ^= b
            if not adj[b.bit_length() - 1] & mask:
                mask ^= b
        if mask == 0:
            return 1
        hit = memo.get(mask)
        if hit is not None:
            return hit
        # split off the component of the lowest vertex (product rule)
        comp = mask & -mask
        frontier = comp
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v]
            grow &= mask & ~comp
            comp |= grow
            frontier = grow
        if comp != mask:
            result = packed(comp) * packed(mask ^ comp)
        else:
            # pivot: smallest-index maximum-degree vertex; deleting its edges
            # one by one telescopes into the two induced-subgraph terms
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
            result = packed(rest)
            for v in iter_bits(adj[best] & mask):
                result += packed(rest ^ (1 << v)) << width
        memo[mask] = result
        return result

    value = packed((1 << n) - 1)
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
