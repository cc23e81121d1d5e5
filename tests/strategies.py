"""Hypothesis strategies shared by several test modules."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from hypothesis import strategies as st

from oddcycle import Graph, IntPolynomial


@dataclass(frozen=True)
class ParityPoly:
    """p = x^k prod (x^2 - a_i), or its square, with the a_i kept so the real roots
    are known exactly: 0 when k > 0 or some a_i = 0, and +-sqrt(a_i) for
    each a_i > 0."""

    p: IntPolynomial
    k: int
    values: tuple[Fraction, ...]

    def roots_in(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in (lo, hi], in Fraction arithmetic."""
        count = int((self.k > 0 or 0 in self.values) and lo < 0 <= hi)
        for a in set(self.values):
            if a > 0:
                # +sqrt(a) in (lo, hi], then -sqrt(a) in (lo, hi]
                count += (lo < 0 or lo * lo < a) and (hi >= 0 and a <= hi * hi)
                count += (lo < 0 and lo * lo > a) and (hi >= 0 or a >= hi * hi)
        return count


def from_roots(roots) -> IntPolynomial:
    """The monic product of x - r over the integer roots r."""
    p = IntPolynomial.one()
    for r in roots:
        p = p * IntPolynomial.from_coeffs([-r, 1])
    return p


def random_cactus(n: int, rng: random.Random) -> Graph:
    """A connected graph of order n built from odd cycles and bridges, each
    block hung at a random earlier vertex."""
    edges, size = [], 1
    while size < n:
        length = rng.choice([k for k in (2, 3, 5, 7) if size + k - 1 <= n])
        path = [rng.randrange(size), *range(size, size + length - 1)]
        if length > 2:
            path.append(path[0])
        edges += zip(path, path[1:])
        size += length - 1
    return Graph.from_edges(n, edges)


def seeded_cactus(seed: int) -> Graph:
    """A random cactus of order 24..64 from a seeded generator, relabelled
    at random, so that no vertex order favours the recurrence's pivot."""
    rng = random.Random(seed)
    n = rng.randrange(24, 65)
    return random_cactus(n, rng).relabeled(rng.sample(range(n), n))


@st.composite
def graphs(draw, min_n=1, max_n=7):
    """A labeled graph of order min_n..max_n, its edge set drawn as a bitmask
    over the vertex pairs."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


rationals = st.fractions(-9, 9, max_denominator=4)


@st.composite
def parity_polys(draw) -> ParityPoly:
    """x^k prod (x^2 - a_i) with rational a_i of either sign, zero, squares
    of rationals (so some roots are rational) and repeats, sometimes squared."""
    k = draw(st.integers(0, 3))
    values = draw(
        st.lists(
            st.one_of(rationals, rationals.map(lambda b: b * b), st.just(Fraction(0))),
            max_size=4,
        )
    )
    values += values[: draw(st.integers(0, len(values)))]
    p = IntPolynomial.one().shifted(k)
    for a in values:
        p = p * IntPolynomial.from_coeffs([-a.numerator, 0, a.denominator])
    if draw(st.booleans()):
        p = p * p
    return ParityPoly(p, k, tuple(values))


def _rational_sqrt(a: Fraction) -> Fraction | None:
    if a < 0:
        return None
    num, den = isqrt(a.numerator), isqrt(a.denominator)
    return Fraction(num, den) if Fraction(num * num, den * den) == a else None


def parity_points(poly: ParityPoly):
    """Rational points on both sides of 0, and the rational real roots of
    the polynomial (0 and +-b for each a_i = b^2) among them."""
    roots = {Fraction(0)}
    for a in poly.values:
        b = _rational_sqrt(a)
        if b is not None:
            roots |= {b, -b}
    return st.one_of(rationals, st.sampled_from(sorted(roots)))
