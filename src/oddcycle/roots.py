"""Exact real-root isolation and comparison via fraction-free Sturm chains.

Roots are represented as (squarefree defining polynomial, rational isolating
interval) pairs.  Sturm counts isolate: bisection from a power-of-two root
bound runs only until one root is left above the lower end.  Sign bisection
refines: an interval holding exactly one simple root and no root at either
end keeps the half across which the polynomial changes sign.  Both loops
carry the interval as integer numerators over one shared denominator and
evaluate signs by integer Horner steps; the Fraction endpoints are built
once, when a loop ends.  Comparisons certify with Sturm counts and settle
ties through polynomial GCDs, so no verdict ever rests on floating point.
The chains use pseudo-remainders with sign tracking to stay in integer
arithmetic.

This module alone decides how narrow an interval is.  ``max_real_root``
hands out its root refined to width 2^-16, and every question asked of a
root (its sign under a polynomial, its order against a rational or another
root, the roots of a polynomial above it, its decimal digits) refines
further on its own, as far as that question needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .graphs import Graph
from .matching import matching_polynomial
from .polynomials import IntPolynomial

# Width of the interval max_real_root hands out.  Handing out the bare
# isolating interval instead made the census slower, most likely because a
# root compared against many others (the census's running best root) then
# has its interval halved again in every comparison.
_WIDTH = Fraction(1, 2**16)

LT, EQ, GT = -1, 0, 1


class NoRealRootError(ValueError):
    """Raised when a polynomial has no real root to isolate."""


@lru_cache(maxsize=4096)
def _sturm_chain(coeffs: tuple[int, ...]) -> tuple[IntPolynomial, ...]:
    f = IntPolynomial(coeffs).primitive_part()
    g = f.derivative().primitive_part()
    chain = [f]
    while not g.is_zero():
        chain.append(g)
        r, k = f.pseudo_rem(g)
        # true remainder is r / lc(g)^k; flip so the chain member is a
        # positive multiple of the negated remainder
        if g.leading < 0 and k % 2 == 1:
            nxt = r
        else:
            nxt = -r
        f, g = g, nxt.primitive_part()
    return tuple(chain)


def _variations(chain, num: int, den: int) -> int:
    """Sign variations of the chain at num/den; (1, 0) means +infinity."""
    count = 0
    prev = 0
    for p in chain:
        s = p.sign_at_ratio(num, den)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _count_roots(chain, lo: Fraction, hi: Fraction | None) -> int:
    """Distinct real roots in (lo, hi]; hi=None means +infinity."""
    num, den = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    return _variations(chain, lo.numerator, lo.denominator) - _variations(chain, num, den)


def _nearest_int(f: Fraction) -> int:
    """Round to the nearest integer, ties toward positive infinity."""
    q, rem = divmod(f.numerator, f.denominator)
    return q + (1 if 2 * rem >= f.denominator else 0)


def _split(p: IntPolynomial, a: int, b: int, d: int) -> tuple[int, int, int, int, int]:
    """Bisect (a/d, b/d) at a point where p does not vanish.

    Returns (c, a, b, d, s): the point c/d and the ends a/d, b/d over the
    new common denominator, and the nonzero sign s of p at c/d.  The point
    is the midpoint, or while p vanishes there the first of mid + (hi -
    mid)/2, mid + (hi - mid)/4, ... that it does not vanish at.
    """
    mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
    step = b - mid
    c = mid
    while not (s := p.sign_at_ratio(c, d)):
        mid, a, b, d = 2 * mid, 2 * a, 2 * b, 2 * d
        c = mid + step
    return c, a, b, d, s


@dataclass(frozen=True)
class AlgebraicRoot:
    """A real algebraic number: unique root of ``poly`` inside (lo, hi).

    ``poly`` is squarefree and primitive with positive leading coefficient;
    both endpoints are rational non-roots and the Sturm count over the
    interval is exactly one.
    """

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, eps: Fraction | float) -> AlgebraicRoot:
        """Shrink the isolating interval to width <= eps (new object).

        The one root is simple and neither end is a root, so p changes sign
        across the interval; each step keeps the half where it still does.
        """
        eps = Fraction(eps)
        e_num, e_den = eps.numerator, eps.denominator
        p = self.poly
        d = lcm(self.lo.denominator, self.hi.denominator)
        a, b = int(self.lo * d), int(self.hi * d)
        s_hi = p.sign_at_ratio(b, d)
        while (b - a) * e_den > e_num * d:
            c, a, b, d, s_c = _split(p, a, b, d)
            if s_c == s_hi:
                b = c
            else:
                a = c
        return AlgebraicRoot(p, Fraction(a, d), Fraction(b, d))

    def halved(self) -> AlgebraicRoot:
        return self.refined(self.width / 2)

    def _apart_from(self, q: IntPolynomial) -> tuple[bool, AlgebraicRoot]:
        """Whether this number is a root of q, and an interval for it whose
        closure holds no other root of q (q nonzero).

        The GCD with the defining polynomial settles the first part exactly;
        the interval is then halved until q vanishes at neither end and its
        Sturm count inside is 1 for a shared root and 0 otherwise.
        """
        g = self.poly.gcd(q)
        on_root = g.degree >= 1 and _count_roots(_sturm_chain(g.coeffs), self.lo, self.hi) >= 1
        chain = _sturm_chain(q.coeffs)
        r = self
        while (
            q.sign_at(r.lo) == 0
            or q.sign_at(r.hi) == 0
            or _count_roots(chain, r.lo, r.hi) != on_root
        ):
            r = r.halved()
        return on_root, r

    def sign_of(self, q: IntPolynomial) -> int:
        """Exact sign of q evaluated at this algebraic number."""
        if q.is_zero():
            return 0
        on_root, r = self._apart_from(q)
        return 0 if on_root else q.sign_at(r.lo)

    def compare_to_rational(self, value: Fraction | int) -> int:
        """-1, 0 or +1 as the root is below, equal to, or above value."""
        value = Fraction(value)
        return self.sign_of(IntPolynomial.from_coeffs([-value.numerator, value.denominator]))

    def to_float(self) -> float:
        r = self.refined(Fraction(1, 2**60))
        return float((r.lo + r.hi) / 2)

    def decimal_str(self, digits: int = 12) -> str:
        """Decimal expansion of the root, correctly rounded to ``digits`` places.

        The isolating interval is refined until both endpoints round to the
        same value, so the last digit is exact; a root sitting exactly on a
        rounding boundary is rounded away from zero.
        """
        if digits < 0:
            raise ValueError("negative digit count")
        scale = 10**digits
        r = self.refined(Fraction(1, 10 ** (digits + 2)))
        while True:
            qlo = _nearest_int(r.lo * scale)
            qhi = _nearest_int(r.hi * scale)
            if qlo == qhi:
                q = qlo
                break
            if qhi - qlo == 1:
                boundary = Fraction(2 * qlo + 1, 2 * scale)
                if r.poly.sign_at(boundary) == 0:
                    q = qhi if boundary > 0 else qlo
                    break
            r = r.halved()
        s = str(abs(q)).rjust(digits + 1, "0")
        head, tail = (s[:-digits], s[-digits:]) if digits else (s, "")
        return ("-" if q < 0 else "") + head + ("." + tail if tail else "")


def max_real_root(p: IntPolynomial) -> AlgebraicRoot:
    """The largest real root of p, its isolating interval refined to width 2^-16.

    Callers that need a narrower interval ask for it with ``refined``; the
    root's own questions refine as far as they need.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = p.squarefree_part()
    if sf.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    chain = _sturm_chain(sf.coeffs)
    bound = sf.root_bound()
    # no root lies at or past the bound, so the chain varies there as at +infinity
    a, b, d = -bound.numerator, bound.numerator, bound.denominator
    v_lo = _variations(chain, a, d)
    v_hi = _variations(chain, 1, 0)
    if v_lo == v_hi:
        raise NoRealRootError("no real roots")
    while v_lo - v_hi > 1:
        c, a, b, d, _ = _split(sf, a, b, d)
        v_c = _variations(chain, c, d)
        if v_c > v_hi:
            a, v_lo = c, v_c
        else:
            b, v_hi = c, v_c
    return AlgebraicRoot(sf, Fraction(a, d), Fraction(b, d)).refined(_WIDTH)


def max_matching_root(g: Graph) -> AlgebraicRoot:
    """Largest root of the matching polynomial (0 for edgeless graphs)."""
    return max_real_root(matching_polynomial(g))


def count_roots_above(p: IntPolynomial, root: AlgebraicRoot) -> int:
    """Number of distinct real roots of p strictly greater than ``root``.

    Refines the interval until its closure holds no root of p other than
    (possibly) the algebraic number itself, then counts past the upper end.
    """
    if p.degree < 1:
        return 0
    _, r = root._apart_from(p)
    return _count_roots(_sturm_chain(p.coeffs), r.hi, None)


def count_roots_from(p: IntPolynomial, root: AlgebraicRoot) -> int:
    """Number of distinct real roots of p in [root, +infinity): those of
    ``count_roots_above`` plus ``root`` itself when p vanishes there."""
    if p.degree < 1:
        return 0
    on_root, r = root._apart_from(p)
    return on_root + _count_roots(_sturm_chain(p.coeffs), r.hi, None)


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot) -> int:
    """Exact order of two algebraic roots: LT (-1), EQ (0) or GT (+1)."""
    gchain = None  # Sturm chain of gcd(a.poly, b.poly), () when it is constant
    while a.hi > b.lo and b.hi > a.lo:
        if gchain is None:
            g = a.poly.gcd(b.poly)
            gchain = _sturm_chain(g.coeffs) if g.degree >= 1 else ()
        if gchain:
            in_a = _count_roots(gchain, a.lo, a.hi)
            in_b = _count_roots(gchain, b.lo, b.hi)
            if in_a >= 1 and in_b >= 1:
                hull_lo = min(a.lo, b.lo)
                hull_hi = max(a.hi, b.hi)
                if _count_roots(gchain, hull_lo, hull_hi) == 1:
                    return EQ
        a = a.halved()
        b = b.halved()
    return LT if a.hi <= b.lo else GT
