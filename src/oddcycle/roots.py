"""Exact real-root isolation and comparison via fraction-free Sturm chains.

Roots are represented as (squarefree defining polynomial, rational isolating
interval) pairs.  Sturm counts isolate: bisection from a power-of-two root
bound runs only until one root is left above the lower end.  Sign bisection
refines: an interval holding exactly one simple root and no root at either
end keeps the half across which the polynomial changes sign.  Both loops
carry the interval as integer numerators over one shared denominator and
evaluate signs by integer Horner steps; the Fraction endpoints are built
once, when a loop ends.  Only ``AlgebraicRoot._apart_from`` decides, by a
polynomial GCD, whether a root is a root of another polynomial; ties between
two roots are settled through it, and a rational is placed by one sign test.
No verdict ever rests on floating point.  A Sturm chain is the remainder
sequence of a polynomial and its derivative
(``IntPolynomial.remainder_sequence``).  A count of the roots of p above a
root first tries Descartes' rule of signs at the root's lower end: when
p(x + lo) has no sign variation, p has no root past lo and the count is 0
with no GCD and no Sturm chain.  Only that 0 is trusted; every other
answer comes from the Sturm count.

Matching polynomials and alternating skew forms have a single parity, and
every root question is asked at half their degree.  Write p = x^k Q1(x^2)
with Q1(0) != 0 (``IntPolynomial.parity_split``): the distinct real roots
of p are 0 when k > 0 and +-sqrt(s) for each positive root s of Q1.  Root
counts then come from the Sturm chain of Q1 evaluated at x^2, the
squarefree part of p from the first and last members of that same chain,
and signs from Q1 at x^2.  Every interval and every answer is the one the
full-degree chain gives; polynomials that mix parities keep the chain of p
itself.

This module alone decides how narrow an interval is.  ``max_real_root``
hands out its root refined to width 2^-16, and every question asked of a
root (its sign under a polynomial, its order against another root, the
roots of a polynomial above it, its decimal digits) refines
further on its own, as far as that question needs.  ``max_real_root`` keeps
the module's one bounded memo of roots, keyed by the polynomial: equal
polynomials, from relabelled graphs or from orientations whose alternating
skew form is m(G), are isolated once and share one frozen root, which
``compare_roots`` recognises at once.
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
    f = IntPolynomial(coeffs)
    return f.remainder_sequence(f.derivative())


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


class _RootCounter:
    """R(x), the number of distinct real roots of p greater than x.

    For p = x^k Q1(x^2) (``IntPolynomial.parity_split``) the chain is that
    of Q1, with V its sign variations at (num^2, den^2) and z = [k > 0]:

    - R(x) = V(x^2) - V(inf) for x >= 0;
    - R(x) = R(0) + z + V(0) - V(x^2) - [Q1(x^2) = 0] for x < 0, since the
      roots of p below 0 mirror those above it.

    Otherwise the chain is p's own and R(x) = V(x) - V(inf).  Either way the
    count holds at every x when p is squarefree, and at every x where p
    does not vanish otherwise.
    """

    __slots__ = ("chain", "square", "z", "v_inf", "v_zero", "r_zero")

    def __init__(self, p: IntPolynomial):
        split = p.parity_split
        self.square = split is not None
        k, q1 = split if self.square else (0, p)
        self.z = k > 0
        self.chain = _sturm_chain(q1.coeffs)
        self.v_inf = _variations(self.chain, 1, 0)
        if self.square:
            self.v_zero = _variations(self.chain, 0, 1)
            self.r_zero = self.v_zero - self.v_inf

    def above(self, num: int, den: int) -> int:
        """R(num/den); (1, 0) means +infinity."""
        if not self.square:
            return _variations(self.chain, num, den) - self.v_inf
        y_num, y_den = num * num, den * den
        v = _variations(self.chain, y_num, y_den)
        if num >= 0:
            return v - self.v_inf
        on_root = self.chain[0].sign_at_ratio(y_num, y_den) == 0
        return self.r_zero + self.z + self.v_zero - v - on_root


def _count_roots(counter: _RootCounter, lo: Fraction, hi: Fraction | None) -> int:
    """Distinct real roots in (lo, hi]; hi=None means +infinity."""
    above_hi = 0 if hi is None else counter.above(hi.numerator, hi.denominator)
    return counter.above(lo.numerator, lo.denominator) - above_hi


def _variations_past(p: IntPolynomial, a: Fraction) -> int:
    """Sign variations of the coefficients of p(x + a), zeros skipped.

    By Descartes' rule of signs this bounds the number of roots of p
    greater than a, counted with multiplicity, and has the same parity.
    With a = num/den the variations are those of den^deg p((x + num)/den):
    scaling x by den > 0 keeps every sign, the coefficient of x^k in
    den^deg p(x/den) is c_k den^(deg - k), and the shift by num is a
    Taylor shift in integers.  For p = x^k Q1(x^2) and a > 0 the roots of p
    above a are the sqrt(s) for the roots s of Q1 above a^2, so Q1 is
    shifted by a^2 instead, at half the degree.
    """
    num, den = a.numerator, a.denominator
    split = p.parity_split
    if split is not None and num > 0:
        p, num, den = split[1], num * num, den * den
    b = list(p.coeffs)
    deg = len(b) - 1
    pw = 1
    for k in range(deg, -1, -1):
        b[k] *= pw
        pw *= den
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            b[j] += num * b[j + 1]
    count = 0
    prev = 0
    for c in b:
        if c:
            if prev and (c > 0) != (prev > 0):
                count += 1
            prev = c
    return count


def _squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """The squarefree part of p, primitive with a positive leading
    coefficient, read off the Sturm chain that counts p's roots.

    That chain is the remainder sequence of Q1 and Q1', with p = x^k Q1(x^2)
    (Q1 = p when parities mix), so its last member is gcd(Q1, Q1') and the
    squarefree part S of Q1 is its first member divided by its last.  For a
    single parity the answer is x^z S(x^2) with z = [k > 0]: S(x^2) is
    squarefree because S(0) != 0, and it keeps S's coefficients, so it is
    primitive with a positive leading one.
    """
    split = p.parity_split
    k, q1 = (0, p) if split is None else split
    chain = _sturm_chain(q1.coeffs)
    s = chain[0].exact_div(chain[-1])
    if s.leading < 0:
        s = -s
    if split is None:
        return s
    z = k > 0
    coeffs = [0] * (2 * len(s.coeffs) - 1 + z)
    coeffs[z::2] = s.coeffs
    return IntPolynomial(tuple(coeffs))


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
        if eps <= 0:
            raise ValueError("refinement width must be positive")
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

    def _apart_from(self, q: IntPolynomial) -> tuple[bool, AlgebraicRoot, _RootCounter]:
        """Whether this number is a root of q, an interval for it whose
        closure holds no other root of q (q nonzero), and q's root counter.

        The GCD with the defining polynomial settles the first part exactly;
        the interval is then halved until q vanishes at neither end and its
        Sturm count inside is 1 for a shared root and 0 otherwise.
        """
        g = self.poly.gcd(q)
        on_root = g.degree >= 1 and _count_roots(_RootCounter(g), self.lo, self.hi) >= 1
        counter = _RootCounter(q)
        r = self
        while (
            q.sign_at(r.lo) == 0
            or q.sign_at(r.hi) == 0
            or _count_roots(counter, r.lo, r.hi) != on_root
        ):
            r = r.halved()
        return on_root, r, counter

    def sign_of(self, q: IntPolynomial) -> int:
        """Exact sign of q evaluated at this algebraic number."""
        if q.is_zero():
            return 0
        on_root, r, _ = self._apart_from(q)
        return 0 if on_root else q.sign_at(r.lo)

    def compare_to_rational(self, value: Fraction | int) -> int:
        """LT, EQ or GT as the root is below, equal to, or above value.

        Inside the interval ``poly`` has one simple root, so its sign at
        value is 0 there and its sign at ``hi`` exactly above it.
        """
        value = Fraction(value)
        if value <= self.lo:
            return GT
        if value >= self.hi:
            return LT
        s = self.poly.sign_at(value)
        if s == 0:
            return EQ
        return LT if s == self.poly.sign_at(self.hi) else GT

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


@lru_cache(maxsize=4096)
def max_real_root(p: IntPolynomial) -> AlgebraicRoot:
    """The largest real root of p, its isolating interval refined to width 2^-16.

    Callers that need a narrower interval ask for it with ``refined``; the
    root's own questions refine as far as they need.  Memoized by p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = _squarefree_part(p)
    if sf.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    # p's own counter holds wherever p does not vanish, and sf, whose sign
    # picks each bisection point, vanishes exactly where p does
    counter = _RootCounter(p)
    bound = sf.root_bound()
    # every root lies strictly inside (-B, B), so none is above B
    a, b, d = -bound.numerator, bound.numerator, bound.denominator
    r_lo = counter.above(a, d)
    if not r_lo:
        raise NoRealRootError("no real roots")
    while r_lo > 1:
        c, a, b, d, _ = _split(sf, a, b, d)
        r_c = counter.above(c, d)
        if r_c:
            a, r_lo = c, r_c
        else:
            b = c
    return AlgebraicRoot(sf, Fraction(a, d), Fraction(b, d)).refined(_WIDTH)


def max_matching_root(g: Graph) -> AlgebraicRoot:
    """Largest root of the matching polynomial (0 for edgeless graphs)."""
    return max_real_root(matching_polynomial(g))


def count_roots_above(p: IntPolynomial, root: AlgebraicRoot) -> int:
    """Number of distinct real roots of p strictly greater than ``root``.

    Descartes' rule goes first: no sign variation in p(x + root.lo) means
    no root of p past root.lo < root, and the answer 0.  Only that 0 is
    trusted.  Otherwise the interval is refined until its closure holds no
    root of p other than (possibly) the algebraic number itself, and the
    Sturm count past the upper end is the answer.
    """
    if not _variations_past(p, root.lo):
        return 0
    _, r, counter = root._apart_from(p)
    return _count_roots(counter, r.hi, None)


def count_roots_from(p: IntPolynomial, root: AlgebraicRoot) -> int:
    """Number of distinct real roots of p in [root, +infinity): those of
    ``count_roots_above`` plus ``root`` itself when p vanishes there.

    The same Descartes test at root.lo answers 0 when p(x + root.lo) has no
    sign variation; any other answer comes from the Sturm count.
    """
    if not _variations_past(p, root.lo):
        return 0
    on_root, r, counter = root._apart_from(p)
    return on_root + _count_roots(counter, r.hi, None)


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot) -> int:
    """Exact order of two algebraic roots: LT (-1), EQ (0) or GT (+1).

    Equal roots (as the memo of ``max_real_root`` hands out) and disjoint
    intervals decide at once.  Otherwise the closure of a's interval from
    ``a._apart_from(b.poly)`` holds no root of b's polynomial but possibly
    a, so b lies inside it exactly when b = a.
    """
    if a == b:
        return EQ
    if a.hi <= b.lo:
        return LT
    if b.hi <= a.lo:
        return GT
    _, r, _ = a._apart_from(b.poly)
    if b.compare_to_rational(r.lo) == LT:
        return GT
    if b.compare_to_rational(r.hi) == GT:
        return LT
    return EQ
