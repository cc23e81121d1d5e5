"""Exact real-root isolation and comparison via fraction-free Sturm chains.

Roots are represented as (squarefree defining polynomial, rational isolating
interval) pairs.  Two loops narrow an interval, and nothing else does.
Sturm counts isolate (``max_real_root``): bisection from a power-of-two
root bound runs only until one root is left above the lower end.  Sign
bisection refines (``refined``): an interval holding exactly one simple
root and no root at either end keeps the half across which the
polynomial changes sign.  Both loops carry the interval as integer
numerators over one shared denominator and evaluate signs by integer
Horner steps; the Fraction endpoints are built once, when a loop ends.
No verdict ever rests on floating point.  A Sturm chain is the remainder
sequence of a polynomial and its derivative
(``IntPolynomial.remainder_sequence``).

Every other question is a fixed number of exact tests on the interval as
handed out: one sign places a rational, a GCD sign test and a Sturm-Tarski
count give the sign of q at the root (``sign_of``), the other root's ends
and polynomial order two roots (``compare_roots``), and one comparison
with a rounding boundary gives the digits (``decimal_str``).

``compare_max_root`` tries Descartes' rule at the root's lower end before
it isolates p's largest root: no sign variation in p(x + lo) means no root
of p past lo, so LT with no Sturm chain.

Matching polynomials and alternating skew forms have a single parity, and
every root question is asked at half their degree.  Write p = x^k Q1(x^2)
with Q1(0) != 0 (``IntPolynomial.parity_split``): the distinct real roots
of p are 0 when k > 0 and +-sqrt(s) for each positive root s of Q1.  Root
counts then come from the Sturm chain of Q1 evaluated at x^2, the
squarefree part of p from the first and last members of that same chain,
and signs from Q1 at x^2.  Every interval and every answer is the one the
full-degree chain gives; polynomials that mix parities keep the chain of p
itself.

``max_real_root`` hands out its root refined to width 2^-16 and keeps the
module's one bounded memo of roots, keyed by the polynomial: equal
polynomials, from relabelled graphs or from orientations whose
alternating skew form is m(G), are isolated once and share one frozen
root, which ``compare_roots`` recognises at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .graphs import Graph
from .matching import matching_polynomial
from .polynomials import IntPolynomial

# Width of the interval max_real_root hands out.  None of the 408 root
# comparisons in a seeded repetition of the benchmark workloads then
# overlaps.  With bare isolating intervals all 99 of census's and 170 of
# shifts' 181 overlap and pay a sign_of, census's Descartes tests, from a
# lower end further down, isolate 105 roots instead of 30, and a repetition
# ran 84 % and 11 % slower (medians of 30 alternating pairs, 2-vCPU Xeon,
# Python 3.11).
_WIDTH = Fraction(1, 2**16)

LT, EQ, GT = -1, 0, 1


class NoRealRootError(ValueError):
    """Raised when a polynomial has no real root to isolate."""


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
    """R(x), the number of distinct real roots of p greater than x, and p's
    squarefree part: ``max_real_root`` isolates with these and nothing else
    builds one.

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
        self.chain = q1.remainder_sequence(q1.derivative())
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

    def squarefree_part(self) -> IntPolynomial:
        """The squarefree part of p, primitive with a positive leading
        coefficient.  The chain's last member is gcd(Q1, Q1'), so the
        squarefree part S of Q1 is its first member divided by its last.
        For a single parity the answer is x^z S(x^2), squarefree because
        S(0) != 0, and primitive because it keeps S's coefficients.
        """
        s = self.chain[0].exact_div(self.chain[-1])
        if s.leading < 0:
            s = -s
        if not self.square:
            return s
        coeffs = [0] * (2 * len(s.coeffs) - 1 + self.z)
        coeffs[self.z :: 2] = s.coeffs
        return IntPolynomial(tuple(coeffs))


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

    def sign_of(self, q: IntPolynomial) -> int:
        """Exact sign of q evaluated at this algebraic number.

        The number is a root of q exactly when g = gcd(poly, q) changes
        sign across the interval.  Otherwise the answer is V(lo) - V(hi),
        V the sign variations of the remainder sequence of poly and
        poly' q: by the Sturm-Tarski theorem it sums sign q(x) over the
        roots x of poly in (lo, hi), and this number is the only one.  The
        sequence takes primitive parts and positive multiples of -rem, so
        it keeps every sign.  The zero q shares every root of poly.
        """
        lo, hi = self.lo, self.hi
        # The count alone gives 0 on a shared root too; the GCD test is kept
        # for speed: all 30 sign_of calls of classification and conjecture to
        # n = 7 meet a shared root, and without it they took 17.2-17.4 ms, not
        # 16.3-16.5 ms (min of 10 fresh interpreters x 4, 2 vCPU, Python 3.11).
        g = self.poly.gcd(q)
        if g.sign_at(lo) != g.sign_at(hi):
            return 0
        seq = self.poly.remainder_sequence(self.poly.derivative() * q)
        v_lo = _variations(seq, lo.numerator, lo.denominator)
        return v_lo - _variations(seq, hi.numerator, hi.denominator)

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

    def decimal_str(self, digits: int = 12) -> str:
        """Decimal expansion of the root, correctly rounded to ``digits`` places.

        Refined to width 10^-(digits + 2), the interval puts root * 10^digits
        in (q - 1/2, q + 1/2 + 1/100) for q the nearest integer to
        lo * 10^digits, so the root rounds to q or q + 1.  One comparison
        with the boundary (q + 1/2) / 10^digits between them decides; a root
        on it rounds away from zero.
        """
        if digits < 0:
            raise ValueError("negative digit count")
        scale = 10**digits
        r = self.refined(Fraction(1, 10 ** (digits + 2)))
        q = (2 * r.lo.numerator * scale + r.lo.denominator) // (2 * r.lo.denominator)
        side = r.compare_to_rational(Fraction(2 * q + 1, 2 * scale))
        if side == GT or (side == EQ and q >= 0):
            q += 1
        s = str(abs(q)).rjust(digits + 1, "0")
        head, tail = (s[:-digits], s[-digits:]) if digits else (s, "")
        return ("-" if q < 0 else "") + head + ("." + tail if tail else "")


@lru_cache(maxsize=4096)
def max_real_root(p: IntPolynomial) -> AlgebraicRoot:
    """The largest real root of p, its isolating interval refined to width 2^-16.

    Callers that need a narrower interval ask for it with ``refined``; the
    root's own questions refine no further.  Memoized by p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    counter = _RootCounter(p)
    sf = counter.squarefree_part()
    if sf.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    # p's own counter holds wherever p does not vanish, and sf, whose sign
    # picks each bisection point, vanishes exactly where p does
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


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot) -> int:
    """Exact order of two algebraic roots alpha, beta: LT (-1), EQ (0) or GT (+1).

    Equal roots (as the memo of ``max_real_root`` hands out) and disjoint
    intervals decide at once.  On an overlap, alpha at or below b.lo is LT
    and alpha at or above b.hi is GT.  Otherwise alpha lies inside b's
    interval, where b.poly has the one simple root beta: the sign of
    b.poly at alpha is 0 when alpha = beta, and its sign at b.hi exactly
    when alpha > beta.
    """
    if a == b:
        return EQ
    if a.hi <= b.lo:
        return LT
    if b.hi <= a.lo:
        return GT
    if a.compare_to_rational(b.lo) != GT:
        return LT
    if a.compare_to_rational(b.hi) != LT:
        return GT
    s = a.sign_of(b.poly)
    if s == 0:
        return EQ
    return GT if s == b.poly.sign_at(b.hi) else LT


def compare_max_root(p: IntPolynomial, root: AlgebraicRoot) -> int:
    """LT, EQ or GT as the largest real root of p is below, equal to, or
    above ``root``; a p with no real root counts as -infinity, so LT.

    Descartes' rule goes first: no sign variation in p(x + root.lo) means
    no root of p past root.lo < root, and the answer LT.  Any other count
    of variations proves nothing, so p's largest root is then isolated and
    compared.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if not _variations_past(p, root.lo):
        return LT
    try:
        top = max_real_root(p)
    except NoRealRootError:
        return LT
    return compare_roots(top, root)
