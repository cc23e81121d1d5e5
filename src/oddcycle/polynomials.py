"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored constant-term first.  All arithmetic is exact and
stays in integers: the sign at a rational point a/d is the sign of the
homogenised value sum c_k a^k d^(n-k), and root bounds are powers of two.
Everything downstream (matching polynomials, Sturm chains, characteristic
polynomials) is built on this type.

Euclid's algorithm runs in one loop, ``remainder_sequence``; it uses
pseudo-remainders with sign tracking to stay in integer arithmetic.  Sturm
chains, ``gcd`` and ``squarefree_decomposition`` are read off it.

Matching polynomials and the alternating forms of skew characteristic
polynomials have a single parity: p(x) = x^k Q1(x^2) with Q1(0) != 0.  Each
polynomial finds that split once, on first use, and keeps it
(``parity_split``); a sign at a/d is then sign(a)^k times the sign of Q1
at (a^2, d^2), in half as many Horner steps.  ``roots.py`` reads the same
split for its root counts and squarefree parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd as _int_gcd


def _normalize(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _ceil_log2_ratio(a: int, b: int) -> int:
    """Least integer g with a <= b * 2^g, for positive a and b."""
    g = a.bit_length() - b.bit_length()  # the answer is g or g + 1
    return g + (a > b << g if g >= 0 else a << -g > b)


@dataclass(frozen=True)
class IntPolynomial:
    """Immutable integer polynomial; ``coeffs[k]`` is the coefficient of x^k."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def from_coeffs(coeffs) -> IntPolynomial:
        return IntPolynomial(_normalize(tuple(int(c) for c in coeffs)))

    @staticmethod
    def one() -> IntPolynomial:
        return IntPolynomial((1,))

    # ------------------------------------------------------------------ basics

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(_normalize(tuple(out)))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(_normalize(tuple(out)))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> IntPolynomial:
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial(())
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> IntPolynomial:
        return IntPolynomial(
            _normalize(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))
        )

    # -------------------------------------------------------------- evaluation

    def sign_at(self, value: Fraction | int) -> int:
        """Sign of the polynomial at a rational point, via integer arithmetic."""
        if isinstance(value, int):
            return self.sign_at_ratio(value, 1)
        return self.sign_at_ratio(value.numerator, value.denominator)

    @cached_property
    def parity_split(self) -> tuple[int, IntPolynomial] | None:
        """(k, Q1) with self = x^k Q1(x^2) and Q1(0) != 0, or None when both
        odd and even powers appear.  The zero polynomial splits as (0, 0)."""
        coeffs = self.coeffs
        k = next((i for i, c in enumerate(coeffs) if c), 0)
        if any(coeffs[k + 1 :: 2]):
            return None
        return k, IntPolynomial(coeffs[k::2])

    def sign_at_ratio(self, num: int, den: int) -> int:
        """Sign of the polynomial at num/den for den > 0, by Horner's rule on
        the homogenised form sum c_k num^k den^(n-k).  The point (1, 0) is
        +infinity: the form reduces to the leading coefficient there.  For
        self = x^k Q1(x^2) the form is num^k times Q1's form at (num^2, den^2)."""
        coeffs = self.coeffs
        flip = False
        split = self.parity_split
        if split is not None:
            k, q1 = split
            if k:
                if not num:
                    return 0
                flip = k % 2 == 1 and num < 0
            coeffs = q1.coeffs
            num, den = num * num, den * den
        acc = 0
        pw = 1
        for c in reversed(coeffs):
            acc = acc * num + c * pw
            pw *= den
        s = (acc > 0) - (acc < 0)
        return -s if flip else s

    def root_bound(self) -> Fraction:
        """A power of two B with every real root strictly inside (-B, B).

        With 2^f the least power of two such that |a_{n-k}| <= |a_n| 2^(kf)
        for every k >= 1, Fujiwara's bound 2 max_k |a_{n-k}/a_n|^(1/k) is at
        most 2^(f+1); B = 2^(f+2) lies strictly beyond it.  Every bisection
        midpoint of (-B, B) is then dyadic.
        """
        lead = abs(self.leading)
        exps = [
            -(-_ceil_log2_ratio(abs(c), lead) // k)
            for k, c in enumerate(reversed(self.coeffs[:-1]), start=1)
            if c
        ]
        if not exps:
            return Fraction(1)
        return Fraction(2) ** (max(exps) + 2)

    # ------------------------------------------------------- integer GCD tools

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
            if g == 1:
                break
        return g

    def primitive_part(self) -> IntPolynomial:
        """Divide out the (positive) content; the zero polynomial maps to itself."""
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def pseudo_rem(self, other: IntPolynomial) -> tuple[IntPolynomial, int]:
        """Pseudo-remainder of self by other.

        Returns (r, k) with lc(other)^k * self = q * other + r for some q,
        deg r < deg other.  k is the number of multiplier applications, so the
        true rational remainder is r / lc(other)^k.
        """
        if other.is_zero():
            raise ZeroDivisionError("pseudo-remainder by zero polynomial")
        r = list(self.coeffs)
        d = len(other.coeffs) - 1
        lc = other.coeffs[-1]
        oc = other.coeffs
        k = 0
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k += 1
            top = r[-1]
            shift = len(r) - 1 - d
            for i in range(len(r)):
                r[i] *= lc
            for i, c in enumerate(oc):
                r[shift + i] -= top * c
            r.pop()
        return IntPolynomial(_normalize(tuple(r))), k

    def exact_div(self, other: IntPolynomial) -> IntPolynomial:
        """Exact polynomial division; raises ValueError unless the quotient
        is an integer polynomial with zero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        rem = list(self.coeffs)
        d = other.degree
        lc = other.coeffs[-1]
        quot = [0] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            q, r = divmod(rem[top], lc)
            if r:
                raise ValueError("polynomial division is not exact over the integers")
            if q:
                quot[top - d] = q
                for i, c in enumerate(other.coeffs):
                    rem[top - d + i] -= q * c
        if any(rem[:d]):
            raise ValueError("polynomial division is not exact")
        return IntPolynomial(_normalize(tuple(quot)))

    def remainder_sequence(self, other: IntPolynomial) -> tuple[IntPolynomial, ...]:
        """The primitive parts of self and other, then the primitive part of
        a positive multiple of -rem of the last two, until a remainder is 0.

        For the pseudo-remainder (r, k), rem = r / lc^k, so -r is such a
        multiple unless lc < 0 and k is odd.  The last member is the GCD up
        to sign; with other = self' the sequence is the Sturm chain of self.
        """
        f, g = self.primitive_part(), other.primitive_part()
        seq = [f]
        while not g.is_zero():
            seq.append(g)
            r, k = f.pseudo_rem(g)
            f, g = g, (r if g.leading < 0 and k % 2 == 1 else -r).primitive_part()
        return tuple(seq)

    def gcd(self, other: IntPolynomial) -> IntPolynomial:
        """Primitive GCD with positive leading coefficient: the last member of
        the remainder sequence, taken with the higher degree first."""
        a, b = (self, other) if self.degree >= other.degree else (other, self)
        g = a.remainder_sequence(b)[-1]
        return -g if g.leading < 0 else g

    def squarefree_decomposition(self) -> list[tuple[IntPolynomial, int]]:
        """[(f_j, j)] with self = c * prod f_j^j, each f_j squarefree.

        With G_0 the primitive part of self and G_j = gcd(G_(j-1), G_(j-1)'),
        S_j = G_(j-1) / G_j is the product of the factors of multiplicity at
        least j, so the multiplicity-j factor is S_j / S_(j+1), with S = 1
        past the last G of positive degree.  Only factors with positive
        degree are returned, primitive with positive leading coefficients
        (the constant c is dropped).
        """
        g = self.primitive_part()
        if g.leading < 0:
            g = -g
        s = []
        while g.degree > 0:
            nxt = g.gcd(g.derivative())
            s.append(g.exact_div(nxt))
            g = nxt
        s.append(IntPolynomial.one())
        return [
            (a.exact_div(b), j)
            for j, (a, b) in enumerate(zip(s, s[1:]), start=1)
            if a.degree > b.degree
        ]

    # -------------------------------------------------------------- formatting

    def pretty(self) -> str:
        """Human form, highest power first, e.g. 'x^5 - 6x^3 + 5x'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xpow = "x" if k == 1 else f"x^{k}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.pretty()
