from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oddcycle import IntPolynomial
from oddcycle.roots import _RootCounter

from oracles import gcd_reference, odd_part_reference, squarefree_reference, sturm_chain_reference
from strategies import from_roots, parity_points, parity_polys

coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=6)
polys = coeff_lists.map(IntPolynomial.from_coeffs)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
root_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=5)


def test_normalization_strips_trailing_zeros():
    assert IntPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial.from_coeffs([0, 0, 0]).is_zero()
    assert IntPolynomial.zero().degree == -1
    assert IntPolynomial.zero().leading == 0


def test_basic_constructors():
    assert IntPolynomial.one().coeffs == (1,)
    assert IntPolynomial.x().coeffs == (0, 1)
    assert IntPolynomial.from_coeffs([1, 2]).shifted(2).coeffs == (0, 0, 1, 2)
    assert IntPolynomial.from_coeffs([7, 0, 3]).derivative().coeffs == (0, 6)
    assert IntPolynomial.one().derivative().is_zero()


@given(polys, polys)
def test_addition_subtraction_inverse(a, b):
    assert (a + b) - b == a
    assert a - a == IntPolynomial.zero()
    assert -(-a) == a


@given(polys, polys, polys)
def test_multiplication_laws(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert 3 * a == a + a + a
    assert 0 * a == IntPolynomial.zero()


@given(polys, polys, st.integers(-4, 4))
def test_evaluation_is_ring_homomorphism(a, b, t):
    assert (a * b).evaluate(t) == a.evaluate(t) * b.evaluate(t)
    assert (a + b).evaluate(t) == a.evaluate(t) + b.evaluate(t)


@given(polys, st.fractions(min_value=-4, max_value=4, max_denominator=7))
def test_sign_at_matches_evaluation(p, t):
    val = p.evaluate(t)
    assert p.sign_at(t) == (val > 0) - (val < 0)
    # an unreduced numerator and denominator give the same sign
    assert p.sign_at_ratio(6 * t.numerator, 6 * t.denominator) == (val > 0) - (val < 0)


def test_parity_split():
    # x^3 - x = x (y - 1) at y = x^2
    assert IntPolynomial.from_coeffs([0, -1, 0, 1]).parity_split == (1, IntPolynomial((-1, 1)))
    assert IntPolynomial.from_coeffs([2, 0, 3]).parity_split == (0, IntPolynomial((2, 3)))
    # every power of x comes out: x^4 = x^4 * 1, and x^5 - x^3 = x^3 (y - 1)
    assert IntPolynomial.from_coeffs([0, 0, 0, 0, 1]).parity_split == (4, IntPolynomial((1,)))
    assert IntPolynomial.from_coeffs([0, 0, 0, -1, 0, 1]).parity_split == (3, IntPolynomial((-1, 1)))
    assert IntPolynomial.from_coeffs([0, 0, 5, 0, 0, 0, 1]).parity_split == (2, IntPolynomial((5, 0, 1)))
    assert IntPolynomial.from_coeffs([7]).parity_split == (0, IntPolynomial((7,)))
    assert IntPolynomial.zero().parity_split == (0, IntPolynomial.zero())
    assert IntPolynomial.from_coeffs([1, 1]).parity_split is None
    assert IntPolynomial.from_coeffs([1, 0, 0, 1]).parity_split is None
    assert IntPolynomial.from_coeffs([0, 0, 1, 1]).parity_split is None


@given(st.data())
def test_sign_at_ratio_on_the_parity_path(data):
    poly = data.draw(parity_polys())
    t = data.draw(parity_points(poly))
    p = poly.p
    assert p.parity_split is not None
    for v in (t, -t, Fraction(0)):
        val = p.evaluate(v)
        assert p.sign_at_ratio(v.numerator, v.denominator) == (val > 0) - (val < 0)
        assert p.sign_at_ratio(3 * v.numerator, 3 * v.denominator) == (val > 0) - (val < 0)
        assert (-p).sign_at(v) == (val < 0) - (val > 0)


@given(parity_polys())
def test_squarefree_part_on_the_parity_path(poly):
    want = squarefree_reference(poly.p)
    assert _RootCounter(poly.p).squarefree_part().coeffs == want.coeffs
    assert _RootCounter(-poly.p).squarefree_part().coeffs == want.coeffs


@given(nonzero_polys)
def test_sign_at_infinity(p):
    big = p.root_bound()
    lead = (p.leading > 0) - (p.leading < 0)
    assert p.sign_at(big) == lead
    assert p.sign_at(-big) == (-lead if p.degree % 2 else lead)
    assert p.sign_at_ratio(1, 0) == lead


@given(nonzero_polys.filter(lambda p: any(p.coeffs[:-1])))
def test_root_bound_is_the_least_fujiwara_power_of_two(p):
    bound = p.root_bound()
    e = bound.numerator.bit_length() - bound.denominator.bit_length()
    assert bound == Fraction(2) ** e
    n, lead = p.degree, abs(p.leading)

    def fits(f):  # |a_{n-k}| <= |a_n| 2^(kf) for every k >= 1
        return all(abs(p.coeffs[n - k]) <= lead * Fraction(2) ** (k * f) for k in range(1, n + 1))

    assert fits(e - 2) and not fits(e - 3)


@given(root_lists)
def test_cauchy_bound_contains_roots(roots):
    p = from_roots(roots)
    bound = p.root_bound()
    assert all(-bound < r < bound for r in roots)


@given(polys, nonzero_polys)
def test_pseudo_remainder_contract(a, b):
    r, k = a.pseudo_rem(b)
    assert r.degree < b.degree
    # lc(b)^k * a - r must be an exact multiple of b
    scaled = (b.leading**k) * a - r
    if not scaled.is_zero():
        q = scaled.exact_div(b)
        assert q * b == scaled


@given(polys, nonzero_polys)
def test_exact_division_roundtrip(a, b):
    assert (a * b).exact_div(b) == a


def test_exact_division_rejects_inexact():
    with pytest.raises(ValueError):
        IntPolynomial.from_coeffs([1, 0, 1]).exact_div(IntPolynomial.from_coeffs([1, 1]))
    with pytest.raises(ZeroDivisionError):
        IntPolynomial.one().exact_div(IntPolynomial.zero())


def test_exact_division_rejects_non_integer_quotient():
    # x / 2x is exact over Q, but its quotient 1/2 is not an integer polynomial
    with pytest.raises(ValueError):
        IntPolynomial.from_coeffs([0, 1]).exact_div(IntPolynomial.from_coeffs([0, 2]))
    with pytest.raises(ValueError):
        IntPolynomial.from_coeffs([2, 3]).exact_div(IntPolynomial.from_coeffs([2, 2]))


def _monic_fractions(p: IntPolynomial) -> tuple[Fraction, ...]:
    if p.is_zero():
        return ()
    lead = p.leading
    return tuple(Fraction(c, lead) for c in p.coeffs)


@given(polys, polys)
def test_gcd_matches_rational_euclid(a, b):
    got = a.gcd(b)
    want = gcd_reference(a.coeffs, b.coeffs)
    assert _monic_fractions(got) == want
    if not got.is_zero():
        assert got.leading > 0
        assert got.content() in (0, 1)


@given(root_lists, st.lists(st.integers(1, 3), min_size=1, max_size=5), st.sampled_from([1, -2, 3]))
def test_squarefree_part_from_known_factorization(roots, mults, scale):
    mults = (mults * len(roots))[: len(roots)]
    p = IntPolynomial.one()
    for r, e in zip(roots, mults):
        p = p * from_roots([r] * e)
    p = scale * p
    assert _RootCounter(p).squarefree_part() == from_roots(sorted(set(roots)))
    # the multiplicity of r is the sum of the e drawn with it
    mult = {}
    for r, e in zip(roots, mults):
        mult[r] = mult.get(r, 0) + e
    want = [
        (from_roots([r for r in sorted(mult) if mult[r] == j]), j)
        for j in sorted(set(mult.values()))
    ]
    assert p.squarefree_decomposition() == want
    assert odd_part_reference(p) == from_roots([r for r in sorted(mult) if mult[r] % 2])


@given(nonzero_polys | parity_polys().map(lambda poly: poly.p))
# x^4 + x^2: the third member, -x^2, has a negative leading coefficient, and
# the next pseudo-remainder takes one step, so its sign is flipped back
@example(IntPolynomial.from_coeffs([0, 0, 1, 0, 1]))
def test_remainder_sequence_is_the_fraction_sturm_chain(p):
    got = p.remainder_sequence(p.derivative())
    want = sturm_chain_reference(p.coeffs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # a is a positive multiple of b
        assert a * b.leading == b * a.leading
        assert a.leading * b.leading > 0


@given(nonzero_polys.filter(lambda p: p.degree >= 1))
def test_squarefree_decomposition_reconstructs(p):
    parts = p.squarefree_decomposition()
    rebuilt = IntPolynomial.one()
    for f, mult in parts:
        assert f.leading > 0
        assert f.gcd(f.derivative()).degree == 0
        for _ in range(mult):
            rebuilt = rebuilt * f
    target = p.primitive_part()
    if target.leading < 0:
        target = -target
    assert rebuilt == target
    # distinct parts share no roots
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert parts[i][0].gcd(parts[j][0]).degree == 0


def test_content_and_primitive_part():
    p = IntPolynomial.from_coeffs([6, -9, 12])
    assert p.content() == 3
    assert p.primitive_part().coeffs == (2, -3, 4)
    assert IntPolynomial.zero().primitive_part().is_zero()


def test_pretty_forms():
    assert IntPolynomial.from_coeffs([0, 5, 0, -6, 0, 1]).pretty() == "x^5 - 6x^3 + 5x"
    assert IntPolynomial.from_coeffs([2, 0, 1]).pretty() == "x^2 + 2"
    assert IntPolynomial.from_coeffs([-1]).pretty() == "-1"
    assert IntPolynomial.from_coeffs([0, -1]).pretty() == "-x"
    assert IntPolynomial.from_coeffs([1, 1]).pretty() == "x + 1"
    assert IntPolynomial.zero().pretty() == "0"
    assert str(IntPolynomial.x()) == "x"

