from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddcycle import (
    EQ,
    GT,
    LT,
    AlgebraicRoot,
    Graph,
    IntPolynomial,
    NoRealRootError,
    compare_max_root,
    compare_roots,
    complete_graph,
    cycle_graph,
    is_odd_cycle_graph,
    matching_polynomial,
    max_matching_root,
    max_real_root,
    path_graph,
)
from oddcycle import roots as roots_module
from oddcycle.roots import _RootCounter, _variations_past

from oracles import (
    _roots_past_reference,
    gcd_reference,
    induced,
    max_real_root_reference,
    refined_reference,
    sign_reference,
    squarefree_reference,
    sturm_root_count,
    value_at,
)
from strategies import from_roots, graphs, parity_points, parity_polys, rationals, seeded_cactus


X2_MINUS_2 = IntPolynomial.from_coeffs([-2, 0, 1])
X2_MINUS_3 = IntPolynomial.from_coeffs([-3, 0, 1])
X2_MINUS_5 = IntPolynomial.from_coeffs([-5, 0, 1])
# sqrt(2) and sqrt(3) as roots of (x^2 - 2)(x^2 - 3), on intervals that
# overlap in (3/2, 8/5), where neither root lies
SQRT2_OF_BOTH = AlgebraicRoot(X2_MINUS_2 * X2_MINUS_3, Fraction(1), Fraction(8, 5))
SQRT3_OF_BOTH = AlgebraicRoot(X2_MINUS_2 * X2_MINUS_3, Fraction(3, 2), Fraction(2))
# sqrt(2) and sqrt(3) on either side of 3/2
SQRT2_LOW = AlgebraicRoot(X2_MINUS_2, Fraction(1), Fraction(3, 2))
SQRT3_HIGH = AlgebraicRoot(X2_MINUS_3, Fraction(3, 2), Fraction(2))


def algebraic_poly(roots, k) -> IntPolynomial:
    """Integer roots times x^2 - k, so sqrt(k) brings irrational roots in."""
    return from_roots(roots) * IntPolynomial.from_coeffs([-k, 0, 1])


root_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
algebraic_polys = st.builds(algebraic_poly, root_lists, st.integers(1, 30))
random_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=9).map(IntPolynomial.from_coeffs)
# dyadic and non-dyadic widths, on both sides of the 2^-16 that max_real_root hands out
WIDTH = Fraction(1, 2**16)
widths = st.sampled_from(
    [Fraction(1, 2**40), Fraction(1, 2**16), Fraction(1, 3), Fraction(7, 10**9), Fraction(5, 2)]
)


def test_sturm_counts():
    assert sturm_root_count(X2_MINUS_2, 0, 2) == 1
    assert sturm_root_count(X2_MINUS_2, -2, 2) == 2
    assert sturm_root_count(X2_MINUS_2, Fraction(7, 5), Fraction(3, 2)) == 1
    assert sturm_root_count(from_roots([-1, 0, 1]), -2, 2) == 3
    # repeated roots are counted once
    assert sturm_root_count(from_roots([1, 1]), 0, 2) == 1
    assert sturm_root_count(from_roots([1, 1, 1]), 0, 2) == 1
    assert sturm_root_count(IntPolynomial.from_coeffs([1, 0, 1]), -9, 9) == 0


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5), st.integers(1, 3))
def test_max_real_root_of_integer_products(roots, rep):
    p = from_roots(roots * rep)
    root = max_real_root(p)
    assert root.compare_to_rational(max(roots)) == EQ
    assert abs(float(root.decimal_str(15)) - max(roots)) < 1e-12


def test_max_real_root_known_irrationals():
    assert max_real_root(X2_MINUS_2).decimal_str(10) == "1.4142135624"
    assert max_real_root(X2_MINUS_3).decimal_str(10) == "1.7320508076"
    golden = IntPolynomial.from_coeffs([-1, -1, 1])
    assert max_real_root(golden).decimal_str(10) == "1.6180339887"


def test_max_real_root_errors():
    with pytest.raises(ValueError):
        max_real_root(IntPolynomial())
    with pytest.raises(NoRealRootError):
        max_real_root(IntPolynomial.from_coeffs([5]))
    with pytest.raises(NoRealRootError):
        max_real_root(IntPolynomial.from_coeffs([1, 0, 1]))


def test_refinement_keeps_the_root():
    root = max_real_root(X2_MINUS_2)
    tight = root.refined(Fraction(1, 10**12))
    assert tight.hi - tight.lo <= Fraction(1, 10**12)
    # the interval still brackets the sign change of x^2 - 2
    assert X2_MINUS_2.sign_at(tight.lo) < 0 < X2_MINUS_2.sign_at(tight.hi)
    half = root.refined((root.hi - root.lo) / 2)
    assert half.hi - half.lo <= (root.hi - root.lo) / 2
    assert half.compare_to_rational(1) == GT


def test_refined_rejects_a_width_that_is_not_positive():
    root = max_real_root(X2_MINUS_2)
    for eps in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            root.refined(eps)


def test_sign_of():
    sqrt2 = max_real_root(X2_MINUS_2)
    assert sqrt2.sign_of(X2_MINUS_2) == 0
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([-1, 0, 1])) == 1
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([-2, 1])) == -1
    # q sharing the root through a factor
    assert sqrt2.sign_of(X2_MINUS_2 * IntPolynomial.from_coeffs([-5, 1])) == 0
    assert sqrt2.sign_of(IntPolynomial()) == 0
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([7])) == 1
    # a factor shared with the defining polynomial is not a shared root:
    # x^2 - 3 vanishes at sqrt(3), outside (1, 8/5)
    assert SQRT2_OF_BOTH.sign_of(X2_MINUS_3) == -1
    assert SQRT2_OF_BOTH.sign_of(X2_MINUS_2) == 0


def test_compare_to_rational():
    sqrt2 = max_real_root(X2_MINUS_2)
    assert sqrt2.compare_to_rational(1) == GT
    assert sqrt2.compare_to_rational(2) == LT
    assert sqrt2.compare_to_rational(Fraction(141421, 100000)) == GT
    assert sqrt2.compare_to_rational(Fraction(141422, 100000)) == LT
    three = max_real_root(from_roots([3]))
    assert three.compare_to_rational(3) == EQ


def test_compare_roots():
    sqrt2 = max_real_root(X2_MINUS_2)
    sqrt3 = max_real_root(X2_MINUS_3)
    # the same algebraic number reached through a different polynomial
    sqrt2_again = max_real_root(IntPolynomial.from_coeffs([4, 0, -4, 0, 1]))
    assert compare_roots(sqrt2, sqrt3) == LT
    assert compare_roots(sqrt3, sqrt2) == GT
    assert compare_roots(sqrt2, sqrt2_again) == EQ
    two = max_real_root(from_roots([2]))
    assert compare_roots(two, sqrt3) == GT
    # two roots of one polynomial are not equal for sharing it
    minus_sqrt2 = AlgebraicRoot(X2_MINUS_2, Fraction(-2), Fraction(-1))
    assert compare_roots(minus_sqrt2, sqrt2) == LT
    assert compare_roots(sqrt2, minus_sqrt2) == GT
    # nor two roots of one polynomial on overlapping intervals: the GCD
    # changes sign across each interval but not across their intersection
    assert compare_roots(SQRT2_OF_BOTH, SQRT3_OF_BOTH) == LT
    assert compare_roots(SQRT3_OF_BOTH, SQRT2_OF_BOTH) == GT
    assert compare_roots(sqrt2, SQRT2_OF_BOTH) == compare_roots(SQRT2_OF_BOTH, sqrt2) == EQ


def test_root_questions_build_no_root_counter_and_narrow_no_interval(monkeypatch):
    sqrt2 = max_real_root(X2_MINUS_2)
    wide = {
        name: AlgebraicRoot(poly, Fraction(1), Fraction(2))
        for name, poly in (
            ("sqrt2", X2_MINUS_2),
            ("sqrt3", X2_MINUS_3),
            ("cbrt2", IntPolynomial.from_coeffs([-2, 0, 0, 1])),
            ("sqrt2 of (x^2 - 2)(x - 3)", X2_MINUS_2 * from_roots([3])),
        )
    }

    def unreachable(*args):
        raise AssertionError("_RootCounter built or an interval narrowed")

    monkeypatch.setattr(roots_module, "_RootCounter", unreachable)
    monkeypatch.setattr(AlgebraicRoot, "refined", unreachable)
    # on the root: one GCD sign test
    assert sqrt2.sign_of(X2_MINUS_2 * from_roots([5])) == 0
    assert SQRT3_OF_BOTH.sign_of(X2_MINUS_3 * X2_MINUS_5) == 0
    # off the root: one Sturm-Tarski count
    assert sqrt2.sign_of(from_roots([1])) == 1
    assert sqrt2.sign_of(X2_MINUS_3) == -1
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([-4])) == -1
    assert SQRT2_OF_BOTH.sign_of(X2_MINUS_3) == -1
    assert compare_roots(SQRT2_OF_BOTH, SQRT3_OF_BOTH) == LT
    assert compare_roots(sqrt2, SQRT2_OF_BOTH) == EQ
    # different polynomials on overlapping intervals: placed against the
    # other interval's ends, or inside it by the sign of its polynomial
    assert compare_roots(wide["sqrt2"], wide["sqrt3"]) == LT
    assert compare_roots(wide["sqrt3"], wide["sqrt2"]) == GT
    assert compare_roots(wide["cbrt2"], wide["sqrt2"]) == LT
    assert compare_roots(wide["sqrt2"], wide["cbrt2"]) == GT
    assert compare_roots(wide["sqrt2"], wide["sqrt2 of (x^2 - 2)(x - 3)"]) == EQ
    assert compare_roots(wide["sqrt2 of (x^2 - 2)(x - 3)"], wide["sqrt2"]) == EQ
    assert compare_roots(wide["sqrt2"], SQRT3_HIGH) == LT
    assert compare_roots(SQRT3_HIGH, wide["sqrt2"]) == GT
    assert compare_roots(wide["sqrt3"], SQRT2_LOW) == GT
    assert compare_roots(SQRT2_LOW, wide["sqrt3"]) == LT


def test_compare_roots_settles_a_root_on_the_other_end_without_a_sign_test(monkeypatch):
    three_halves_poly = from_roots([1]) * IntPolynomial.from_coeffs([-3, 2])
    three_halves = AlgebraicRoot(three_halves_poly, Fraction(5, 4), Fraction(2))

    def unreachable(self, q):
        raise AssertionError("sign_of called")

    monkeypatch.setattr(AlgebraicRoot, "sign_of", unreachable)
    # 3/2 is SQRT3_HIGH.lo and SQRT2_LOW.hi
    assert compare_roots(three_halves, SQRT3_HIGH) == LT
    assert compare_roots(three_halves, SQRT2_LOW) == GT


def test_compare_roots_takes_the_gcd_only_once_the_intervals_overlap(monkeypatch):
    sqrt2 = max_real_root(X2_MINUS_2)
    sqrt3 = max_real_root(X2_MINUS_3)
    assert sqrt2.hi <= sqrt3.lo
    calls = []
    gcd = IntPolynomial.gcd

    def counting(self, other):
        calls.append(other)
        return gcd(self, other)

    monkeypatch.setattr(IntPolynomial, "gcd", counting)
    assert compare_roots(sqrt2, sqrt3) == LT
    assert compare_roots(sqrt3, sqrt2) == GT
    assert calls == []
    # an equal root, from another polynomial with the same squarefree part,
    # is EQ without one
    sqrt2_again = max_real_root(IntPolynomial.from_coeffs([4, 0, -4, 0, 1]))
    assert sqrt2_again == sqrt2 and sqrt2_again is not sqrt2
    assert compare_roots(sqrt2, sqrt2_again) == EQ
    assert calls == []
    assert compare_roots(sqrt2, AlgebraicRoot(X2_MINUS_2, Fraction(1), Fraction(2))) == EQ
    assert calls


NON_SQUARES = [a for a in range(2, 61) if isqrt(a) ** 2 != a]


def signed_sqrt(s: int, a: int, poly: IntPolynomial) -> AlgebraicRoot:
    """s * sqrt(a) as a root of poly, in the unit interval between the
    integers next to it; roots with equal floors have equal intervals."""
    f = isqrt(a)
    lo, hi = (f, f + 1) if s > 0 else (-f - 1, -f)
    return AlgebraicRoot(poly, Fraction(lo), Fraction(hi))


def sqrt_order(s: int, a: int, v: Fraction) -> int:
    """Order of s * sqrt(a) against the rational v, in integer arithmetic."""
    if v == 0 or (v > 0) != (s > 0):
        return s
    d = a * v.denominator**2 - v.numerator**2
    return s * ((d > 0) - (d < 0))


def test_root_order_on_overlapping_intervals_matches_integer_arithmetic():
    # every +-sqrt(a), a non-square in 2..60, twice: as a root of x^2 - a and
    # of (x^2 - a)(x - c) with c an integer outside its interval
    roots = []
    for a in NON_SQUARES:
        square = IntPolynomial.from_coeffs([-a, 0, 1])
        for s in (1, -1):
            c = s * (isqrt(a) + 2)
            for poly in (square, square * IntPolynomial.from_coeffs([-c, 1])):
                roots.append((s, a, signed_sqrt(s, a, poly)))
    for s1, a1, r1 in roots:
        for s2, a2, r2 in roots:
            want = s1 if s1 != s2 else s1 * ((a1 > a2) - (a1 < a2))
            assert compare_roots(r1, r2) == want
    for s, a, r in roots:
        f = isqrt(a)
        # inside the interval, outside it and at both of its ends
        for q in (1, 2, 3, 7):
            for p in range(q * (f - 1), q * (f + 2) + 1):
                v = Fraction(s * p, q)
                assert r.compare_to_rational(v) == sqrt_order(s, a, v)
        # x^2 (x^2 - b) has the sign of a - b at +-sqrt(a), where x^2 > 0
        for b in NON_SQUARES:
            q = IntPolynomial.from_coeffs([0, 0, -b, 0, 1])
            assert r.sign_of(q) == (a > b) - (a < b)


constant_polys = st.integers(-5, 5).map(lambda c: IntPolynomial.from_coeffs([c]))
parity_ps = parity_polys().map(lambda poly: poly.p)


@given(
    random_polys | algebraic_polys | parity_ps,
    random_polys | parity_ps | constant_polys | st.just(IntPolynomial()),
    st.booleans(),
)
def test_sign_of_matches_the_fraction_oracle(p, q, times_p):
    try:
        root = max_real_root(p)
    except ValueError:
        return
    # times p, so that q vanishes at the root, as often to a higher order
    if times_p:
        q = q * p
    assert root.sign_of(q) == sign_reference(root.poly, root.lo, root.hi, q)


def test_compare_max_root_tries_descartes_first(cold_memos, monkeypatch):
    sqrt2 = max_real_root(X2_MINUS_2)
    p = X2_MINUS_2 * from_roots([3])
    built = []
    counter = roots_module._RootCounter

    def recording(q):
        built.append(q)
        return counter(q)

    monkeypatch.setattr(roots_module, "_RootCounter", recording)
    # one counter, to isolate p's largest root 3; the order against sqrt2
    # needs none
    assert compare_max_root(p, sqrt2) == GT
    assert built == [p]
    # Descartes' rule at sqrt2.lo goes first, and only its LT is trusted.
    # x^2 - 4x + 5 has no real root, but two sign variations at any a < 2:
    # isolation builds p's counter and finds no root
    built.clear()
    p = IntPolynomial.from_coeffs([5, -4, 1])
    assert _variations_past(p, Fraction(0)) == _variations_past(p, sqrt2.lo) == 2
    assert compare_max_root(p, sqrt2) == LT
    assert built == [p]
    # no variation: LT with no counter at all
    built.clear()
    q = from_roots([-3, 1]) * IntPolynomial.from_coeffs([1, 0, 1])
    assert _variations_past(q, sqrt2.lo) == 0
    assert compare_max_root(q, sqrt2) == LT
    assert built == []
    # one variation at sqrt2.lo and none at sqrt2.hi: a test taken at the
    # upper end would miss the root itself
    assert _variations_past(X2_MINUS_2, sqrt2.lo) == 1
    assert _variations_past(X2_MINUS_2, sqrt2.hi) == 0
    assert compare_max_root(X2_MINUS_2, sqrt2) == EQ


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4), st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_compare_roots_matches_integer_order(r1, r2):
    a = max_real_root(from_roots(r1))
    b = max_real_root(from_roots(r2))
    want = (max(r1) > max(r2)) - (max(r1) < max(r2))
    assert compare_roots(a, b) == want


@given(algebraic_polys, algebraic_polys, algebraic_polys)
def test_compare_roots_is_antisymmetric_and_transitive(p1, p2, p3):
    rs = [max_real_root(p) for p in (p1, p2, p3)]
    c = {(i, j): compare_roots(rs[i], rs[j]) for i in range(3) for j in range(3)}
    for i in range(3):
        assert c[i, i] == EQ
        for j in range(3):
            assert c[i, j] == -c[j, i]
            for k in range(3):
                if c[i, j] >= EQ and c[j, k] >= EQ:
                    assert c[i, k] == max(c[i, j], c[j, k])


@given(algebraic_polys, st.integers(1, 10**6))
def test_refined_interval_keeps_one_sign_change(p, denominator):
    # below the width max_real_root hands out, so refining has work to do
    eps = WIDTH / denominator
    root = max_real_root(p)
    tight = root.refined(eps)
    assert tight.hi - tight.lo <= eps
    assert root.lo <= tight.lo < tight.hi <= root.hi
    assert sturm_root_count(tight.poly, tight.lo, tight.hi) == 1
    assert tight.poly.sign_at(tight.lo) == -tight.poly.sign_at(tight.hi) != 0


@given(random_polys | algebraic_polys, widths)
def test_bisection_matches_fraction_oracle(p, eps):
    try:
        want = max_real_root_reference(p, WIDTH)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            max_real_root(p)
        return
    got = max_real_root(p)
    assert (got.lo, got.hi) == want
    if eps < WIDTH:
        tight = got.refined(eps)
        assert (tight.lo, tight.hi) == refined_reference(got.poly, *want, eps)
    # a bracket with thirds for ends, isolating the root nearest zero
    sf = squarefree_reference(p)
    for k in range(1, 64):
        lo, hi = Fraction(-k, 3), Fraction(k, 3)
        if value_at(sf, lo) and value_at(sf, hi) and sturm_root_count(sf, lo, hi) == 1:
            got = AlgebraicRoot(sf, lo, hi).refined(eps)
            assert (got.lo, got.hi) == refined_reference(sf, lo, hi, eps)
            break


def fraction_order(rs, k: int, v: Fraction) -> int:
    """Order of max(max(rs), sqrt(k)) against v, in Fraction arithmetic."""
    if max(rs) > v or v < 0 or v * v < k:
        return GT
    return EQ if v == max(rs) or v * v == k else LT


@given(st.lists(st.fractions(-6, 6, max_denominator=6), min_size=1, max_size=4), st.integers(0, 30))
def test_rational_comparisons_match_fraction_arithmetic(rs, k):
    # rational roots num/den from den x - num, and sqrt(k) from x^2 - k
    p = IntPolynomial.from_coeffs([-k, 0, 1])
    for r in rs:
        p = p * IntPolynomial.from_coeffs([-r.numerator, r.denominator])
    root = max_real_root(p)
    for v in [root.lo, root.hi, (root.lo + root.hi) / 2, *rs]:
        want = fraction_order(rs, k, v)
        assert root.compare_to_rational(v) == want
        assert root.sign_of(IntPolynomial.from_coeffs([-v.numerator, v.denominator])) == want


def test_compare_max_root():
    sqrt2 = max_real_root(X2_MINUS_2)
    p = from_roots([1, 2, 3])
    assert compare_max_root(p, sqrt2) == GT
    two = max_real_root(from_roots([2]))
    # a largest root at the root itself is EQ, one past it GT
    assert compare_max_root(p, two) == GT
    assert compare_max_root(from_roots([1, 2]), two) == EQ
    assert compare_max_root(from_roots([3, 3]), sqrt2) == GT
    assert compare_max_root(from_roots([1]), sqrt2) == LT
    assert compare_max_root(IntPolynomial.from_coeffs([7]), sqrt2) == LT
    assert compare_max_root(X2_MINUS_2, sqrt2) == EQ
    assert compare_max_root(X2_MINUS_3, sqrt2) == GT
    # no real root counts as -infinity, past Descartes' two variations
    assert compare_max_root(IntPolynomial.from_coeffs([5, -4, 1]), sqrt2) == LT
    with pytest.raises(ValueError):
        compare_max_root(IntPolynomial(), sqrt2)


# roots of integer products times x^2 - k, of degree at most 4
max_root_polys = st.builds(
    algebraic_poly, st.lists(st.integers(-6, 6), min_size=1, max_size=2), st.integers(1, 30)
)


@given(
    random_polys | algebraic_polys | parity_polys().map(lambda poly: poly.p),
    max_root_polys,
    st.integers(0, 2),
)
def test_compare_max_root_matches_the_fraction_oracle(p, q, power):
    root = max_real_root(q)
    # times the root's own polynomial, and its square, to reach EQ and
    # multiple roots
    for _ in range(power):
        p = p * root.poly
    if p.is_zero():
        with pytest.raises(ValueError):
            compare_max_root(p, root)
        return
    on_root, above = _roots_past_reference(root.poly, root.lo, root.hi, p)
    assert compare_max_root(p, root) == (GT if above else EQ if on_root else LT)


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """1 + max |c_k / c_n| over k < n, past the modulus of every root."""
    return 1 + Fraction(max(map(abs, p.coeffs[:-1]), default=0), abs(p.leading))


def roots_past(p: IntPolynomial, a: Fraction) -> int:
    """Real roots of p greater than a, counted with multiplicity, by Sturm
    counts in Fraction arithmetic over (a, B] with B a Cauchy bound.

    Factors den x - num at a = num/den are divided out first, so no count
    starts at a root.  A root of multiplicity j is then a root of the first
    j of p, gcd(p, p'), the GCD of that and its derivative, and so on.
    """
    at_a = IntPolynomial.from_coeffs([-a.numerator, a.denominator])
    while p.degree >= 1 and p.sign_at(a) == 0:
        p = p.exact_div(at_a)
    if p.degree < 1:
        return 0
    bound = cauchy_bound(p)
    count = 0
    while p.degree >= 1:
        if a < bound:
            count += sturm_root_count(p, a, bound)
        g = gcd_reference(p.coeffs, p.derivative().coeffs)
        scale = lcm(*(c.denominator for c in g))
        p = IntPolynomial.from_coeffs([c * scale for c in g])
    return count


@given(random_polys | algebraic_polys | parity_polys().map(lambda poly: poly.p), rationals)
def test_descartes_variations_bound_the_roots_past_a_point(p, a):
    # Descartes' rule of signs: an upper bound of the same parity
    v, r = _variations_past(p, a), roots_past(p, a)
    assert v >= r and (v - r) % 2 == 0


@given(st.lists(st.integers(-6, 6), max_size=6), rationals)
def test_descartes_variations_are_exact_on_real_rooted_products(roots, a):
    p = from_roots(roots)
    # and just below each root, where a wrong scale or shift shows first
    for b in {a, *(r - Fraction(1, 3) for r in roots)}:
        assert _variations_past(p, b) == sum(r > b for r in roots) == roots_past(p, b)


@given(graphs(), rationals)
def test_descartes_variations_are_exact_on_matching_polynomials(g, a):
    # every root of m(G) is real (Heilmann-Lieb), so the bound is attained
    p = matching_polynomial(g)
    assert _variations_past(p, a) == roots_past(p, a)


def test_decimal_str_edge_cases():
    sqrt2 = max_real_root(X2_MINUS_2)
    assert sqrt2.decimal_str(0) == "1"
    assert sqrt2.decimal_str(1) == "1.4"
    with pytest.raises(ValueError):
        sqrt2.decimal_str(-1)
    minus_two = max_real_root(from_roots([-2]))
    assert minus_two.decimal_str(2) == "-2.00"


def test_decimal_str_is_correctly_rounded_near_boundaries():
    # phi = 1.61803398874989... sits 1.05e-13 below a 10-digit boundary
    golden = max_real_root(IntPolynomial.from_coeffs([-1, -1, 1]))
    assert golden.decimal_str(10) == "1.6180339887"
    assert golden.decimal_str(13) == "1.6180339887499"
    # roots exactly on a boundary round away from zero
    assert max_real_root(IntPolynomial.from_coeffs([-3, 2])).decimal_str(0) == "2"
    assert max_real_root(IntPolynomial.from_coeffs([3, 2])).decimal_str(0) == "-2"
    assert max_real_root(IntPolynomial.from_coeffs([-3, 2])).decimal_str(1) == "1.5"


def rounded_reference(x: Fraction, digits: int) -> str:
    """x to ``digits`` places, ties rounded away from zero, in Fraction
    arithmetic; a value that rounds to 0 prints without a sign."""
    scale = 10**digits
    n = int(abs(x) * scale + Fraction(1, 2))
    whole, frac = divmod(n, scale)
    sign = "-" if x < 0 and n else ""
    return sign + str(whole) + (f".{frac:0{digits}d}" if digits else "")


def test_decimal_str_rounds_ties_away_from_zero():
    # every num/den in [-3, 3] on a rounding boundary at 0..4 digits, and
    # every one in (-1/2 * 10^-digits, 0), as the root of den x - num and
    # of (den x - num)(x^2 + 1)
    checked = 0
    for den in (1, 2, 4, 8, 20, 200):
        for num in range(-3 * den, 3 * den + 1):
            x = Fraction(num, den)
            for digits in range(5):
                scaled = 2 * x * 10**digits
                on_boundary = scaled.denominator == 1 and scaled.numerator % 2 == 1
                if not (on_boundary or -1 < scaled < 0):
                    continue
                linear = IntPolynomial.from_coeffs([-x.numerator, x.denominator])
                for p in (linear, linear * IntPolynomial.from_coeffs([1, 0, 1])):
                    assert max_real_root(p).decimal_str(digits) == rounded_reference(x, digits)
                checked += 1
    assert checked == 919


@pytest.mark.parametrize("seed", [24, 33, 34, 36, 37, 38])
def test_interlacing_and_heilmann_lieb_on_large_cacti(seed):
    """t(G - v) < t(G) at every v, by root interlacing on a connected G, and
    t(G) < 2 sqrt(max degree - 1) (Heilmann and Lieb), on relabelled random
    cacti of order 24..64.  These seeds put roots of degree up to 64 on
    overlapping intervals before compare_roots."""
    g = seeded_cactus(seed)
    t = max_matching_root(g)
    overlaps = 0
    for v in range(g.n):
        deleted = max_matching_root(induced(g, (w for w in range(g.n) if w != v)))
        overlaps += deleted.hi > t.lo
        assert compare_roots(deleted, t) == LT, v
        assert compare_roots(t, deleted) == GT, v
    assert overlaps
    top = max(g.degree(v) for v in range(g.n))
    bound = max_real_root(IntPolynomial.from_coeffs([-4 * (top - 1), 0, 1]))
    assert compare_roots(t, bound) == LT


def test_max_matching_root_of_graphs():
    assert max_matching_root(path_graph(2)).compare_to_rational(1) == EQ
    assert max_matching_root(Graph.empty(4)).compare_to_rational(0) == EQ
    assert max_matching_root(complete_graph(3)).decimal_str(8) == "1.73205081"
    # C4: t^2 = 2 + sqrt(2)
    t = max_matching_root(cycle_graph(4))
    assert t.decimal_str(8) == "1.84775907"
    sq = IntPolynomial.from_coeffs([2, 0, -4, 0, 1])
    assert t.sign_of(sq) == 0


def test_max_matching_root_of_long_cycle():
    # t(C_n) = 2 cos(pi / (2n)); 1.999378364002 for n = 63
    assert max_matching_root(cycle_graph(63)).decimal_str(12) == "1.999378364002"


def test_isolating_interval_invariants():
    root = max_real_root(from_roots([1, 2, 2, 5]))
    assert isinstance(root, AlgebraicRoot)
    # stored polynomial is squarefree with positive leading coefficient
    assert root.poly.gcd(root.poly.derivative()).degree == 0
    assert root.poly.leading > 0
    assert root.lo < root.hi
    assert sturm_root_count(root.poly, root.lo, root.hi) == 1


def test_max_real_root_builds_one_remainder_sequence(cold_memos, remainder_sequences, monkeypatch):
    def no_gcd(self, other):
        raise AssertionError("IntPolynomial.gcd called while isolating a root")

    monkeypatch.setattr(IntPolynomial, "gcd", no_gcd)
    # (x^2 - 2)^2 (x^2 - 3), a fresh single-parity polynomial
    max_real_root(X2_MINUS_2 * X2_MINUS_2 * X2_MINUS_3)
    # the Sturm chain of Q1 = (y - 2)^2 (y - 3), which also gives the
    # squarefree part
    q1 = (X2_MINUS_2 * X2_MINUS_2 * X2_MINUS_3).parity_split[1]
    assert remainder_sequences == [(q1, q1.derivative())]


@pytest.mark.parametrize(
    "p",
    [
        X2_MINUS_2 * X2_MINUS_2 * X2_MINUS_3,
        IntPolynomial.from_coeffs([0, 0, 0, 1]) * X2_MINUS_5 * X2_MINUS_5,
        from_roots([-2, 1, 1, 3, 3, 3]),
    ],
    ids=["square-times-simple", "x3-times-square", "mixed-parity"],
)
def test_max_real_root_of_a_non_squarefree_polynomial(cold_memos, p):
    got = max_real_root(p)
    sf = squarefree_reference(p)
    assert got.poly == sf and sf.degree < p.degree
    assert (got.lo, got.hi) == max_real_root_reference(p, WIDTH)
    assert sturm_root_count(sf, got.lo, got.hi) == 1
    assert sturm_root_count(sf, got.hi, sf.root_bound()) == 0


@given(parity_polys())
def test_parity_max_real_root_matches_fraction_oracle(poly):
    p = poly.p
    try:
        want = max_real_root_reference(p, WIDTH)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            max_real_root(p)
        return
    got = max_real_root(p)
    assert got.poly == squarefree_reference(p)
    assert (got.lo, got.hi) == want


def above(counter: _RootCounter, x: Fraction) -> int:
    return counter.above(x.numerator, x.denominator)


@given(st.data())
def test_parity_root_counts(data):
    poly = data.draw(parity_polys())
    lo, hi = sorted(data.draw(st.lists(parity_points(poly), min_size=2, max_size=2, unique=True)))
    p = poly.p
    # the chain of p counts the distinct roots in (lo, hi) when neither end is a root
    if value_at(p, lo) and value_at(p, hi):
        counter = _RootCounter(p)
        assert above(counter, lo) - above(counter, hi) == sturm_root_count(p, lo, hi)
    # the chain of a squarefree p counts those in (lo, hi] wherever the ends are
    sf = squarefree_reference(p)
    counter = _RootCounter(sf)
    assert above(counter, lo) - above(counter, hi) == poly.roots_in(lo, hi)
    assert above(counter, lo) == poly.roots_in(lo, p.root_bound())


def test_matching_roots_ask_for_chains_of_half_the_degree(cold_memos, remainder_sequences):
    # thirteen triangles in a row, then a path: a cactus of order 40
    edges = [e for i in range(0, 26, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
    edges += [(v, v + 1) for v in range(26, 39)]
    g = Graph.from_edges(40, edges)
    assert is_odd_cycle_graph(g)
    assert matching_polynomial(g).degree == 40
    max_matching_root(g).decimal_str(12)
    # the isolation's one Sturm chain; refining and rounding take signs only
    degrees = [f.degree for f, _ in remainder_sequences]
    assert degrees and max(degrees) <= 20
