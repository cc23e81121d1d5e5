from fractions import Fraction

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
    compare_roots,
    complete_graph,
    count_roots_above,
    count_roots_from,
    cycle_graph,
    max_matching_root,
    max_real_root,
    path_graph,
)

from oracles import max_real_root_reference, refined_reference, sturm_root_count


def from_roots(roots) -> IntPolynomial:
    p = IntPolynomial.one()
    for r in roots:
        p = p * IntPolynomial.from_coeffs([-r, 1])
    return p


X2_MINUS_2 = IntPolynomial.from_coeffs([-2, 0, 1])
X2_MINUS_3 = IntPolynomial.from_coeffs([-3, 0, 1])


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
    assert abs(root.to_float() - max(roots)) < 1e-12


def test_max_real_root_known_irrationals():
    assert max_real_root(X2_MINUS_2).decimal_str(10) == "1.4142135624"
    assert max_real_root(X2_MINUS_3).decimal_str(10) == "1.7320508076"
    golden = IntPolynomial.from_coeffs([-1, -1, 1])
    assert max_real_root(golden).decimal_str(10) == "1.6180339887"


def test_max_real_root_errors():
    with pytest.raises(ValueError):
        max_real_root(IntPolynomial.zero())
    with pytest.raises(NoRealRootError):
        max_real_root(IntPolynomial.from_coeffs([5]))
    with pytest.raises(NoRealRootError):
        max_real_root(IntPolynomial.from_coeffs([1, 0, 1]))


def test_refinement_keeps_the_root():
    root = max_real_root(X2_MINUS_2)
    tight = root.refined(Fraction(1, 10**12))
    assert tight.width <= Fraction(1, 10**12)
    # the interval still brackets the sign change of x^2 - 2
    assert X2_MINUS_2.sign_at(tight.lo) < 0 < X2_MINUS_2.sign_at(tight.hi)
    half = root.halved()
    assert half.width <= root.width / 2
    assert half.compare_to_rational(1) == GT


def test_sign_of():
    sqrt2 = max_real_root(X2_MINUS_2)
    assert sqrt2.sign_of(X2_MINUS_2) == 0
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([-1, 0, 1])) == 1
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([-2, 1])) == -1
    # q sharing the root through a factor
    assert sqrt2.sign_of(X2_MINUS_2 * IntPolynomial.from_coeffs([-5, 1])) == 0
    assert sqrt2.sign_of(IntPolynomial.zero()) == 0
    assert sqrt2.sign_of(IntPolynomial.from_coeffs([7])) == 1


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
    sqrt2_again = max_real_root(IntPolynomial.from_coeffs([4, 0, -4, 0, 1]))
    assert compare_roots(sqrt2, sqrt2_again) == EQ
    assert calls


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
    assert tight.width <= eps
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
    sf = p.squarefree_part()
    for k in range(1, 64):
        lo, hi = Fraction(-k, 3), Fraction(k, 3)
        if sf.evaluate(lo) and sf.evaluate(hi) and sturm_root_count(sf, lo, hi) == 1:
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


def test_count_roots_above():
    sqrt2 = max_real_root(X2_MINUS_2)
    p = from_roots([1, 2, 3])
    assert count_roots_above(p, sqrt2) == count_roots_from(p, sqrt2) == 2
    two = max_real_root(from_roots([2]))
    # strictly above: the root itself is excluded even when p vanishes there;
    # from the root on: it is included
    assert count_roots_above(p, two) == 1
    assert count_roots_from(p, two) == 2
    assert count_roots_above(from_roots([3, 3]), sqrt2) == 1
    assert count_roots_above(IntPolynomial.from_coeffs([7]), sqrt2) == 0
    assert count_roots_from(IntPolynomial.from_coeffs([7]), sqrt2) == 0
    assert count_roots_above(X2_MINUS_2, sqrt2) == 0
    assert count_roots_from(X2_MINUS_2, sqrt2) == 1
    assert count_roots_above(X2_MINUS_3, sqrt2) == 1


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
