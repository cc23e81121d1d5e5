import dataclasses
import importlib
import json
import math
import pkgutil
import re

import pytest

from oddcycle import (
    EQ,
    DominanceVerdict,
    Graph,
    GraphTooLargeError,
    IntPolynomial,
    ReductionInvariantError,
    ReductionTrace,
    VerificationReport,
    all_orientations,
    compare_roots,
    complete_graph,
    connected_odd_cycle_reps,
    cycle_graph,
    disjoint_union,
    edge_cap,
    is_connected,
    is_isomorphic,
    is_odd_cycle_graph,
    kelmans_transform,
    make_F,
    make_H,
    matching_polynomial,
    matching_profile,
    max_matching_root,
    max_real_root,
    merge_reports,
    parse_graph6,
    polynomial_from_profile,
    skew_spectral_radius,
    star_graph,
    switching_representatives,
    verify_classification,
    verify_conjecture,
    verify_dominance,
    verify_identity,
    verify_monotonicity,
    verify_radius,
    verify_reduction,
    write_graph6,
)

import oddcycle
from oddcycle import cli, extremal, graphs, reduce_to_F
from oddcycle.extremal import STRUCTURED_MAX_N, _odd_cycle_classes
from oddcycle.roots import GT, LT, _variations_past
from oddcycle.kelmans import _is_star_plus_matching
from oracles import (
    automorphism_count,
    charpoly_reference,
    connected_labeled_counts,
    has_even_cycle,
    labeled_graphs,
    labeled_odd_cycle_graphs,
    matchings_by_size_reference,
)


def test_edge_cap_values():
    assert [edge_cap(n) for n in range(1, 10)] == [0, 1, 3, 4, 6, 7, 9, 10, 12]


def test_make_F_shapes():
    assert make_F(1, 0) == Graph.empty(1)
    assert make_F(5, 4) == star_graph(4)
    assert is_isomorphic(make_F(4, 4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert is_isomorphic(make_F(5, 6), bowtie)
    # the added edges pair up consecutive leaves
    f = make_F(7, 8)
    assert set(f.edge_list()) == {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (3, 4)}


def test_make_F_validation():
    with pytest.raises(ValueError):
        make_F(5, 3)
    with pytest.raises(ValueError):
        make_F(5, 7)
    with pytest.raises(ValueError):
        make_F(0, 0)


def test_make_F_is_odd_cycle_graph():
    for n in range(1, 12):
        for m in range(max(0, n - 1), edge_cap(n) + 1):
            f = make_F(n, m)
            assert f.m == m
            assert is_connected(f)
            assert is_odd_cycle_graph(f)


def test_make_F_at_m_equal_n_minus_1_is_the_star():
    for n in range(2, 21):
        assert make_F(n, n - 1) == star_graph(n - 1)


def test_F_matching_polynomial_factorization():
    # x(x^2 - 1) m(F(n, m), x) = x^p (x^2 - 1)^k (x^4 - n x^2 + p) with
    # k = m - n + 1 triangles at the centre and p = 3n - 3 - 2m pendant leaves
    x2_minus_1 = IntPolynomial.from_coeffs([-1, 0, 1])
    points = 0
    for n in range(1, 21):
        for m in range(n - 1, edge_cap(n) + 1):
            k, p = m - n + 1, 3 * n - 3 - 2 * m
            rhs = IntPolynomial.from_coeffs([0] * p + [p, 0, -n, 0, 1])
            for _ in range(k):
                rhs = rhs * x2_minus_1
            assert IntPolynomial((0, 1)) * x2_minus_1 * matching_polynomial(make_F(n, m)) == rhs, (n, m)
            points += 1
    assert points == 110


def test_make_H():
    for n in range(1, 10):
        h = make_H(n)
        assert h == make_F(n, edge_cap(n))
    assert make_H(8).m == 10


# -------------------------------------------------------------- enumeration


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_enumeration_matches_even_cycle_oracle(n):
    want_all = 0
    want_connected = 0
    for g in labeled_graphs(n):
        if has_even_cycle(n, g.edge_list()):
            continue
        want_all += 1
        if is_connected(g):
            want_connected += 1
    got_all = list(labeled_odd_cycle_graphs(n))
    got_connected = list(labeled_odd_cycle_graphs(n, connected_only=True))
    assert len(got_all) == want_all
    assert len(got_connected) == want_connected
    assert all(is_odd_cycle_graph(g) for g in got_all)
    assert all(is_connected(g) for g in got_connected)
    assert all(g.m <= edge_cap(n) for g in got_all)


def test_labeled_counts_frozen():
    assert sum(1 for _ in labeled_odd_cycle_graphs(3)) == 8
    assert sum(1 for _ in labeled_odd_cycle_graphs(4)) == 54


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 8), (6, 17), (7, 47), (8, 122)]
)
def test_structured_class_counts(n, count):
    reps = connected_odd_cycle_reps(n)
    assert len(reps) == count
    for g in reps:
        assert g.n == n
        assert is_connected(g)
        assert is_odd_cycle_graph(g)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not is_isomorphic(reps[i], reps[j])


def test_structured_classes_are_grown_once():
    classes = extremal._classes(6, True)
    assert isinstance(classes, tuple)
    assert extremal._classes(6, True) is classes
    assert connected_odd_cycle_reps(6) == tuple(g for g, _ in classes)


def test_structured_classes_cover_labeled_ones():
    # orbit counting: labeled connected graphs split exactly into the classes
    n = 5
    reps = connected_odd_cycle_reps(n)
    labeled = sum(1 for _ in labeled_odd_cycle_graphs(n, connected_only=True))
    import math

    assert labeled == sum(math.factorial(n) // automorphism_count(g) for g in reps)
    assert any(is_isomorphic(g, make_H(n)) for g in reps)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_class_census_matches_labeled_sweep(n):
    classes = [g for g, _ in _odd_cycle_classes(n)]
    for g in classes:
        assert g.n == n
        assert is_odd_cycle_graph(g)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            assert not is_isomorphic(classes[i], classes[j])

    # the brute-force labeled enumeration is the independent oracle
    want: dict[int, dict[tuple[int, ...], int]] = {}
    for g in labeled_odd_cycle_graphs(n):
        if g.m:
            by_profile = want.setdefault(g.m, {})
            prof = matching_profile(g)
            by_profile[prof] = by_profile.get(prof, 0) + 1
    got = {
        m: {prof: entry[0] for prof, entry in size.groups.items()}
        for m, size in extremal._order_census(n).items()
    }
    assert got == want


def test_order_census_is_built_once_and_read_only(monkeypatch):
    census = extremal._order_census(5)
    assert extremal._order_census(5) is census
    size = census[edge_cap(5)]
    prof, entry = next(iter(size.groups.items()))
    assert isinstance(entry, tuple) and isinstance(size.champions, tuple)
    with pytest.raises(TypeError):
        census[1] = size
    with pytest.raises(TypeError):
        size.groups[prof] = (0, "")
    with pytest.raises(dataclasses.FrozenInstanceError):
        size.champions = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        size.root.lo = 0
    # connected classes keep their copies for the rest of the process
    list(_odd_cycle_classes(5))
    monkeypatch.setattr(extremal, "_one_per_class", None)
    assert [copies for _, copies in _odd_cycle_classes(5)]


@pytest.mark.parametrize("n", range(2, 7))
def test_conjecture_reuses_the_classification_census(n, cold_memos):
    # conjecture folds the champions' own polynomials, which the census has
    # isolated, so max_real_root answers every one from its memo
    extremal._order_census.cache_clear()
    assert verify_classification(n).passed
    misses = max_real_root.cache_info().misses
    assert verify_conjecture(n).passed
    assert max_real_root.cache_info().misses == misses


def _exhaustive_champions(n, groups):
    """The census's (root, champions) without pruning: every profile's root
    isolated and folded by compare_roots, keeping every tie in order."""
    best, champions = None, []
    for prof in sorted(groups):
        root = max_real_root(polynomial_from_profile(prof, n))
        cmp = GT if best is None else compare_roots(root, best)
        if cmp == GT:
            best, champions = root, [prof]
        elif cmp == EQ:
            champions.append(prof)
    return best, tuple(champions)


@pytest.mark.parametrize("n", range(2, 9))
def test_pruned_census_equals_the_exhaustive_one(n):
    for m, size in extremal._order_census(n).items():
        ref_root, ref_champions = _exhaustive_champions(n, size.groups)
        assert size.champions == ref_champions, (n, m)
        assert compare_roots(size.root, ref_root) == EQ, (n, m)
        # the first champion's own root: same polynomial, same interval
        assert size.root == ref_root, (n, m)


@pytest.mark.parametrize("n", range(2, 9))
def test_order_census_isolates_one_root_per_size(n, remainder_sequences):
    # the isolation happens inside roots.compare_max_root, so count the
    # memo's misses rather than the calls through extremal
    for memo in (max_real_root, extremal._order_census, extremal._classes):
        memo.cache_clear()
    extremal._order_census(n)
    assert max_real_root.cache_info().misses == edge_cap(n)
    # each isolation builds one Sturm chain, and no root is compared, so
    # neither gcd nor sign_of runs
    assert len(remainder_sequences) == edge_cap(n)
    assert all(other == f.derivative() for f, other in remainder_sequences)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_automorphism_closed_form(n):
    # the multiset formula for copies against orbit-stabilizer with the oracle
    for g, copies in _odd_cycle_classes(n):
        assert copies * automorphism_count(g) == math.factorial(n), write_graph6(g)


def test_claimed_copies_match_the_automorphism_oracle():
    # padded K2, K3 and stars, and F(n, m), from n = 2 up
    for n in range(2, 9):
        for m in range(1, edge_cap(n) + 1):
            for g, copies in extremal._claimed_maximizers(n, m)[0]:
                assert copies * automorphism_count(g) == math.factorial(n), (n, m)


@pytest.mark.parametrize("n", [9, 10])
def test_claimed_copies_match_their_class(n):
    # past the oracle's reach, against the copies the class generator counts
    def degrees(g):
        return sorted(row.bit_count() for row in g.adj)

    claimed = [c for m in range(1, edge_cap(n) + 1) for c in extremal._claimed_maximizers(n, m)[0]]
    wanted = {(g.m, tuple(degrees(g))) for g, _ in claimed}
    found = {g: [] for g, _ in claimed}
    for h, copies in _odd_cycle_classes(n):
        if (h.m, tuple(degrees(h))) in wanted:
            for g in found:
                if is_isomorphic(g, h):
                    found[g].append(copies)
    assert len(claimed) == edge_cap(n) + 1  # the m = 3 tie adds K_{1,3}
    assert [found[g] for g, _ in claimed] == [[copies] for _, copies in claimed]


# ------------------------------------------------------------------ reports


def test_report_shape():
    rep = VerificationReport(
        claim="demo",
        universe="orders 2..3",
        checked=7,
        counterexamples=(),
        witnesses=("w1",),
        elapsed_seconds=0.5,
    )
    assert rep.passed
    blob = rep.to_json_dict()
    assert blob["claim"] == "demo" and blob["checked"] == 7 and blob["passed"]
    json.dumps(blob)
    table = rep.to_table()
    assert "claim demo: PASS" in table and "witness: w1" in table

    bad = VerificationReport("demo", "u", 3, ("oops",), (), 0.1)
    assert not bad.passed
    assert "FAIL" in bad.to_table()

    merged = merge_reports("demo", "both", [rep, bad])
    assert merged.checked == 10
    assert merged.counterexamples == ("oops",)
    assert merged.witnesses == ("w1",)
    assert merged.elapsed_seconds == pytest.approx(0.6)


# ---------------------------------------------------------------- sweeps


def test_verify_classification_small():
    rep = verify_classification(5)
    assert rep.passed
    assert rep.claim == "classification"
    assert rep.checked > 0
    assert any("witness" in w or "t~" in w for w in rep.witnesses)


def test_verify_classification_reports_the_tie():
    rep = verify_classification(4)
    assert rep.passed
    tie = [w for w in rep.witnesses if "m=3" in w]
    assert tie and "x8" in tie[0]


def test_running_best_keeps_every_key_of_a_tie_in_order():
    # a claim that fails by a tie between groups rests on this branch
    one, two, three = (IntPolynomial.from_coeffs([-k, 1]) for k in (1, 2, 3))
    three_again = IntPolynomial.from_coeffs([-9, 0, 1])
    pairs = [(two, "a"), (three, "bc"), (one, "d"), (three_again, "e"), (three, "f")]
    assert extremal._running_best(pairs) == (max_real_root(three), ["b", "c", "e", "f"])


def _linear(c):
    """den * x - num, whose one root is the rational c."""
    return IntPolynomial.from_coeffs([-c.numerator, c.denominator])


def test_running_best_decides_roots_inside_the_best_interval():
    x2_minus_2 = IntPolynomial.from_coeffs([-2, 0, 1])
    sqrt2 = max_real_root(x2_minus_2)
    grid = [sqrt2.lo + k * (sqrt2.hi - sqrt2.lo) / 64 for k in range(1, 64)]
    below = max(c for c in grid if c * c < 2)
    above = min(c for c in grid if c * c > 2)
    # (x - c)(x + 3) has exactly one root past sqrt2.lo, so Descartes' count
    # there is 1 and proves nothing: the order comes from an isolation
    x_plus_3 = IntPolynomial.from_coeffs([3, 1])
    p_below, p_above = _linear(below) * x_plus_3, _linear(above) * x_plus_3
    assert _variations_past(p_below, sqrt2.lo) == _variations_past(p_above, sqrt2.lo) == 1
    # a different polynomial with the same largest root ties, kept in order
    same = IntPolynomial.from_coeffs([2, 0, -3, 0, 1])  # (x^2 - 1)(x^2 - 2)
    pairs = [(x2_minus_2, "a"), (p_below, "b"), (same, "c"), (x2_minus_2 * x_plus_3, "d")]
    assert extremal._running_best(pairs) == (sqrt2, ["a", "c", "d"])
    # a root in (sqrt2, sqrt2.hi) wins and drops the old best's keys
    best, keys = extremal._running_best([(x2_minus_2, "a"), (same, "b"), (p_above, "c")])
    assert (best, keys) == (max_real_root(p_above), ["c"])
    assert best.compare_to_rational(above) == EQ


def test_running_best_finds_a_champion_after_the_first_pair():
    one, two = (IntPolynomial.from_coeffs([-k, 1]) for k in (1, 2))
    x2_minus_1, x2_minus_4 = (IntPolynomial.from_coeffs([-k, 0, 1]) for k in (1, 4))
    pairs = [(one, "a"), (x2_minus_1, "b"), (two, "c"), (one, "d"), (x2_minus_4, "e")]
    assert extremal._running_best(pairs) == (max_real_root(two), ["c", "e"])


def test_verify_conjecture_small():
    rep = verify_conjecture(5)
    assert rep.passed
    assert rep.claim == "conjecture"


def test_verify_monotonicity_small():
    rep = verify_monotonicity(10)
    assert rep.passed
    assert rep.claim == "monotonicity"
    assert rep.checked > 0


def test_monotonicity_checks_each_root_against_its_quartic(monkeypatch):
    points = sum(edge_cap(n) - n + 2 for n in range(2, 9))
    assert points == 19
    rep = verify_monotonicity(8)
    assert rep.witnesses == (
        f"m=4 column pairs checked: 1, all strict; {points} roots on their quartic",
    )
    # p + 1 in place of p moves the quartic's roots off every grid root,
    # while the Sturm comparisons still pass
    monkeypatch.setattr(
        extremal,
        "_F_quartic",
        lambda n, m: IntPolynomial.from_coeffs([3 * n - 2 - 2 * m, 0, -n, 0, 1]),
    )
    wrong = verify_monotonicity(8)
    assert wrong.checked == rep.checked
    assert wrong.witnesses == ("m=4 column pairs checked: 1, all strict; 0 roots on their quartic",)
    assert len(wrong.counterexamples) == points
    assert all("is not a root of" in c for c in wrong.counterexamples)
    assert wrong.counterexamples[0] == "t(F(2,1)) is not a root of x^4 - 2x^2 + 2"
    # classification reads the same helper
    assert verify_classification(5).counterexamples == tuple(
        f"n=5 m={m}: maximum root differs from the claimed closed form" for m in (4, 5, 6)
    )


def test_monotonicity_witness_counts_the_pairs_that_are_not_strict(monkeypatch):
    rep = verify_monotonicity(8)
    monkeypatch.setattr(extremal, "compare_roots", lambda a, b: LT)
    wrong = verify_monotonicity(8)
    assert wrong.checked == rep.checked == len(wrong.counterexamples) == 20
    assert all(" >= " in c for c in wrong.counterexamples)
    assert wrong.witnesses == (
        "m=4 column pairs checked: 1, 20 pairs not strict; 19 roots on their quartic",
    )


def test_verify_reduction_small():
    rep = verify_reduction(6)
    assert rep.passed
    assert rep.checked == 17


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_F_shape_test_agrees_with_isomorphism_on_all_labeled_graphs(n):
    shapes = 0
    for g in labeled_graphs(n):
        want = n - 1 <= g.m <= edge_cap(n) and is_isomorphic(g, make_F(n, g.m))
        assert _is_star_plus_matching(g) == want
        shapes += want
    # each F(n, m), n - 1 <= m <= edge_cap(n), has n!/|Aut| labeled copies
    assert shapes == sum(
        math.factorial(n) // automorphism_count(make_F(n, m)) for m in range(n - 1, edge_cap(n) + 1)
    )


def test_reduction_reports_a_final_graph_that_is_not_F(monkeypatch):
    # a reduction that stops one step short ends on a graph with a long odd
    # cycle or without a vertex of degree n - 1: never F(n, m)
    def short(g):
        trace = reduce_to_F(g)
        steps = trace.steps[:-1]
        return dataclasses.replace(trace, steps=steps, final=steps[-1][1] if steps else g)

    n = 5
    want = sorted(
        f"{write_graph6(g)}: final graph {write_graph6(short(g).final)} is not F({n},{g.m})"
        for g in connected_odd_cycle_reps(n)
        if reduce_to_F(g).steps
    )
    monkeypatch.setattr(extremal, "reduce_to_F", short)
    rep = verify_reduction(n)
    assert len(want) == 5
    assert list(rep.counterexamples) == want


def test_reduction_reports_a_final_graph_with_the_wrong_edge_count(monkeypatch):
    # a trace that replays cleanly from the wrong start: the star has the
    # shape of F(n, m) but only n - 1 edges
    n = 5
    star = star_graph(n - 1)

    def to_star(g):
        return ReductionTrace(start=star, steps=(), final=star)

    want = sorted(
        f"{write_graph6(g)}: final graph {write_graph6(star)} is not F({n},{g.m})"
        for g in connected_odd_cycle_reps(n)
        if g.m > n - 1
    )
    monkeypatch.setattr(extremal, "reduce_to_F", to_star)
    rep = verify_reduction(n)
    assert len(want) == 5
    assert list(rep.counterexamples) == want


def test_reduction_reports_a_broken_lemma_as_a_counterexample(capsys, monkeypatch):
    # a reduction lemma that fails on one class is that class's
    # counterexample; the sweep goes on and still counts every class
    n = 5
    broken = connected_odd_cycle_reps(n)[3]

    def breaks_once(g):
        if g == broken:
            raise ReductionInvariantError("step 2 left the family")
        return reduce_to_F(g)

    monkeypatch.setattr(extremal, "reduce_to_F", breaks_once)
    rep = verify_reduction(n)
    assert rep.checked == 8
    assert rep.counterexamples == (f"{write_graph6(broken)}: step 2 left the family",)
    assert cli.main(["verify", "reduction", "--max-n", str(n)]) == 1
    assert f"{write_graph6(broken)}: step 2 left the family" in capsys.readouterr().out


def test_verify_dominance_small():
    # every shift that is not strict is the exchange of its two labels:
    # 4270 of them over n = 2..5
    for n, checked, exchanged in [(2, 2, 0), (3, 24, 6), (4, 456, 144), (5, 14560, 4120)]:
        rep = verify_dominance(n)
        assert rep.passed
        assert rep.claim == "dominance"
        assert rep.checked == checked
        assert rep.witnesses == (
            f"n={n}: {checked} shifts checked, {exchanged} isomorphic by label exchange",
        )


def test_dominance_reports_exactly_the_non_isomorphic_weak_shifts(monkeypatch):
    # with every verdict forced to weak, a changed shift passes only as a label
    # exchange; at n = 4 those are exactly the shifts is_isomorphic accepts.
    # The labeled walk here is the oracle; the sweep names one class
    # representative per failing pair, standing for 4!/|Aut| labeled shifts
    n = 4
    monkeypatch.setattr(extremal, "dominance", lambda g1, g2: DominanceVerdict.WEAKLY_DOMINATES)
    not_isomorphic = 0
    isomorphic = 0
    for g in labeled_graphs(n):
        if not is_connected(g):
            continue
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                shifted = kelmans_transform(g, u, v)
                if shifted == g:
                    continue
                if is_isomorphic(shifted, g):
                    isomorphic += 1
                else:
                    not_isomorphic += 1
    rep = verify_dominance(n)
    weighted = 0
    for line in rep.counterexamples:
        g6, u, v = re.fullmatch(
            r"(\S+) shift \((\d),(\d)\): verdict weakly_dominates on a shift that is "
            r"not the label exchange",
            line,
        ).groups()
        g = parse_graph6(g6)
        assert not is_isomorphic(kelmans_transform(g, int(u), int(v)), g)
        weighted += math.factorial(n) // automorphism_count(g)
    assert list(rep.counterexamples) == sorted(set(rep.counterexamples))
    assert (len(rep.counterexamples), weighted, not_isomorphic) == (12, 72, 72)
    assert rep.witnesses[0].endswith(f", {isomorphic} isomorphic by label exchange")


def drop_the_class_symmetries(monkeypatch):
    # every class counted as if its only automorphism were the identity; the
    # real classes up to order 4 are grown first, because growing an order
    # reads the one below through the patched name and would memoize it
    grown = extremal._classes
    for n in range(1, 5):
        for odd in (True, False):
            grown(n, odd)
    monkeypatch.setattr(
        extremal, "_classes", lambda n, odd: tuple((g, math.factorial(n)) for g, _ in grown(n, odd))
    )


def test_dominance_credits_each_class_with_its_labeled_copies(monkeypatch):
    drop_the_class_symmetries(monkeypatch)
    assert verify_dominance(4).checked == 6 * 12 * 24


def test_connected_labeled_counts_oracle():
    assert [connected_labeled_counts(n) for n in range(1, 8)] == [
        1, 1, 4, 38, 728, 26704, 1866256
    ]


@pytest.mark.parametrize(
    "n,classes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)]
)
def test_connected_classes_cover_the_labeled_connected_graphs(n, classes):
    # the generator's labeled counts against the exponential-transform count
    grown = extremal._classes(n, False)
    reps = [g for g, _ in grown]
    assert len(reps) == classes
    assert all(g.n == n and is_connected(g) for g in reps)
    if n <= 6:
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_isomorphic(reps[i], reps[j])
    assert sum(copies for _, copies in grown) == connected_labeled_counts(n)


@pytest.mark.parametrize("odd,top", [(True, 8), (False, 6)])
def test_class_copies_times_automorphisms_is_n_factorial(odd, top):
    # orbit-stabilizer against the automorphism search
    for n in range(1, top + 1):
        for g, copies in extremal._classes(n, odd):
            assert copies * automorphism_count(g) == math.factorial(n), write_graph6(g)


def test_class_sweeps_search_no_automorphism():
    # the classes count their own labeled copies, so no module of the package
    # defines or imports an automorphism counter, and cold sweeps still hold
    modules = [oddcycle] + [
        importlib.import_module(f"oddcycle.{info.name}")
        for info in pkgutil.iter_modules(oddcycle.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        assert not [name for name in vars(module) if "automorphism" in name.lower()], module
    for memo in vars(extremal).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
    assert verify_radius(6).checked == 342267
    assert verify_dominance(6).checked == 801120
    census = extremal._order_census(8)
    assert sum(entry[0] for size in census.values() for entry in size.groups.values()) == 2858587


def test_connected_classes_refuse_an_order_before_growing_any(monkeypatch):
    def grown(candidates):
        raise AssertionError("classes grown before the order check")

    monkeypatch.setattr(extremal, "_one_per_class", grown)
    for n in (0, STRUCTURED_MAX_N + 1):
        for odd in (True, False):
            with pytest.raises(GraphTooLargeError):
                extremal._classes(n, odd)


def test_one_per_class_refines_each_candidate_once(monkeypatch):
    # every labeled graph of order 4 (11 classes) with weight 1, then C6 and
    # 2C3, which refinement cannot tell apart, each twice under two labellings
    candidates = [(g, 1) for g in labeled_graphs(4)]
    c6, two_c3 = cycle_graph(6), disjoint_union([complete_graph(3)] * 2)
    swap = [1, 0, 2, 3, 4, 5]
    candidates += [(c6, 1), (two_c3, 2), (c6.relabeled(swap), 10), (two_c3.relabeled(swap), 20)]
    refined, refine = [], graphs._refine

    def counted(n, adj):
        refined.append(adj)
        return refine(n, adj)

    def forbidden(*args, **kwargs):
        raise AssertionError("the class dedupe computed a matching profile")

    # is_isomorphic refines through graphs._refine, so a call would show here too
    monkeypatch.setattr(extremal, "_refine", counted)
    monkeypatch.setattr(graphs, "_refine", counted)
    monkeypatch.setattr(extremal, "matching_profile", forbidden)
    reps = extremal._one_per_class(candidates)
    assert refined == [g.adj for g, _ in candidates]
    assert len(reps) == 13
    assert reps[-2:] == [[c6, 11], [two_c3, 22]]
    assert sorted(g.m for g, _ in reps[:11]) == [0, 1, 2, 2, 3, 3, 3, 4, 4, 5, 6]
    # each class sums one unit per labeled copy
    assert all(weight == 24 // automorphism_count(g) for g, weight in reps[:11])


def test_verify_identity_small():
    assert verify_identity is extremal.verify_identity
    rep = verify_identity(4)
    assert rep.passed
    assert rep.claim == "identity"
    # 10 switching representatives of the odd-cycle classes, and one mask
    # for each of the 10 labeled graphs with an even cycle
    assert rep.witnesses == (
        "n=4: 64 graphs, 435 orientations covered, 20 characteristic polynomials evaluated",
    )


@pytest.mark.parametrize("n,total", [(1, 1), (2, 3), (3, 27), (4, 435), (5, 10936)])
def test_identity_matches_a_labeled_walk_over_every_orientation(n, total):
    # no switching classes and no class copies: every orientation of every
    # labeled graph by Laplace expansion, up to the first violation when the
    # graph has an even cycle
    seen = 0
    for g in labeled_graphs(n):
        edges = g.edge_list()
        even = has_even_cycle(n, edges)
        want = [0] * (n + 1)
        for k, count in enumerate(matchings_by_size_reference(n, edges)):
            want[n - 2 * k] = count
        violated = False
        for o in all_orientations(g):
            seen += 1
            if list(charpoly_reference(o.skew_matrix())[: n + 1]) != want:
                violated = True
                break
        assert violated == even, (write_graph6(g), o.mask)
    assert seen == total == verify_identity(n).checked


def test_identity_reports_exactly_the_class_with_a_wrong_polynomial(monkeypatch):
    paw = next(g for g, _ in _odd_cycle_classes(4) if g.m == 4)
    wrong = list(switching_representatives(paw))[-1]
    real = extremal.skew_char_poly

    def char_poly(o):
        if o.graph == paw and o.mask == wrong:
            return IntPolynomial.from_coeffs([0, 0, 0, 0, 1])
        return real(o)

    monkeypatch.setattr(extremal, "skew_char_poly", char_poly)
    rep = verify_identity(4)
    assert rep.checked == 435
    assert rep.counterexamples == (
        f"{write_graph6(paw)} orientation {wrong:#x} and its switching class: identity fails",
    )


def test_identity_credits_each_class_with_its_labeled_copies(monkeypatch):
    drop_the_class_symmetries(monkeypatch)
    assert verify_identity(4).checked != 435


def test_verify_radius_small():
    rep = verify_radius(5)
    assert rep.passed
    assert rep.claim == "radius"
    assert rep.witnesses == (
        "n=5: 548 graphs, 10425 orientations covered, 28 switching classes evaluated",
    )


@pytest.mark.parametrize("n,total", [(1, 1), (2, 3), (3, 27), (4, 425)])
def test_radius_matches_a_labeled_walk_over_every_orientation(n, total):
    # no switching classes and no |Aut|: every orientation of every labeled graph
    seen = 0
    for g in labeled_odd_cycle_graphs(n):
        t = max_matching_root(g)
        for o in all_orientations(g):
            assert compare_roots(skew_spectral_radius(o), t) == EQ, (write_graph6(g), o.mask)
            seen += 1
    assert seen == total == verify_radius(n).checked


def test_radius_reports_exactly_the_class_with_a_wrong_radius(monkeypatch):
    # the paw (a triangle with a pendant edge) has two switching classes
    paw = next(g for g, _ in _odd_cycle_classes(4) if g.m == 4)
    wrong = list(switching_representatives(paw))[-1]
    real = extremal.skew_spectral_radius

    def radius(o):
        if o.graph == paw and o.mask == wrong:
            return max_real_root(IntPolynomial.from_coeffs([-5, 0, 1]))
        return real(o)

    monkeypatch.setattr(extremal, "skew_spectral_radius", radius)
    rep = verify_radius(4)
    assert rep.checked == 425
    assert rep.counterexamples == (
        f"{write_graph6(paw)} orientation {wrong:#x} and its switching class: "
        "spectral radius differs from the matching root",
    )


def test_radius_credits_each_class_with_its_labeled_copies(monkeypatch):
    drop_the_class_symmetries(monkeypatch)
    assert verify_radius(4).checked != 425


@pytest.mark.parametrize(
    "max_n,identity,radius", [(3, 31, 31), (4, 466, 456), (5, 11402, 10881)]
)
def test_orientation_sweep_counts(max_n, identity, radius):
    # every orientation is covered although one per switching class is evaluated
    idents = [verify_identity(n) for n in range(1, max_n + 1)]
    radii = [verify_radius(n) for n in range(1, max_n + 1)]
    assert all(r.passed for r in idents + radii)
    assert sum(r.checked for r in idents) == identity
    assert sum(r.checked for r in radii) == radius
    assert "switching classes evaluated" in radii[-1].witnesses[0]
