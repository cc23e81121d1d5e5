import dataclasses
import json
import math
import re

import pytest

from oddcycle import (
    EQ,
    DominanceVerdict,
    Graph,
    IntPolynomial,
    ReductionTrace,
    SwitchingClasses,
    VerificationReport,
    all_orientations,
    automorphism_count,
    compare_roots,
    connected_odd_cycle_reps,
    cycle_graph,
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
    skew_spectral_radius,
    star_graph,
    verify_classification,
    verify_conjecture,
    verify_dominance,
    verify_identity,
    verify_monotonicity,
    verify_oracles,
    verify_radius,
    verify_reduction,
    write_graph6,
)

from oddcycle import extremal, reduce_to_F
from oddcycle.extremal import _odd_cycle_classes
from oddcycle.roots import LT
from oddcycle.kelmans import _is_star_plus_matching
from oracles import connected_labeled_counts, has_even_cycle, labeled_odd_cycle_graphs


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
            rhs = IntPolynomial.from_coeffs([p, 0, -n, 0, 1]).shifted(p)
            for _ in range(k):
                rhs = rhs * x2_minus_1
            assert (x2_minus_1 * matching_polynomial(make_F(n, m))).shifted(1) == rhs, (n, m)
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
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    want_all = 0
    want_connected = 0
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
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
    reps = connected_odd_cycle_reps(6)
    assert isinstance(reps, tuple)
    assert connected_odd_cycle_reps(6) is reps


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
            prof = matching_profile(g).counts
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
    # connected classes keep their |Aut| for the rest of the process
    list(_odd_cycle_classes(5))
    monkeypatch.setattr(extremal, "automorphism_count", None)
    assert [aut for _, aut in _odd_cycle_classes(5)]


@pytest.mark.parametrize("n", range(2, 7))
def test_conjecture_reuses_the_classification_census(n, monkeypatch):
    assert verify_classification(n).passed
    calls = []
    isolate = extremal.max_real_root

    def counting(*args, **kwargs):
        calls.append(args)
        return isolate(*args, **kwargs)

    monkeypatch.setattr(extremal, "max_real_root", counting)
    assert verify_conjecture(n).passed
    assert calls == []


@pytest.mark.parametrize("n", range(1, 8))
def test_class_automorphism_closed_form(n):
    # prod |Aut(C)|^k * k! over the components must match the group search
    for g, aut in _odd_cycle_classes(n):
        assert aut == automorphism_count(g)


@pytest.mark.parametrize("n", range(1, 8))
def test_labeled_copies_search_only_the_part_with_edges(n, monkeypatch):
    searched = []
    search = extremal.automorphism_count

    def counting(g, *args, **kwargs):
        searched.append(g)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(extremal, "automorphism_count", counting)
    padded = [extremal._pad_to(g, n) for k in range(1, n + 1) for g in connected_odd_cycle_reps(k)]
    for g in padded:
        assert extremal._labeled_copies(g) == math.factorial(n) // automorphism_count(g)
    assert all(min(h.adj) for h in searched)
    assert len(searched) == len(padded) - 1  # all but the single vertex have edges


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
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shapes = 0
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
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
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    not_isomorphic = 0
    isomorphic = 0
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        if not is_connected(g):
            continue
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                shifted, _ = kelmans_transform(g, u, v)
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
        assert not is_isomorphic(kelmans_transform(g, int(u), int(v))[0], g)
        weighted += math.factorial(n) // automorphism_count(g)
    assert list(rep.counterexamples) == sorted(set(rep.counterexamples))
    assert (len(rep.counterexamples), weighted, not_isomorphic) == (12, 72, 72)
    assert rep.witnesses[0].endswith(f", {isomorphic} isomorphic by label exchange")


def test_dominance_credits_each_class_with_its_labeled_copies(monkeypatch):
    monkeypatch.setattr(extremal, "automorphism_count", lambda g: 1)
    assert verify_dominance(4).checked != 456


def test_connected_labeled_counts_oracle():
    assert [connected_labeled_counts(n) for n in range(1, 8)] == [
        1, 1, 4, 38, 728, 26704, 1866256
    ]


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
def test_connected_classes_cover_the_labeled_connected_graphs(n, classes):
    # orbit counting against the exponential-transform count
    reps = extremal._connected_classes(n)
    assert len(reps) == classes
    assert all(g.n == n and is_connected(g) for g in reps)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not is_isomorphic(reps[i], reps[j])
    labeled = sum(math.factorial(n) // automorphism_count(g) for g in reps)
    assert labeled == connected_labeled_counts(n)


def test_verify_identity_small():
    assert verify_identity is extremal.verify_identity
    rep = verify_identity(4)
    assert rep.passed
    assert rep.claim == "identity"


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
    wrong = list(SwitchingClasses(paw).representatives())[-1]
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
    monkeypatch.setattr(
        extremal, "_connected_aut_counts", lambda k: (1,) * len(connected_odd_cycle_reps(k))
    )
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


def test_verify_oracles_small():
    rep = verify_oracles(4)
    assert rep.passed
    assert rep.claim == "oracles"
    assert rep.witnesses == ("n=4: 64 profiles, 64 round-trips, 5 census rows",)
    assert rep.checked == 64 + 64 + 5


def test_verify_oracles_reports_a_wrong_structured_count(monkeypatch):
    # |Aut| = 1 for every class claims n! labeled copies of each
    n = 5
    monkeypatch.setattr(
        extremal, "_connected_aut_counts", lambda k: (1,) * len(connected_odd_cycle_reps(k))
    )
    rep = verify_oracles(n)
    # the classes with edges sit at m = 4, 5, 6; the bowtie has |Aut| = 8
    assert [c.split(":")[0] for c in rep.counterexamples] == ["n=5 m=4", "n=5 m=5", "n=5 m=6"]
    assert all("labeled connected count" in c for c in rep.counterexamples)
    assert rep.counterexamples[-1] == (
        "n=5 m=6: labeled connected count 15 != 120 from structured classes"
    )
