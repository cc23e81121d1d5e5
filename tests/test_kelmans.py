
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddcycle import (
    EQ,
    LT,
    AlgebraicRoot,
    DominanceVerdict,
    Graph,
    IntPolynomial,
    KelmansPhase,
    ReductionInvariantError,
    ReductionTrace,
    compare_roots,
    complete_graph,
    connected_odd_cycle_reps,
    cycle_graph,
    disjoint_union,
    dominance,
    is_connected,
    is_isomorphic,
    kelmans_transform,
    make_F,
    matching_polynomial,
    max_matching_root,
    parse_graph6,
    path_graph,
    reduce_to_F,
    star_graph,
    write_graph6,
)
from oddcycle.extremal import _odd_cycle_classes

from oracles import dominance_reference

EQUAL = DominanceVerdict.EQUAL_POLYNOMIALS
STRICT = DominanceVerdict.STRICTLY_DOMINATES
WEAK = DominanceVerdict.WEAKLY_DOMINATES
INCOMPARABLE = DominanceVerdict.INCOMPARABLE


@st.composite
def graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


# ---------------------------------------------------------------- transform


def test_transform_on_five_cycle():
    c5 = cycle_graph(5)
    out, step = kelmans_transform(c5, 0, 2)
    assert set(out.edge_list()) == {(0, 1), (0, 3), (0, 4), (1, 2), (3, 4)}
    assert step.beneficiary == 0
    assert step.co_beneficiary == 2
    assert step.moved_edges == ((2, 3),)
    assert step.phase is None
    assert step.to_json_dict() == {
        "phase": None,
        "beneficiary": 0,
        "co_beneficiary": 2,
        "moved_edges": [[2, 3]],
    }


def test_transform_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        kelmans_transform(g, 1, 1)
    with pytest.raises(ValueError):
        kelmans_transform(g, 0, 3)
    with pytest.raises(ValueError):
        kelmans_transform(g, -1, 0)


def test_transform_can_be_a_no_op():
    out, step = kelmans_transform(star_graph(3), 0, 1)
    assert out == star_graph(3)
    assert step.moved_edges == ()


@given(graphs(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_transform_bookkeeping(g, a, b):
    u = a % g.n
    v = b % g.n
    if u == v:
        v = (v + 1) % g.n
    out, step = kelmans_transform(g, u, v, phase=KelmansPhase.DEGREE_LIFT)
    assert out.n == g.n and out.m == g.m
    assert step.phase is KelmansPhase.DEGREE_LIFT
    # replay the recorded edge moves by hand
    replay = set(g.edge_list())
    for vv, w in step.moved_edges:
        assert vv == v
        replay.remove((min(v, w), max(v, w)))
        replay.add((min(u, w), max(u, w)))
    assert Graph.from_edges(g.n, replay) == out
    for x in range(g.n):
        if x == u:
            assert out.degree(x) == g.degree(x) + len(step.moved_edges)
        elif x == v:
            assert out.degree(x) == g.degree(x) - len(step.moved_edges)
        else:
            assert out.degree(x) == g.degree(x)


# ---------------------------------------------------------------- reduction


def test_reduce_five_cycle():
    trace = reduce_to_F(cycle_graph(5))
    assert write_graph6(trace.start) == "Dhc"
    assert trace.step_count == 2
    phases = [step.phase for step, _ in trace.steps]
    assert phases == [KelmansPhase.LONG_CYCLE, KelmansPhase.DEGREE_LIFT]
    assert is_isomorphic(trace.final, make_F(5, 5))
    trace.validate()
    blob = trace.to_json_dict()
    assert blob["start"] == "Dhc"
    assert len(blob["steps"]) == 2
    assert blob["steps"][-1]["result"] == blob["final"]


def test_reduce_path():
    trace = reduce_to_F(path_graph(5))
    assert is_isomorphic(trace.final, star_graph(4))
    assert trace.phase_counts()[KelmansPhase.LONG_CYCLE] == 0
    assert 0 < trace.step_count <= 4


@pytest.mark.parametrize("g", [Graph.empty(1), path_graph(2), complete_graph(3), make_F(7, 9), make_F(6, 7)])
def test_reduce_fixed_points(g):
    trace = reduce_to_F(g)
    assert trace.step_count == 0
    assert trace.final == g


def test_reduce_seven_cycle():
    c7 = cycle_graph(7)
    trace = reduce_to_F(c7)
    trace.validate()
    counts = trace.phase_counts()
    assert counts[KelmansPhase.LONG_CYCLE] >= 1
    assert 2 * counts[KelmansPhase.LONG_CYCLE] < c7.m
    assert counts[KelmansPhase.DEGREE_LIFT] <= c7.n - 1
    assert is_isomorphic(trace.final, make_F(7, 7))
    assert dominance(trace.final, c7) is STRICT
    assert compare_roots(max_matching_root(c7), max_matching_root(trace.final)) == LT


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError):
        reduce_to_F(cycle_graph(4))
    with pytest.raises(ValueError):
        reduce_to_F(disjoint_union([path_graph(2), path_graph(2)]))


def test_validate_detects_tampering():
    trace = reduce_to_F(cycle_graph(5))
    step, _ = trace.steps[0]
    wrong = ReductionTrace(
        start=trace.start,
        steps=((step, cycle_graph(5)),) + trace.steps[1:],
        final=trace.final,
    )
    with pytest.raises(ReductionInvariantError):
        wrong.validate()
    truncated = ReductionTrace(start=trace.start, steps=trace.steps[:1], final=trace.final)
    with pytest.raises(ReductionInvariantError):
        truncated.validate()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduce_every_small_connected_class(n):
    for g in connected_odd_cycle_reps(n):
        trace = reduce_to_F(g)
        trace.validate()
        target = make_F(n, g.m)
        assert is_isomorphic(trace.final, target)
        verdict = dominance(trace.final, g)
        if is_isomorphic(g, target):
            assert verdict is EQUAL
        else:
            assert verdict is STRICT


# ---------------------------------------------------------------- dominance


def test_dominance_equal():
    assert dominance(cycle_graph(5), cycle_graph(5)) is EQUAL
    k3_iso = disjoint_union([complete_graph(3), Graph.empty(1)])
    assert dominance(star_graph(3), k3_iso) is EQUAL
    assert dominance(k3_iso, star_graph(3)) is EQUAL


def test_dominance_strict():
    assert dominance(make_F(5, 5), cycle_graph(5)) is STRICT
    k2_iso = disjoint_union([path_graph(2), Graph.empty(1)])
    assert dominance(path_graph(3), k2_iso) is STRICT


def test_dominance_weak():
    # removing the K2 edge: the difference x^3 - 3x vanishes at t = sqrt(3)
    g = disjoint_union([complete_graph(3), path_graph(2)])
    h = disjoint_union([complete_graph(3), Graph.empty(2)])
    assert dominance(g, h) is WEAK
    # difference x^2 - 1 vanishes exactly at t(2K2) = 1
    two_k2 = disjoint_union([path_graph(2), path_graph(2)])
    k2_2iso = disjoint_union([path_graph(2), Graph.empty(2)])
    assert dominance(two_k2, k2_2iso) is WEAK


def test_dominance_incomparable_leading_sign():
    assert dominance(cycle_graph(5), make_F(5, 5)) is INCOMPARABLE


def test_dominance_incomparable_by_crossing():
    # these two share no order: their difference x^3 - 5x changes sign at
    # sqrt(5), which lies above both matching roots
    g1 = parse_graph6("FEpP?")
    g2 = parse_graph6("Fe@GW")
    assert matching_polynomial(g1).coeffs == (0, -6, 0, 12, 0, -7, 0, 1)
    assert matching_polynomial(g2).coeffs == (0, -1, 0, 11, 0, -7, 0, 1)
    assert dominance(g1, g2) is INCOMPARABLE
    assert dominance(g2, g1) is INCOMPARABLE


def test_dominance_rejects_mixed_orders():
    with pytest.raises(ValueError):
        dominance(path_graph(3), path_graph(4))


def _labeled_graphs(n: int) -> list[Graph]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        for mask in range(1 << len(pairs))
    ]


@pytest.mark.parametrize(
    "universe, counts",
    [
        # all 64 labeled graphs of order 4
        (lambda: _labeled_graphs(4), (1736, 18, 1754, 588)),
        # the 42 odd-cycle classes of order 6
        (lambda: [g for g, _ in _odd_cycle_classes(6)], (767, 30, 903, 64)),
    ],
    ids=["labeled-4", "classes-6"],
)
def test_dominance_matches_the_fraction_oracle_on_every_small_pair(universe, counts, monkeypatch):
    members = universe()
    pairs = [(g1, g2) for g1 in members for g2 in members]
    want = [dominance_reference(g1, g2) for g1, g2 in pairs]
    tally = Counter(want)
    assert tuple(tally[v] for v in (STRICT, WEAK, INCOMPARABLE, EQUAL)) == counts
    assert [dominance(g1, g2) for g1, g2 in pairs] == want

    # a strict pair is settled by at most one root count (none when d is a
    # positive constant), without the odd part of d
    def unreachable(self):
        raise AssertionError("squarefree_decomposition reached on a strict pair")

    apart_from = AlgebraicRoot._apart_from
    calls = []

    def counting(self, q):
        calls.append(q)
        return apart_from(self, q)

    monkeypatch.setattr(IntPolynomial, "squarefree_decomposition", unreachable)
    monkeypatch.setattr(AlgebraicRoot, "_apart_from", counting)
    for (g1, g2), verdict in zip(pairs, want):
        if verdict is STRICT:
            calls.clear()
            assert dominance(g1, g2) is STRICT
            assert len(calls) <= 1


@given(graphs(min_n=2, max_n=6), st.integers(1, 10**6))
def test_proper_spanning_subgraphs_are_dominated(g, pick):
    if g.m == 0:
        return
    drop = pick % ((1 << g.m) - 1) + 1
    edges = [e for i, e in enumerate(g.edge_list()) if not (drop >> i) & 1]
    h = Graph.from_edges(g.n, edges)
    verdict = dominance(g, h)
    if is_connected(g):
        assert verdict is STRICT
    else:
        assert verdict in (STRICT, WEAK)


@given(graphs(min_n=3, max_n=6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_dominance_is_transitive_along_shift_chains(g, a, b):
    u1, v1 = a % g.n, (a // g.n) % g.n
    u2, v2 = b % g.n, (b // g.n) % g.n
    if u1 == v1 or u2 == v2:
        return
    g1, _ = kelmans_transform(g, u1, v1)
    g2, _ = kelmans_transform(g1, u2, v2)
    first = dominance(g1, g)
    second = dominance(g2, g1)
    assert first is not INCOMPARABLE
    assert second is not INCOMPARABLE
    assert dominance(g2, g) is not INCOMPARABLE



@st.composite
def relabelled_classes(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    g = draw(st.sampled_from(connected_odd_cycle_reps(n)))
    return g, draw(st.permutations(range(n)))


@given(relabelled_classes())
def test_dominance_and_max_root_survive_relabelling(pair):
    g, perm = pair
    h = g.relabeled(perm)
    target = make_F(g.n, g.m)
    assert dominance(target, h) is dominance(target, g)
    assert compare_roots(max_matching_root(h), max_matching_root(g)) == EQ
