
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddcycle import (
    EQ,
    GT,
    LT,
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
    max_real_root,
    parse_graph6,
    path_graph,
    reduce_to_F,
    star_graph,
    write_graph6,
)
from oddcycle import kelmans, matching, roots
from oddcycle.graphs import long_odd_cycles
from oddcycle.extremal import _odd_cycle_classes

from oracles import block_shape_reference, dominance_reference, labeled_graphs
from strategies import graphs, random_cactus

EQUAL = DominanceVerdict.EQUAL_POLYNOMIALS
STRICT = DominanceVerdict.STRICTLY_DOMINATES
WEAK = DominanceVerdict.WEAKLY_DOMINATES
INCOMPARABLE = DominanceVerdict.INCOMPARABLE

# a 5-cycle with a triangle at vertex 2 and a two-edge path at vertex 4
CACTUS = Graph.from_edges(
    9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6), (6, 2), (4, 7), (7, 8)]
)


# ---------------------------------------------------------------- transform


def test_transform_on_five_cycle():
    c5 = cycle_graph(5)
    out = kelmans_transform(c5, 0, 2)
    assert set(out.edge_list()) == {(0, 1), (0, 3), (0, 4), (1, 2), (3, 4)}
    # the reduction of C5 starts with this shift and records it
    step, after = reduce_to_F(c5).steps[0]
    assert after == out
    assert step.beneficiary == 0
    assert step.co_beneficiary == 2
    assert step.moved_edges == ((2, 3),)
    assert step.phase is KelmansPhase.LONG_CYCLE
    assert step.to_json_dict() == {
        "phase": "long_cycle",
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
    assert kelmans_transform(star_graph(3), 0, 1) == star_graph(3)


@given(graphs(min_n=2), st.integers(0, 10**6), st.integers(0, 10**6))
def test_transform_bookkeeping(g, a, b):
    u = a % g.n
    v = b % g.n
    if u == v:
        v = (v + 1) % g.n
    out = kelmans_transform(g, u, v)
    assert out.n == g.n and out.m == g.m
    # replay the shift from its definition: vw becomes uw for every w in
    # N(v) \ (N(u) ∪ {u})
    edges = set(g.edge_list())

    def nbrs(x):
        return {b for a, b in edges if a == x} | {a for a, b in edges if b == x}

    moved = nbrs(v) - nbrs(u) - {u}
    replay = set(edges)
    for w in moved:
        replay.remove((min(v, w), max(v, w)))
        replay.add((min(u, w), max(u, w)))
    assert Graph.from_edges(g.n, replay) == out
    for x in range(g.n):
        if x == u:
            assert out.degree(x) == g.degree(x) + len(moved)
        elif x == v:
            assert out.degree(x) == g.degree(x) - len(moved)
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
    with pytest.raises(ValueError, match="every block to be an edge or odd cycle"):
        reduce_to_F(cycle_graph(4))
    with pytest.raises(ValueError, match="connected graph"):
        reduce_to_F(disjoint_union([path_graph(2), path_graph(2)]))
    # a graph that fails both tests is reported as disconnected
    with pytest.raises(ValueError, match="connected graph"):
        reduce_to_F(disjoint_union([cycle_graph(4), path_graph(2)]))


# (start graph, the phase its first step is in, what the broken shift returns
# instead of its result, the error expected)
_BROKEN_SHIFTS = [
    (cycle_graph(7), "long-cycle phase", None, "cycle edges dropped by less than two"),
    (
        cycle_graph(7),
        "long-cycle phase",
        disjoint_union([complete_graph(3), complete_graph(3), Graph.empty(1)]),
        "graph became disconnected",
    ),
    (
        cycle_graph(7),
        "long-cycle phase",
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6)]),
        "a block stopped being an edge or odd cycle",
    ),
    # vertex 1 is the beneficiary and must gain degree for the shape guards to run
    (
        path_graph(5),
        "degree-lift phase",
        Graph.from_edges(5, [(1, 0), (1, 2), (1, 3)]),
        "graph became disconnected",
    ),
    (
        path_graph(5),
        "degree-lift phase",
        Graph.from_edges(5, [(1, 0), (0, 2), (2, 3), (3, 1), (1, 4)]),
        "a block stopped being an edge or odd cycle",
    ),
]


@pytest.mark.parametrize("start, context, broken, message", _BROKEN_SHIFTS)
def test_reduce_guards_each_step(start, context, broken, message, monkeypatch):
    shift = kelmans.kelmans_transform
    steps = []

    # only the first shift is broken, so that a missing guard lets the
    # reduction run on to some other end instead of looping
    def broken_shift(g, u, v):
        out = shift(g, u, v)
        steps.append((u, v))
        if len(steps) == 1:
            out = g if broken is None else broken
        return out

    monkeypatch.setattr(kelmans, "kelmans_transform", broken_shift)
    with pytest.raises(ReductionInvariantError, match=f"^{context}: {message}$"):
        reduce_to_F(start)


@pytest.mark.parametrize("g", [cycle_graph(9), random_cactus(16, random.Random(7))], ids=["C9", "cactus"])
def test_reduce_walks_the_blocks_of_each_graph_once(g, monkeypatch):
    walks = []
    monkeypatch.setattr(kelmans, "long_odd_cycles", lambda h: walks.append(h.adj) or long_odd_cycles(h))
    trace = reduce_to_F(g)
    assert trace.phase_counts()[KelmansPhase.LONG_CYCLE] > 0
    assert walks == [g.adj] + [after.adj for _, after in trace.steps]


@pytest.mark.parametrize("seed", range(8))
def test_shape_walk_matches_the_block_walk_on_reduction_traces(seed):
    """long_odd_cycles against the Tarjan block oracle on every graph of the
    reduction of a relabelled random cactus of order up to 64, too large for
    the cycle enumeration, and on each of those graphs with one edge added."""
    rng = random.Random(seed)
    n = rng.randrange(24, 65)
    g = random_cactus(n, rng).relabeled(rng.sample(range(n), n))
    for h in [g, *(after for _, after in reduce_to_F(g).steps)]:
        assert long_odd_cycles(h) == block_shape_reference(h)
        u, v = rng.sample(range(n), 2)
        if not h.has_edge(u, v):
            more = Graph.from_edges(n, [*h.edge_list(), (u, v)])
            assert long_odd_cycles(more) == block_shape_reference(more)


@pytest.mark.parametrize("n", range(1, 8))
def test_reduction_steps_record_their_phase_and_the_edges_v_lost(n):
    for g in connected_odd_cycle_reps(n):
        cur, phases = g, []
        for step, after in reduce_to_F(g).steps:
            u, v = step.beneficiary, step.co_beneficiary
            lost = set(cur.edge_list()) - set(after.edge_list())
            gained = set(after.edge_list()) - set(cur.edge_list())
            assert lost == {(min(v, w), max(v, w)) for _, w in step.moved_edges}
            assert gained == {(min(u, w), max(u, w)) for _, w in step.moved_edges}
            assert step.moved_edges and all(x == v for x, _ in step.moved_edges)
            phases.append(step.phase)
            cur = after
        # every step has a phase, and the long-cycle steps come first
        assert phases == sorted(phases, key=[KelmansPhase.LONG_CYCLE, KelmansPhase.DEGREE_LIFT].index)


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


@pytest.mark.parametrize(
    "universe, counts",
    [
        # all 64 labeled graphs of order 4
        (lambda: list(labeled_graphs(4)), (1736, 18, 1754, 588)),
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

    # on both universes Descartes' rule settles every strict pair, with no
    # isolation of d's largest root and without the odd part of d; the
    # isolation fallback is pinned by
    # test_roots::test_compare_max_root_tries_descartes_first
    def unreachable(self):
        raise AssertionError("squarefree_decomposition reached on a strict pair")

    isolate = roots.max_real_root
    calls = []

    def counting(p):
        calls.append(p)
        return isolate(p)

    monkeypatch.setattr(IntPolynomial, "squarefree_decomposition", unreachable)
    # compare_max_root looks max_real_root up in its own module; dominance
    # isolates t(G1) through the name kelmans imported, which stays uncounted
    monkeypatch.setattr(roots, "max_real_root", counting)
    for (g1, g2), verdict in zip(pairs, want):
        if verdict is STRICT:
            calls.clear()
            assert dominance(g1, g2) is STRICT
            assert len(calls) == 0


def test_one_query_expands_each_graph_once(cold_memos, monkeypatch):
    profiled = []
    profile = matching.matching_profile
    monkeypatch.setattr(matching, "matching_profile", lambda g: profiled.append(g) or profile(g))
    # each make_F call builds a new, equal graph: the memos hit by value
    t_g = max_matching_root(CACTUS)
    assert dominance(make_F(CACTUS.n, CACTUS.m), CACTUS) is STRICT
    t_f = max_matching_root(make_F(CACTUS.n, CACTUS.m))
    assert profiled == [CACTUS, make_F(CACTUS.n, CACTUS.m)]
    assert max_real_root.cache_info().misses == 2
    # one chain each for the Q1 of m(G) and of m(F); Descartes' rule settles
    # the strict case, so d gets none
    assert roots._sturm_chain.cache_info().misses == 2
    assert compare_roots(t_f, t_g) == GT


def test_dominance_reference_bypasses_the_memos(cold_memos):
    assert dominance_reference(make_F(CACTUS.n, CACTUS.m), CACTUS) is STRICT
    for memo in (matching_polynomial, max_real_root):
        assert memo.cache_info().hits == memo.cache_info().misses == 0


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
    g1 = kelmans_transform(g, u1, v1)
    g2 = kelmans_transform(g1, u2, v2)
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
