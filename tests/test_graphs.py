import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddcycle import (
    Graph,
    Graph6Error,
    GraphTooLargeError,
    automorphism_count,
    block_decomposition,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    is_isomorphic,
    is_odd_cycle_graph,
    long_odd_cycles,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])

from oracles import graph6_reference, has_even_cycle


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


# ------------------------------------------------------------------ basics


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        Graph.from_edges(65, [])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    g = Graph.from_edges(3, [(2, 0)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)


def test_edge_list_is_lexicographic():
    g = Graph.from_edges(4, [(2, 3), (0, 3), (1, 0)])
    assert g.edge_list() == ((0, 1), (0, 3), (2, 3))
    assert g.m == 3
    assert g.degree(0) == 2
    assert g.max_degree() == 2


@given(graphs())
def test_edge_count_read_once_keeps_equality_hash_and_pickle(g):
    fresh = Graph(g.n, g.adj)
    assert g.m == sum(row.bit_count() for row in g.adj) // 2
    assert "m" in vars(g)  # counted once, then read from the instance
    assert g == fresh and fresh == g
    assert hash(g) == hash(fresh)
    assert len({g, fresh}) == 1
    copy = pickle.loads(pickle.dumps(g))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert copy.m == g.m
    assert pickle.loads(pickle.dumps(fresh)).m == g.m


@given(graphs())
def test_edge_list_built_once_keeps_equality_hash_and_pickle(g):
    fresh = Graph(g.n, g.adj)
    edges = g.edge_list()
    assert edges == tuple((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v))
    assert g.edge_list() is edges  # built once, then read from the instance
    assert g == fresh and hash(g) == hash(fresh)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert copy.edge_list() == edges


def test_constructors():
    assert path_graph(1).m == 0
    assert path_graph(5).m == 4
    assert cycle_graph(5).m == 5
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert star_graph(0).n == 1
    assert star_graph(4).degree(0) == 4
    with pytest.raises(ValueError):
        star_graph(-1)
    assert complete_graph(5).m == 10
    u = disjoint_union([complete_graph(3), path_graph(2)])
    assert (u.n, u.m) == (5, 4)
    with pytest.raises(ValueError):
        disjoint_union([])


@given(graphs())
def test_relabel_roundtrip(g):
    perm = list(range(g.n - 1, -1, -1))
    inv = [0] * g.n
    for old, new in enumerate(perm):
        inv[new] = old
    assert g.relabeled(perm).relabeled(inv) == g
    if g.n > 1:
        with pytest.raises(ValueError):
            g.relabeled([0] * g.n)


def test_induced():
    sub, labels = BOWTIE.induced([0, 3, 4])
    assert labels == (0, 3, 4)
    assert sub == complete_graph(3)
    with pytest.raises(ValueError):
        BOWTIE.induced([])


# ------------------------------------------------------------------ graph6


def test_graph6_known_strings():
    assert write_graph6(Graph.empty(1)) == "@"
    assert write_graph6(path_graph(2)) == "A_"
    assert write_graph6(complete_graph(3)) == "Bw"
    assert write_graph6(path_graph(3)) == "Bg"
    assert write_graph6(cycle_graph(4)) == "Cl"
    assert write_graph6(cycle_graph(5)) == "Dhc"
    assert write_graph6(complete_graph(7)) == "F~~~w"
    assert parse_graph6("DhC") == path_graph(5)


@given(graphs(max_n=9))
def test_graph6_roundtrip_and_reference(g):
    text = write_graph6(g)
    assert text == graph6_reference(g.n, g.edge_list())
    assert parse_graph6(text) == g


def test_graph6_large_orders_roundtrip():
    for g in (Graph.empty(63), Graph.empty(64), path_graph(64)):
        text = write_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_graph6_header_prefix_and_whitespace():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
    assert parse_graph6("  Bw\n") == complete_graph(3)


def test_graph6_malformed_inputs():
    for bad in ["", "=", "B", "BwX", "A`", "~~", "~??", chr(40)]:
        with pytest.raises(Graph6Error):
            parse_graph6(bad)
    # extended header carrying an order beyond the supported range
    with pytest.raises(Graph6Error):
        parse_graph6("~" + chr(63) + chr(63 + 1) + chr(63 + 36))


graph6_alphabet = st.characters(min_codepoint=63, max_codepoint=126)


@given(st.one_of(st.text(), st.text(graph6_alphabet, max_size=12).map(lambda t: ">>graph6<<" + t)))
def test_graph6_arbitrary_text_parses_or_raises_graph6_error(text):
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert isinstance(g, Graph)


# --------------------------------------------------------------- edge lists


@given(graphs())
def test_edge_list_roundtrip(g):
    text = "".join([f"n {g.n}\n", *(f"{u} {v}\n" for u, v in g.edge_list())])
    assert parse_edge_list(text) == g


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("m 3\n0 1")
    with pytest.raises(ValueError):
        parse_edge_list("n x")
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 1 2")
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 one")
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 1\n1 0")
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 3")


# ------------------------------------------------------------- connectivity


def test_components():
    g = disjoint_union([complete_graph(3), path_graph(2), Graph.empty(1)])
    assert not is_connected(g)
    assert is_connected(BOWTIE)
    assert is_connected(Graph.empty(1))


# ------------------------------------------------------------------- blocks


def test_block_decomposition_examples():
    bd = block_decomposition(BOWTIE)
    assert set(bd.blocks) == {
        frozenset({(0, 1), (0, 2), (1, 2)}),
        frozenset({(0, 3), (0, 4), (3, 4)}),
    }
    assert bd.cut_vertices == {0}

    bd = block_decomposition(path_graph(4))
    assert set(bd.blocks) == {frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(2, 3)})}
    assert bd.cut_vertices == {1, 2}

    bd = block_decomposition(cycle_graph(5))
    assert len(bd.blocks) == 1 and len(bd.blocks[0]) == 5
    assert bd.cut_vertices == frozenset()

    bd = block_decomposition(Graph.empty(3))
    assert bd.blocks == () and bd.cut_vertices == frozenset()


def _component_count(n, edges, skip=None):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u == skip or v == skip:
            continue
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n) if v != skip})


@given(graphs(min_n=2))
def test_block_partition_and_cut_vertices(g):
    bd = block_decomposition(g)
    seen: set[tuple[int, int]] = set()
    for blk in bd.blocks:
        assert not (blk & seen)
        seen |= blk
    assert seen == set(g.edge_list())
    base = _component_count(g.n, g.edge_list())
    expected_cuts = {
        v
        for v in range(g.n)
        if g.degree(v) > 0 and _component_count(g.n, g.edge_list(), skip=v) > base
    }
    assert bd.cut_vertices == expected_cuts


# --------------------------------------------------------- odd cycle graphs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_odd_cycle_graph_exhaustive(n):
    for g in all_graphs(n):
        assert is_odd_cycle_graph(g) == (not has_even_cycle(g.n, g.edge_list()))


@given(graphs(min_n=6, max_n=7))
def test_odd_cycle_graph_sampled(g):
    assert is_odd_cycle_graph(g) == (not has_even_cycle(g.n, g.edge_list()))


def test_long_odd_cycles():
    assert long_odd_cycles(cycle_graph(5)).cycles == ((0, 1, 2, 3, 4),)
    assert long_odd_cycles(cycle_graph(7)).cycles == ((0, 1, 2, 3, 4, 5, 6),)
    assert long_odd_cycles(complete_graph(3)).cycles == ()
    assert long_odd_cycles(BOWTIE).cycles == ()
    two = disjoint_union([cycle_graph(5), cycle_graph(5)])
    got = long_odd_cycles(two)
    assert got.cycles == ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    assert got.edge_count() == 10
    # cycles are reported from their smallest vertex toward its smaller neighbour
    relabeled = cycle_graph(5).relabeled([3, 1, 4, 0, 2])
    (cyc,) = long_odd_cycles(relabeled).cycles
    assert cyc[0] == 0 and cyc[1] == min(cyc[1], cyc[-1])
    assert len(cyc) == 5


# ------------------------------------------------------------- isomorphism


def test_isomorphism_basics():
    assert is_isomorphic(path_graph(4), path_graph(4).relabeled([2, 0, 3, 1]))
    assert not is_isomorphic(star_graph(3), path_graph(4))
    assert not is_isomorphic(cycle_graph(6), disjoint_union([complete_graph(3)] * 2))
    assert not is_isomorphic(path_graph(3), path_graph(4))
    with pytest.raises(GraphTooLargeError):
        is_isomorphic(path_graph(11), path_graph(11))


@given(graphs())
def test_isomorphism_under_relabeling(g):
    perm = list(range(1, g.n)) + [0]
    assert is_isomorphic(g, g.relabeled(perm))


def test_automorphism_counts():
    assert automorphism_count(path_graph(4)) == 2
    assert automorphism_count(cycle_graph(5)) == 10
    assert automorphism_count(complete_graph(4)) == 24
    assert automorphism_count(star_graph(3)) == 6
    assert automorphism_count(BOWTIE) == 8
    assert automorphism_count(Graph.empty(3)) == 6
    assert automorphism_count(disjoint_union([complete_graph(3), Graph.empty(1)])) == 6
    with pytest.raises(GraphTooLargeError):
        automorphism_count(Graph.empty(12))


@given(graphs(max_n=6))
def test_automorphism_count_is_relabel_invariant(g):
    perm = list(range(g.n - 1, -1, -1))
    assert automorphism_count(g) == automorphism_count(g.relabeled(perm))
