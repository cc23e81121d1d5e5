import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycle import (
    Graph,
    Graph6Error,
    GraphTooLargeError,
    complete_graph,
    connected_odd_cycle_reps,
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
from oddcycle.graphs import _color_classes, _components, _refine, _search_mappings, iter_bits

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])

from oracles import (
    automorphism_count,
    component_count,
    components_reference,
    graph6_reference,
    has_even_cycle,
    induced,
    labeled_graphs,
    simple_cycles,
    tarjan_blocks,
)
from strategies import graphs


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
    assert g.adj[0] >> 2 & 1 and g.adj[2] >> 0 & 1


def test_edge_list_is_lexicographic():
    g = Graph.from_edges(4, [(2, 3), (0, 3), (1, 0)])
    assert g.edge_list() == ((0, 1), (0, 3), (2, 3))
    assert g.m == 3
    assert g.degree(0) == 2


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
    assert edges == tuple((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1)
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
    assert induced(BOWTIE, [0, 3, 4]) == complete_graph(3)
    # kept vertices are relabeled in increasing order: 0, 1, 3 -> 0, 1, 2
    assert induced(BOWTIE, [3, 1, 0]) == Graph.from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        induced(BOWTIE, [])


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


def _check_components(g, mask):
    got = _components(g.adj, mask)
    # the pieces partition mask
    assert sum(c.bit_count() for c in got) == mask.bit_count()
    assert sum(got) == mask
    # each is connected, and no two are adjacent
    for c in got:
        assert len(components_reference(g.n, g.edge_list(), c)) == 1
    for a, b in combinations(got, 2):
        assert not any(g.adj[v] & b for v in iter_bits(a))
    assert {frozenset(iter_bits(c)) for c in got} == components_reference(g.n, g.edge_list(), mask)


@given(graphs(max_n=12), st.data())
def test_components_split_a_mask_into_connected_pieces(g, data):
    full = (1 << g.n) - 1
    isolated = sum(1 << v for v in range(g.n) if not g.adj[v])
    for mask in (0, full, isolated, data.draw(st.integers(0, full))):
        _check_components(g, mask)


@pytest.mark.parametrize("density", [0.1, 0.2, 0.35])
def test_components_of_sparse_graphs(density):
    # uniform edge masks at order 12 are mostly connected; sparse ones split
    rng = random.Random(int(100 * density))
    for _ in range(200):
        n = rng.randint(1, 12)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        for mask in (0, (1 << n) - 1, rng.getrandbits(n)):
            _check_components(g, mask)


# ------------------------------------------------- the block walk oracle


def _block_sets(g):
    return [frozenset((min(u, v), max(u, v)) for u, v in edges) for edges in tarjan_blocks(g.n, g.adj)]


def _shared_vertices(blocks):
    """Vertices lying in two or more blocks: the cut vertices."""
    seen: set[int] = set()
    shared: set[int] = set()
    for blk in blocks:
        verts = {x for e in blk for x in e}
        shared |= verts & seen
        seen |= verts
    return shared


def test_block_decomposition_examples():
    blocks = _block_sets(BOWTIE)
    assert set(blocks) == {
        frozenset({(0, 1), (0, 2), (1, 2)}),
        frozenset({(0, 3), (0, 4), (3, 4)}),
    }
    assert _shared_vertices(blocks) == {0}

    blocks = _block_sets(path_graph(4))
    assert set(blocks) == {frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(2, 3)})}
    assert _shared_vertices(blocks) == {1, 2}

    blocks = _block_sets(cycle_graph(5))
    assert len(blocks) == 1 and len(blocks[0]) == 5
    assert _shared_vertices(blocks) == set()

    assert _block_sets(Graph.empty(3)) == []


@given(graphs(min_n=2))
def test_blocks_partition_the_edges(g):
    seen: set[tuple[int, int]] = set()
    for edges in tarjan_blocks(g.n, g.adj):
        blk = {(min(u, v), max(u, v)) for u, v in edges}
        assert len(blk) == len(edges)
        assert not (blk & seen)
        seen |= blk
    assert seen == set(g.edge_list())


# --------------------------------------------------------- odd cycle graphs


def _check_block_shape(g):
    """is_odd_cycle_graph and long_odd_cycles against the brute-force cycle
    enumeration and the union-find component count."""
    even = has_even_cycle(g.n, g.edge_list())
    assert is_odd_cycle_graph(g) == (not even)
    shape = long_odd_cycles(g)
    assert (shape is None) == even
    if shape is not None:
        long = sorted(c for c in simple_cycles(g.n, g.edge_list()) if len(c) >= 5)
        assert shape == (component_count(g.n, g.edge_list()), tuple(long))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_odd_cycle_graph_exhaustive(n):
    for g in labeled_graphs(n):
        _check_block_shape(g)


@given(graphs(min_n=6, max_n=7))
def test_odd_cycle_graph_sampled(g):
    _check_block_shape(g)


def test_long_odd_cycles():
    assert long_odd_cycles(BOWTIE) == (1, ())
    assert long_odd_cycles(path_graph(4)) == (1, ())
    assert long_odd_cycles(Graph.empty(3)) == (3, ())
    assert long_odd_cycles(cycle_graph(5)) == (1, ((0, 1, 2, 3, 4),))
    assert long_odd_cycles(cycle_graph(7)) == (1, ((0, 1, 2, 3, 4, 5, 6),))
    two = disjoint_union([cycle_graph(5), cycle_graph(5), path_graph(2), Graph.empty(1)])
    assert long_odd_cycles(two) == (4, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
    # the walk closes the cycle hung at vertex 1 first; the list is sorted
    hung = Graph.from_edges(9, [*cycle_graph(5).edge_list(), (1, 5), (5, 6), (6, 7), (7, 8), (8, 1)])
    assert long_odd_cycles(hung) == (1, ((0, 1, 2, 3, 4), (1, 5, 6, 7, 8)))
    # cycles are reported from their smallest vertex toward its smaller neighbour
    relabeled = cycle_graph(5).relabeled([3, 1, 4, 0, 2])
    _, (cyc,) = long_odd_cycles(relabeled)
    assert cyc[0] == 0 and cyc[1] == min(cyc[1], cyc[-1])
    assert len(cyc) == 5
    # an even cycle, or an odd cycle with a chord, is a block of neither shape
    assert long_odd_cycles(cycle_graph(4)) is None
    assert long_odd_cycles(cycle_graph(6)) is None
    # two triangles sharing an edge: odd fundamental cycles, not edge-disjoint
    assert long_odd_cycles(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])) is None
    assert long_odd_cycles(disjoint_union([BOWTIE, cycle_graph(6)])) is None
    assert long_odd_cycles(Graph.from_edges(5, [*cycle_graph(5).edge_list(), (0, 2)])) is None


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


def _assert_relabelled_copy_is_found(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    colors, signature = _refine(g.n, g.adj)
    h_colors, h_signature = _refine(h.n, h.adj)
    assert h_signature == signature
    assert all(h_colors[perm[v]] == colors[v] for v in range(g.n))
    # the neighbour tuples hold every edge twice, so the signature fixes m
    assert sum(len(nbrs) for _, nbrs in signature) == 2 * g.m
    assert _search_mappings(h, g, h_colors, _color_classes(colors)) is True


def test_search_mappings_answers_whether_a_mapping_exists():
    # C6 and 2C3 share every refinement colour, so only the search tells them
    # apart.  The search maps vertices in label order here; this C6 runs
    # 4-0-1-5-2-3, so without 4 and 5 it is 2K2, which 2C3 contains too.
    c6 = Graph.from_edges(6, [(4, 0), (0, 1), (1, 5), (5, 2), (2, 3), (3, 4)])
    two_c3 = disjoint_union([complete_graph(3)] * 2)
    colors, _ = _refine(6, c6.adj)

    def classes(g):
        return _color_classes(_refine(g.n, g.adj)[0])

    assert _search_mappings(c6, two_c3, colors, classes(two_c3)) is False
    assert _search_mappings(c6, cycle_graph(6), colors, classes(cycle_graph(6))) is True


@settings(max_examples=10)
@given(st.randoms(use_true_random=False))
def test_every_small_odd_cycle_class_is_found_after_a_random_relabelling(rng):
    for n in range(1, 8):
        for g in connected_odd_cycle_reps(n):
            _assert_relabelled_copy_is_found(g, rng)


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_refinement_signature_is_invariant_under_relabelling(g, rng):
    _assert_relabelled_copy_is_found(g, rng)


@given(graphs(max_n=6))
def test_automorphism_count_is_relabel_invariant(g):
    perm = list(range(g.n - 1, -1, -1))
    assert automorphism_count(g) == automorphism_count(g.relabeled(perm))
