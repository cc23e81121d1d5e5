import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddcycle import (
    EQ,
    GT,
    Graph,
    GraphTooLargeError,
    IntPolynomial,
    Orientation,
    all_orientations,
    compare_roots,
    complete_graph,
    cycle_graph,
    is_odd_cycle_graph,
    matching_polynomial,
    max_matching_root,
    max_skew_spectral_radius,
    path_graph,
    skew_char_poly,
    skew_spectral_radius,
    star_graph,
    switching_representatives,
)
from oddcycle import skew as skew_module
from oddcycle.skew import _alternating_form

from oracles import charpoly_reference, labeled_graphs, matchings_by_size_reference
from strategies import graphs

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


@st.composite
def oriented_graphs(draw, max_n=5):
    g = draw(graphs(max_n=max_n))
    omask = draw(st.integers(0, (1 << g.m) - 1))
    return Orientation(g, omask)


def test_orientation_basics():
    k3 = complete_graph(3)
    o = Orientation(k3, 0)
    assert o.arcs() == ((1, 0), (2, 0), (2, 1))
    assert Orientation(k3, 0b111).arcs() == ((0, 1), (0, 2), (1, 2))
    assert Orientation(k3, 5).mask_hex() == "0x5"
    with pytest.raises(ValueError):
        Orientation(k3, 8)
    with pytest.raises(ValueError):
        Orientation(k3, -1)


@given(oriented_graphs())
def test_skew_matrix_is_skew_symmetric(o):
    s = o.skew_matrix()
    n = o.graph.n
    for i in range(n):
        for j in range(n):
            assert s[i][j] == -s[j][i]
            if i != j:
                assert abs(s[i][j]) == (1 if o.graph.has_edge(i, j) else 0)
        assert s[i][i] == 0


@given(oriented_graphs(max_n=8))
def test_char_poly_matches_laplace_expansion(o):
    assert skew_char_poly(o).coeffs == charpoly_reference(o.skew_matrix())[: o.graph.n + 1]


def test_char_poly_matches_laplace_expansion_exhaustive():
    """Every orientation of every labeled graph of order <= 4, and every
    switching-class representative of every labeled graph of order 5."""
    checked = 0
    for n in range(1, 6):
        for g in labeled_graphs(n):
            masks = range(1 << g.m) if n <= 4 else switching_representatives(g)
            for mask in masks:
                o = Orientation(g, mask)
                assert skew_char_poly(o).coeffs == charpoly_reference(o.skew_matrix())[: n + 1]
                checked += 1
    assert checked == 1 + 3 + 27 + 729 + 3969


@given(oriented_graphs())
def test_char_poly_parity_and_shape(o):
    phi = skew_char_poly(o)
    n = o.graph.n
    assert phi.degree == n
    assert phi.leading == 1
    for i, c in enumerate(phi.coeffs):
        if (n - i) % 2 == 1:
            assert c == 0
        else:
            # even skew minors are squares, so all surviving terms are positive
            assert c >= 0


def _switched(o: Orientation, vertices: int) -> Orientation:
    """Reverse every arc with exactly one endpoint in the vertex bitmask."""
    mask = o.mask
    for k, (u, v) in enumerate(o.graph.edge_list()):
        if (vertices >> u ^ vertices >> v) & 1:
            mask ^= 1 << k
    return Orientation(o.graph, mask)


@given(oriented_graphs(max_n=6), st.integers(0, (1 << 6) - 1))
def test_switching_keeps_class_and_char_poly(o, vertices):
    vertices &= (1 << o.graph.n) - 1
    switched = _switched(o, vertices)
    # the switchings of o reach exactly one representative, and the same one
    # from the switched orientation
    reps = set(switching_representatives(o.graph))
    cuts = {_switched(Orientation(o.graph, 0), x).mask for x in range(1 << o.graph.n)}
    reached = {o.mask ^ cut for cut in cuts} & reps
    assert len(reached) == 1
    assert {switched.mask ^ cut for cut in cuts} & reps == reached
    want = charpoly_reference(o.skew_matrix())[: o.graph.n + 1]
    assert skew_char_poly(switched).coeffs == want


def _component_count(g: Graph) -> int:
    """Connected components, one depth-first search per unvisited vertex."""
    seen = 0
    count = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        count += 1
        seen |= 1 << root
        stack = [root]
        while stack:
            u = stack.pop()
            for w in range(g.n):
                if g.has_edge(u, w) and not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
    return count


def test_switching_representatives_exhaustive():
    # as many representatives as classes, and no two in one class: exactly
    # one representative per class
    for n in range(1, 6):
        for g in labeled_graphs(n):
            reps = list(switching_representatives(g))
            c = _component_count(g)
            assert reps == sorted(reps)
            assert len(set(reps)) == len(reps) == 1 << (g.m - n + c)
            base = Orientation(g, 0)
            cuts = {_switched(base, x).mask for x in range(1 << n)}
            for i, a in enumerate(reps):
                for b in reps[i + 1:]:
                    assert a ^ b not in cuts


def matching_count_polynomial(g: Graph) -> IntPolynomial:
    """sum_k m_k x^(n-2k), with the m_k from the subset oracle."""
    coeffs = [0] * (g.n + 1)
    for k, mk in enumerate(matchings_by_size_reference(g.n, g.edge_list())):
        coeffs[g.n - 2 * k] = mk
    return IntPolynomial.from_coeffs(coeffs)


@pytest.mark.parametrize("n", range(1, 6))
def test_identity_target_matches_the_subset_oracle(n):
    # the identity sweep's target is the alternating form of m(G); hold it
    # to matchings counted without the deletion recurrence
    for g in labeled_graphs(n):
        assert _alternating_form(matching_polynomial(g), n) == matching_count_polynomial(g)


def test_identity_on_triangle():
    k3 = complete_graph(3)
    assert _alternating_form(matching_polynomial(k3), 3).coeffs == (0, 3, 0, 1)
    for o in all_orientations(k3):
        assert skew_char_poly(o).coeffs == (0, 3, 0, 1)
        assert skew_char_poly(o) == matching_count_polynomial(o.graph)


def test_identity_on_five_cycle():
    c5 = cycle_graph(5)
    assert _alternating_form(matching_polynomial(c5), 5).coeffs == (0, 5, 0, 5, 0, 1)
    for o in all_orientations(c5):
        assert skew_char_poly(o).coeffs == (0, 5, 0, 5, 0, 1)
        assert skew_char_poly(o) == matching_count_polynomial(o.graph)


def test_identity_fails_on_even_cycle():
    c4 = cycle_graph(4)
    polys = {}
    for o in all_orientations(c4):
        phi = skew_char_poly(o)
        polys[phi.coeffs] = polys.get(phi.coeffs, 0) + 1
        # x^4 + 4x^2 + 2 is never attained, so every orientation violates
        assert skew_char_poly(o) != matching_count_polynomial(o.graph)
    assert polys == {(4, 0, 4, 0, 1): 8, (0, 0, 4, 0, 1): 8}


def test_identity_on_bowtie_and_path():
    for g in (BOWTIE, path_graph(4), path_graph(1)):
        for o in all_orientations(g):
            assert skew_char_poly(o) == matching_count_polynomial(o.graph)


def test_spectral_radius_examples():
    k3 = complete_graph(3)
    rho = skew_spectral_radius(Orientation(k3, 0))
    assert compare_roots(rho, max_matching_root(k3)) == EQ
    assert rho.decimal_str(6) == "1.732051"

    # C4 splits by orientation: x^4 + 4x^2 (rho = 2) or (x^2 + 2)^2 (rho = sqrt 2)
    c4 = cycle_graph(4)
    assert skew_char_poly(Orientation(c4, 1)).coeffs == (0, 0, 4, 0, 1)
    assert skew_spectral_radius(Orientation(c4, 1)).compare_to_rational(2) == EQ
    # the alternating orientation instead gives (x^2 - 2)^2, rho = sqrt(2)
    assert skew_spectral_radius(Orientation(c4, 0)).decimal_str(6) == "1.414214"

    best = max_skew_spectral_radius(c4)
    assert best.compare_to_rational(2) == EQ
    assert compare_roots(best, max_matching_root(c4)) == GT

    assert skew_spectral_radius(Orientation(Graph.empty(3), 0)).compare_to_rational(0) == EQ


@given(oriented_graphs(max_n=4))
def test_radius_agrees_with_matching_root_on_odd_cycle_graphs(o):
    if is_odd_cycle_graph(o.graph):
        assert compare_roots(skew_spectral_radius(o), max_matching_root(o.graph)) == EQ


def cliques(*sizes: int) -> Graph:
    """Disjoint complete graphs of the given orders."""
    edges, base = [], 0
    for k in sizes:
        edges += [(base + u, base + v) for u, v in complete_graph(k).edge_list()]
        base += k
    return Graph.from_edges(base, edges)


def test_size_guards(monkeypatch):
    with pytest.raises(GraphTooLargeError):
        skew_char_poly(Orientation(Graph.empty(25), 0))

    def unreachable(o):
        raise AssertionError("evaluated an orientation of a refused graph")

    monkeypatch.setattr(skew_module, "skew_spectral_radius", unreachable)
    # each sweep refuses a graph just above its cap before it evaluates one
    # orientation; at the cap it starts.  `skew --all` takes m <= 14
    assert next(all_orientations(star_graph(14))).mask == 0
    with pytest.raises(GraphTooLargeError):
        next(all_orientations(star_graph(15)))
    # the radius sweep takes m - n + c <= 12, the log2 of its switching
    # classes: K6 + K3 + K3 has 10 + 1 + 1 free bits, K6 + K4 has 10 + 3
    assert sum(1 for _ in switching_representatives(cliques(6, 3, 3))) == 2**12
    with pytest.raises(GraphTooLargeError):
        max_skew_spectral_radius(cliques(6, 4))
    # a vertex joined to four vertices of K6: 10 + 3 free bits
    k6_plus = Graph.from_edges(7, list(complete_graph(6).edge_list()) + [(u, 6) for u in range(4)])
    with pytest.raises(GraphTooLargeError):
        max_skew_spectral_radius(k6_plus)
    monkeypatch.undo()
    # K_{1,21} has 21 edges and no free bit
    star = star_graph(21)
    assert compare_roots(max_skew_spectral_radius(star), max_matching_root(star)) == EQ
