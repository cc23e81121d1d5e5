import importlib
import pkgutil
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oddcycle
from oddcycle import (
    Graph,
    IntPolynomial,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_cap,
    make_F,
    matching_polynomial,
    matching_profile,
    max_matching_root,
    max_real_root,
    path_graph,
    polynomial_from_profile,
    star_graph,
)

from oracles import (
    check_deletion_identity,
    check_union_identity,
    labeled_graphs,
    matchings_by_size_reference,
)
from strategies import graphs, seeded_cactus

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


@st.composite
def relabelled_graphs(draw):
    g = draw(graphs())
    return g, g.relabeled(draw(st.permutations(range(g.n))))


def test_profiles_of_known_graphs():
    assert matching_profile(complete_graph(3)) == (1, 3)
    assert matching_profile(path_graph(4)) == (1, 3, 1)
    assert matching_profile(cycle_graph(4)) == (1, 4, 2)
    assert matching_profile(cycle_graph(5)) == (1, 5, 5)
    assert matching_profile(complete_graph(4)) == (1, 6, 3)
    assert matching_profile(star_graph(3)) == (1, 3, 0)
    assert matching_profile(BOWTIE) == (1, 6, 5)
    assert matching_profile(path_graph(5)) == (1, 4, 3)
    assert matching_profile(Graph.empty(4)) == (1, 0, 0)
    assert matching_profile(complete_graph(7)) == (1, 21, 105, 105)
    assert len(matching_profile(star_graph(3))) - 1 == 2


def test_polynomials_of_known_graphs():
    assert matching_polynomial(complete_graph(3)).coeffs == (0, -3, 0, 1)
    assert matching_polynomial(BOWTIE).pretty() == "x^5 - 6x^3 + 5x"
    assert matching_polynomial(Graph.empty(3)).coeffs == (0, 0, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_profile_exhaustive_against_reference(n):
    for g in labeled_graphs(n):
        want = matchings_by_size_reference(g.n, g.edge_list())
        assert matching_profile(g) == want


@given(graphs(min_n=6, max_n=7))
def test_profile_sampled_against_reference(g):
    want = matchings_by_size_reference(g.n, g.edge_list())
    assert matching_profile(g) == want


# the closed forms run to order 64, far past the subset oracle, where the
# profile is assembled from many components at each pivot
@pytest.mark.parametrize("s", range(64))
def test_star_closed_form(s):
    counts = matching_profile(star_graph(s))
    want = tuple(s if k == 1 else (1 if k == 0 else 0) for k in range((s + 1) // 2 + 1))
    assert counts == want


@pytest.mark.parametrize("n", range(1, 65))
def test_path_counts_are_binomials(n):
    counts = matching_profile(path_graph(n))
    assert counts == tuple(comb(n - k, k) for k in range(n // 2 + 1))


@pytest.mark.parametrize("n", range(3, 65))
def test_cycle_counts_closed_form(n):
    counts = matching_profile(cycle_graph(n))
    for k in range(1, n // 2 + 1):
        assert counts[k] * (n - k) == n * comb(n - k, k)
    assert counts[0] == 1


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def test_star_plus_matching_closed_form():
    # F(n, m) has s = m - n + 1 leaf pairs: a k-matching takes k pairs, or
    # the centre with one of the n - 1 - 2s free leaves and k - 1 pairs, or
    # the centre with one end of a pair and k - 1 of the other s - 1 pairs
    graphs_checked = 0
    for n in range(1, 65):
        for m in range(n - 1, edge_cap(n) + 1):
            s = m - n + 1
            want = tuple(
                _binom(s, k) + (n - 1 - 2 * s) * _binom(s, k - 1) + 2 * s * _binom(s - 1, k - 1)
                for k in range(n // 2 + 1)
            )
            assert matching_profile(make_F(n, m)) == want, (n, m)
            graphs_checked += 1
    assert graphs_checked == 1056


def _deleted(g: Graph, drop) -> IntPolynomial:
    """m(G - drop, x), built from a fresh profile of the induced subgraph."""
    sub, _ = g.induced(w for w in range(g.n) if w not in drop)
    return polynomial_from_profile(matching_profile(sub), sub.n)


@pytest.mark.parametrize("seed", range(6))
def test_vertex_recurrence_on_large_cacti(seed):
    """m(G) = x m(G - v) - sum_{u ~ v} m(G - u - v) at each minimum-degree v,
    which is never the recurrence's maximum-degree pivot, on relabelled
    random cacti of order 24..64."""
    g = seeded_cactus(seed)
    whole = _deleted(g, ())
    low = min(g.degree(v) for v in range(g.n))
    assert low < max(g.degree(v) for v in range(g.n))
    for v in range(g.n):
        if g.degree(v) == low:
            rhs = _deleted(g, (v,)).shifted(1)
            for u in range(g.n):
                if g.has_edge(u, v):
                    rhs = rhs - _deleted(g, (u, v))
            assert whole == rhs, v


@pytest.mark.parametrize("seed", range(6, 10))
def test_derivative_identity_on_large_cacti(seed):
    """m'(G, x) = sum_v m(G - v, x) on relabelled random cacti of order 24..64."""
    g = seeded_cactus(seed)
    total = IntPolynomial.zero()
    for v in range(g.n):
        total = total + _deleted(g, (v,))
    assert _deleted(g, ()).derivative() == total


@pytest.mark.parametrize("seed", range(10, 14))
def test_edge_recurrence_on_large_cacti(seed):
    """m(G) = m(G - e) - m(G - u - v) at every edge e = uv with neither end
    of maximum degree, so neither is the recurrence's pivot, on relabelled
    random cacti of order 24..64."""
    g = seeded_cactus(seed)
    whole = _deleted(g, ())
    top = max(g.degree(v) for v in range(g.n))
    checked = 0
    for u, v in g.edge_list():
        if max(g.degree(u), g.degree(v)) < top:
            rest = Graph.from_edges(g.n, [e for e in g.edge_list() if e != (u, v)])
            assert whole == _deleted(rest, ()) - _deleted(g, (u, v)), (u, v)
            checked += 1
    assert checked


@given(graphs())
def test_signed_polynomial_shape(g):
    poly = matching_polynomial(g)
    counts = matching_profile(g)
    assert poly.degree == g.n
    assert poly.leading == 1
    for k, mk in enumerate(counts):
        assert poly.coeffs[g.n - 2 * k] == (-1) ** k * mk
    for i, c in enumerate(poly.coeffs):
        if (g.n - i) % 2 == 1:
            assert c == 0


def test_polynomial_from_profile_rejects_impossible_counts():
    with pytest.raises(ValueError):
        polynomial_from_profile((1, 0, 5), 3)
    assert polynomial_from_profile((1, 0, 0), 3).coeffs == (0, 0, 0, 1)


@given(graphs().filter(lambda g: g.m > 0), st.integers(0, 10**6))
def test_deletion_identity(g, pick):
    edge = g.edge_list()[pick % g.m]
    assert check_deletion_identity(g, edge)


def test_deletion_identity_rejects_non_edge():
    with pytest.raises(ValueError):
        check_deletion_identity(path_graph(3), (0, 2))


def test_deletion_identity_on_k2():
    # the two-vertex case exercises the empty induced-subgraph branch
    assert check_deletion_identity(path_graph(2), (0, 1))


@given(graphs(max_n=5), graphs(max_n=5))
def test_union_identity(g1, g2):
    assert check_union_identity([g1, g2])
    u = disjoint_union([g1, g2])
    assert matching_polynomial(u) == matching_polynomial(g1) * matching_polynomial(g2)


def test_deep_recursion_stays_exact():
    # a larger structured graph: counts must match the subset oracle
    g = disjoint_union([cycle_graph(7), star_graph(4), path_graph(6)])
    assert matching_profile(g) == matchings_by_size_reference(g.n, g.edge_list())


def test_profile_is_isolated_vertex_invariant():
    g = cycle_graph(5)
    padded = disjoint_union([g, Graph.empty(3)])
    assert matching_profile(padded)[:3] == matching_profile(g)
    assert all(c == 0 for c in matching_profile(padded)[3:])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(relabelled_graphs())
def test_memoized_polynomial_and_root_equal_a_fresh_computation(cold_memos, pair):
    # the path and the claw share order and size, so a memo keyed on less
    # than the adjacency would hand one the other's polynomial
    for g in (*pair, path_graph(4), star_graph(3)):
        assert matching_polynomial(g) == matching_polynomial.__wrapped__(g)
        fresh = max_real_root.__wrapped__(matching_polynomial.__wrapped__(g))
        assert max_matching_root(g) == fresh


def test_a_relabelled_copy_costs_no_second_isolation(cold_memos):
    # the root memo is keyed by the polynomial, not by the graph
    h = BOWTIE.relabeled([4, 3, 2, 1, 0])
    assert h != BOWTIE
    assert max_matching_root(h) is max_matching_root(BOWTIE)
    assert max_real_root.cache_info().misses == 1


# memos keyed by an order, which see a handful of keys per process
ORDER_KEYED = {
    "_field_width",
    "_classes",
    "_order_census",
}


def package_memos() -> dict:
    """Every function of the package with a ``cache_info``, by name; the
    __main__ module exits on import and is skipped."""
    memos = {}
    for info in pkgutil.iter_modules(oddcycle.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"oddcycle.{info.name}")
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    memos[value.__name__] = value
    return memos


def test_memos_are_bounded():
    # an unbounded memo would keep every graph of a large sweep alive
    memos = package_memos()
    assert {"matching_polynomial", "max_real_root", "_sturm_chain"} <= memos.keys()
    assert "max_matching_root" not in memos
    assert ORDER_KEYED <= memos.keys()
    for name, memo in memos.items():
        want = None if name in ORDER_KEYED else 4096
        assert memo.cache_info().maxsize == want, name
