"""Extremal families, odd-cycle graphs by isomorphism class, and
verification sweeps.

F(n, m) is the star on vertex 0 plus a matching among its leaves; H_n is the
edge-maximal member F(n, floor(3(n-1)/2)).  The connected classes, of
odd-cycle graphs or of all graphs, are grown one vertex at a time and count
their own labeled copies; the odd-cycle graphs of order n are multisets of
them.  Class generation colour-refines each candidate once and searches for
an isomorphism only among kept graphs with the same refinement signature.
The sweeps here machine-check the classification of max-root maximizers,
grid monotonicity of t(F(n, m)), the reduction to F, the dominance behaviour
of the Kelmans shift, and the identity and the spectral radius of skew
matrices.  Every sweep runs in the calling process.  All but the grid run
over isomorphism classes; the identity sweep also walks the labeled graphs
with an even cycle, in _labeled_rows.  Each sweep returns a
VerificationReport; a nonempty counterexample list means the claim failed.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import permutations
from types import MappingProxyType

from .graphs import (
    Graph,
    GraphTooLargeError,
    _color_classes,
    _component_mask,
    _refine,
    _search_mappings,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    is_odd_cycle_graph,
    iter_bits,
    star_graph,
    write_graph6,
)
from .kelmans import (
    DominanceVerdict,
    KelmansPhase,
    _is_star_plus_matching,
    dominance,
    kelmans_transform,
    reduce_to_F,
)
from .matching import matching_polynomial, matching_profile, polynomial_from_profile
from .polynomials import IntPolynomial
from .roots import (
    EQ, GT, AlgebraicRoot, compare_max_root, compare_roots, max_matching_root, max_real_root
)
from .skew import (
    Orientation,
    _alternating_form,
    skew_char_poly,
    skew_spectral_radius,
    switching_representatives,
)

STRUCTURED_MAX_N = 11

# suite -> (lowest order, highest order, CLI default for --max-n); for
# monotonicity the order is the grid's largest n
SUITE_ORDERS = {
    "classification": (2, 8, 6),
    "conjecture": (2, 8, 6),
    "monotonicity": (2, 20, 20),
    "reduction": (1, 8, 6),
    "dominance": (2, 6, 5),
    "identity": (1, 6, 5),
    "radius": (1, 6, 5),
}


def edge_cap(n: int) -> int:
    """Largest edge count an odd-cycle graph of order n can have."""
    if n < 1:
        raise ValueError("order must be positive")
    return (3 * (n - 1)) // 2


def make_F(n: int, m: int) -> Graph:
    """Star plus leaf matching: center 0, extra edges (1,2), (3,4), ...

    The unique odd-cycle graph of order n and size m with a vertex of degree
    n - 1, available for n - 1 <= m <= floor(3(n-1)/2).  F(1, 0) is the
    single vertex.
    """
    if n < 1:
        raise ValueError("F(n, m) needs n >= 1")
    cap = edge_cap(n)
    if not n - 1 <= m <= cap:
        raise ValueError(f"F({n}, {m}) needs {n - 1} <= m <= {cap}")
    edges = [(0, v) for v in range(1, n)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(m - (n - 1))]
    return Graph.from_edges(n, edges)


def make_H(n: int) -> Graph:
    """Edge-maximal star-plus-matching graph of order n."""
    return make_F(n, edge_cap(n))


# -------------------------------------------------------------- enumeration


def _labeled_rows(n: int):
    """Yield every labeled graph of order n, edge masks ascending.  Bit k of
    the mask is the k-th vertex pair in lexicographic order.  The identity
    sweep walks them for the graphs with an even cycle."""
    pairs = []  # (u, v, bit of u, bit of v, bit of the pair in the mask)
    for u in range(n):
        for v in range(u + 1, n):
            pairs.append((u, v, 1 << u, 1 << v, 1 << len(pairs)))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for u, v, bu, bv, bit in pairs:
            if mask & bit:
                rows[u] |= bv
                rows[v] |= bu
        yield Graph(n, tuple(rows))


def connected_odd_cycle_reps(n: int) -> tuple[Graph, ...]:
    """Connected odd-cycle graphs of order n, one per isomorphism class."""
    return tuple(g for g, _ in _classes(n, True))


@functools.cache
def _classes(n: int, odd: bool) -> tuple[tuple[Graph, int], ...]:
    """(representative, labeled copies) per isomorphism class of the
    connected graphs of order n: odd-cycle graphs if odd, else all.

    Let X(G) be the leaves of G, or its non-cut vertices if it has no leaf.
    Deleting any x in X(G) leaves a connected graph of the same kind, so
    every class is a class B of order n - 1 plus a new vertex joined to a
    set S that is a single vertex or holds every leaf of B.  Each such S
    puts the new vertex in X, so both sides count the pairs (labeled G,
    x in X(G)): copies(C) * |X(C)| = n * sum copies(B) over the candidates
    that land in C.  In an odd-cycle graph a non-cut vertex lies in exactly
    one block, an edge or an odd cycle, so there |S| <= 2 and a pair is
    kept only if the candidate is an odd-cycle graph.  Each order is grown
    once per process; the smaller orders come from the cache.
    """
    if not 1 <= n <= STRUCTURED_MAX_N:
        raise GraphTooLargeError(f"structured generation limited to n <= {STRUCTURED_MAX_N}")
    if n == 1:
        return ((Graph.empty(1), 1),)
    k = n - 1
    sets = [1 << a | 1 << b for b in range(k) for a in range(b + 1)] if odd else range(1, 1 << k)
    candidates: list[tuple[Graph, int]] = []
    for base, copies in _classes(k, odd):
        leaves = sum(1 << v for v, row in enumerate(base.adj) if row.bit_count() == 1)
        for nbrs in sets:
            single = not nbrs & (nbrs - 1)
            if not single and nbrs & leaves != leaves:
                continue
            rows = list(base.adj) + [nbrs]
            for r in iter_bits(nbrs):
                rows[r] |= 1 << k
            g = Graph(n, tuple(rows))
            if single or not odd or is_odd_cycle_graph(g):
                candidates.append((g, copies))
    return tuple((g, n * weight // _end_count(g)) for g, weight in _one_per_class(candidates))


def _end_count(g: Graph) -> int:
    """|X(G)|: the leaves of a connected g of order >= 2, or, if it has
    none, the vertices whose deletion leaves it connected."""
    rest = [(1 << g.n) - 1 ^ 1 << v for v in range(g.n)]
    return (sum(row.bit_count() == 1 for row in g.adj)
            or sum(_component_mask(g.adj, (v + 1) % g.n, rest[v]) == rest[v] for v in range(g.n)))


def _one_per_class(candidates) -> list[list]:
    """[first graph, summed weight] per isomorphism class of the (graph,
    weight) candidates, in order.

    Each candidate is colour-refined once.  Isomorphic graphs have the same
    refinement signature, which also fixes the order and the edge count, so
    only kept graphs of the same signature are compared; the backtracking
    search against each, on its kept colour classes, decides exactly."""
    buckets: dict[tuple, list[tuple[list, dict]]] = {}
    kept: list[list] = []
    for cand, weight in candidates:
        colors, signature = _refine(cand.n, cand.adj)
        bucket = buckets.setdefault(signature, [])
        for entry, classes in bucket:
            if _search_mappings(cand, entry[0], colors, classes):
                entry[1] += weight
                break
        else:
            entry = [cand, weight]
            bucket.append((entry, _color_classes(colors)))
            kept.append(entry)
    return kept


def _odd_cycle_classes(n: int):
    """Stream (graph, labeled copies) for the odd-cycle graphs of order n,
    one per isomorphism class.

    Such a graph is a multiset of connected classes whose orders sum to n.
    The multisets are visited as nondecreasing index runs over the connected
    representatives of orders 1..n; representatives of one order are pairwise
    non-isomorphic, so every class appears exactly once.  A labeled copy
    splits the n labels into the k_C unordered |C|-sets of each connected
    class C and puts a labeled copy of C on each set, so there are
    n! * prod_C copies(C)^k_C / (|C|!^k_C * k_C!) of them.
    """
    pool = [(g, c) for k in range(1, n + 1) for g, c in _classes(k, True)]

    def runs(start: int, left: int):
        if not left:
            yield []
            return
        for i in range(start, len(pool)):
            if pool[i][0].n > left:
                break
            for rest in runs(i, left - pool[i][0].n):
                yield [i, *rest]

    for parts in runs(0, n):
        copies, split = math.factorial(n), 1
        for i, k in Counter(parts).items():
            g, c = pool[i]
            copies *= c ** k
            split *= math.factorial(g.n) ** k * math.factorial(k)
        yield disjoint_union([pool[i][0] for i in parts]), copies // split


# -------------------------------------------------------------------- report


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one sweep: what was checked and everything that failed."""

    claim: str
    universe: str
    checked: int
    counterexamples: tuple[str, ...]
    witnesses: tuple[str, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "universe": self.universe,
            "checked": self.checked,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
            "witnesses": list(self.witnesses),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def to_table(self) -> str:
        lines = [
            f"claim {self.claim}: {'PASS' if self.passed else 'FAIL'}",
            f"  universe: {self.universe}",
            f"  checked: {self.checked}",
            f"  elapsed: {self.elapsed_seconds:.2f}s",
        ]
        lines += [f"  witness: {w}" for w in self.witnesses]
        lines += [f"  counterexample: {c}" for c in self.counterexamples]
        return "\n".join(lines)


def merge_reports(claim: str, universe: str, parts: list[VerificationReport]) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        universe=universe,
        checked=sum(p.checked for p in parts),
        counterexamples=tuple(c for p in parts for c in p.counterexamples),
        witnesses=tuple(w for p in parts for w in p.witnesses),
        elapsed_seconds=sum(p.elapsed_seconds for p in parts),
    )


def _check_order(suite: str, n: int) -> None:
    lo, hi, _ = SUITE_ORDERS[suite]
    if not lo <= n <= hi:
        raise ValueError(f"{suite} sweep supports {lo} <= n <= {hi}")


def _report(claim: str, universe: str, checked: int, bad, witnesses, t0: float):
    """A report whose elapsed time runs from t0 to now."""
    elapsed = time.perf_counter() - t0
    return VerificationReport(claim, universe, checked, tuple(bad), tuple(witnesses), elapsed)


# ------------------------------------------------------- profile census


def _running_best(pairs):
    """(best root, keys) over (polynomial, keys) pairs: the largest root and
    the keys of every pair whose largest root equals it, in order.  After
    the first, each polynomial is placed by compare_max_root, whose Descartes
    test drops most without an isolation; one found above was just
    isolated, so max_real_root returns its root from the memo."""
    best_root: AlgebraicRoot | None = None
    best: list = []
    for poly, keys in pairs:
        cmp = GT if best_root is None else compare_max_root(poly, best_root)
        if cmp == GT:
            best_root, best = max_real_root(poly), list(keys)
        elif cmp == EQ:
            best.extend(keys)
    assert best_root is not None
    return best_root, best


def _profile_champions(n: int, groups: dict[tuple[int, ...], list]):
    """Exact max-root winners among profile groups, (root, [profiles]): a
    running best over the sorted profiles, which isolates a profile's root
    only when it is first or Descartes' rule cannot place it below the best
    so far.  The root is the first winner's own max_real_root."""
    return _running_best((polynomial_from_profile(prof, n), [prof]) for prof in sorted(groups))


@dataclass(frozen=True)
class _SizeCensus:
    """The odd-cycle graphs of one order and size, grouped by matching
    profile, and the groups whose polynomial has the largest root."""

    groups: Mapping[tuple[int, ...], tuple[int, str]]  # profile -> (labeled count, smallest graph6)
    root: AlgebraicRoot
    champions: tuple[tuple[int, ...], ...]


@functools.cache
def _order_census(n: int) -> Mapping[int, _SizeCensus]:
    """Read-only {m: _SizeCensus} for 1 <= m <= edge_cap(n), built once per
    process and shared by the classification and conjecture sweeps.

    Each class counts its labeled copies, so the totals equal a sweep over
    every labeled edge subset.  Up to n = 10 the first sorted profile of
    each size wins, so the census isolates one root per size.
    """
    census: dict[int, dict[tuple[int, ...], list]] = {m: {} for m in range(1, edge_cap(n) + 1)}
    for g, copies in _odd_cycle_classes(n):
        if not g.m:
            continue
        g6 = write_graph6(g)
        entry = census[g.m].setdefault(matching_profile(g), [0, g6])
        entry[0] += copies
        entry[1] = min(entry[1], g6)
    out = {}
    for m, groups in census.items():
        root, champs = _profile_champions(n, groups)
        frozen = MappingProxyType({prof: tuple(entry) for prof, entry in groups.items()})
        out[m] = _SizeCensus(frozen, root, tuple(champs))
    return MappingProxyType(out)


def _pad_to(g: Graph, n: int) -> Graph:
    if g.n == n:
        return g
    return disjoint_union([g, Graph.empty(n - g.n)])


def _F_quartic(n: int, m: int) -> IntPolynomial:
    """x^4 - n x^2 + p, p = 3n - 3 - 2m, whose largest root is t(F(n, m)):
    x(x^2 - 1) m(F, x) = x^p (x^2 - 1)^k (x^4 - n x^2 + p), k = m - n + 1."""
    return IntPolynomial.from_coeffs([3 * n - 3 - 2 * m, 0, -n, 0, 1])


def _centred_copies(n: int, s: int, k: int) -> int:
    """Labeled copies of a star K_{1,s} with k disjoint edges among its
    leaves, padded with n - s - 1 isolated vertices.  For s >= 3, or s = 2
    and k = 0, the centre is the only vertex adjacent to every other vertex
    with an edge, so a copy is a choice of the centre, the k unordered
    matched pairs, the s - 2k other leaves and the isolated vertices."""
    parts = 2 ** k * math.factorial(k) * math.factorial(s - 2 * k) * math.factorial(n - s - 1)
    return math.factorial(n) // parts


def _claimed_maximizers(n: int, m: int) -> tuple[list[tuple[Graph, int]], IntPolynomial]:
    """Expected max-root winners of order n and size m, each with its
    labeled copies, plus a polynomial the maximum value must be a root of:
    _F_quartic for F(n, m).  K2 and K3 have no centre: a copy is a vertex
    set, C(n, 2) or C(n, 3) of them."""
    sqrt_m = IntPolynomial.from_coeffs([-m, 0, 1])
    if m == 1:
        return [(_pad_to(complete_graph(2), n), math.comb(n, 2))], sqrt_m
    if m == 3:
        claimed = [(_pad_to(cycle_graph(3), n), math.comb(n, 3))]
        if n >= 4:
            claimed.append((_pad_to(star_graph(3), n), _centred_copies(n, 3, 0)))
        return claimed, sqrt_m
    if m <= max(2, n - 2):
        return [(_pad_to(star_graph(m), n), _centred_copies(n, m, 0))], sqrt_m
    return [(make_F(n, m), _centred_copies(n, n - 1, m - n + 1))], _F_quartic(n, m)


def verify_classification(n: int) -> VerificationReport:
    """Max-root maximizers per edge count over all labeled odd-cycle graphs
    of order n: winners, their multiplicity, and closed-form values.  Runs
    over isomorphism classes weighted by their labeled copies."""
    t0 = time.perf_counter()
    _check_order("classification", n)
    bad: list[str] = []
    notes: list[str] = []
    checked = 0
    for m, size in _order_census(n).items():
        groups, root, champs = size.groups, size.root, size.champions
        checked += sum(entry[0] for entry in groups.values())
        claimed, value_poly = _claimed_maximizers(n, m)
        claimed_profiles = {matching_profile(g) for g, _ in claimed}
        witness = min(groups[p][1] for p in champs)
        if set(champs) != claimed_profiles:
            bad.append(f"n={n} m={m}: unexpected maximizer profile, witness {witness}")
        expected_count = sum(copies for _, copies in claimed)
        actual_count = sum(groups[p][0] for p in champs)
        if actual_count != expected_count:
            bad.append(
                f"n={n} m={m}: {actual_count} labeled maximizers, expected "
                f"{expected_count} labeled copies of the claimed graphs"
            )
        if root.compare_to_rational(0) != GT or root.sign_of(value_poly) != 0:
            bad.append(f"n={n} m={m}: maximum root differs from the claimed closed form")
        notes.append(f"n={n} m={m}: t~{root.decimal_str(6)} witness {witness} x{actual_count}")
    universe = f"all labeled odd-cycle graphs of order {n}, 1 <= m <= {edge_cap(n)}"
    return _report("classification", universe, checked, bad, notes, t0)


def verify_conjecture(n: int) -> VerificationReport:
    """H_n is the unique max-root maximizer over all odd-cycle graphs of
    order n, isolated-vertex padding included.  Like verify_classification,
    runs over isomorphism classes."""
    t0 = time.perf_counter()
    _check_order("conjecture", n)
    census = _order_census(n)
    bad: list[str] = []
    # 1 for the edgeless graph, whose maximum root is 0
    checked = 1 + sum(entry[0] for size in census.values() for entry in size.groups.values())
    best_root, winners = _running_best(
        (polynomial_from_profile(size.champions[0], n), [(m, p) for p in size.champions])
        for m, size in census.items()
    )
    [(h, h_copies)], _ = _claimed_maximizers(n, edge_cap(n))
    h_prof = matching_profile(h)
    if best_root.compare_to_rational(0) != GT:
        bad.append(f"n={n}: maximum root not positive, edgeless graph ties")
    if [(edge_cap(n), h_prof)] != sorted(winners):
        bad.append(f"n={n}: global maximizer set is not the edge-maximal family")
    else:
        count = census[edge_cap(n)].groups[h_prof][0]
        if count != h_copies:
            bad.append(f"n={n}: {count} labeled maximizers, expected {h_copies} copies")
    universe = f"all labeled odd-cycle graphs of order {n}"
    witness = f"n={n}: t(H_{n})~{best_root.decimal_str(6)}, {write_graph6(h)}"
    return _report("conjecture", universe, checked, bad, [witness], t0)


# ----------------------------------------------------------- monotonic grid


def verify_monotonicity(n_max: int) -> VerificationReport:
    """Strict growth of t(F(n, m)) in m (fixed n) and in n (fixed m >= 4)
    over every grid point where both endpoints are defined, by exact
    root comparisons; each grid root is also checked against _F_quartic."""
    t0 = time.perf_counter()
    _check_order("monotonicity", n_max)
    bad: list[str] = []
    on_quartic = checked = m4_checked = not_strict = 0
    for n in range(2, n_max + 1):
        for m in range(n - 1, edge_cap(n) + 1):
            root = max_matching_root(make_F(n, m))
            if root.sign_of(_F_quartic(n, m)) == 0:
                on_quartic += 1
            else:
                bad.append(f"t(F({n},{m})) is not a root of {_F_quartic(n, m).pretty()}")
            if m < edge_cap(n):
                checked += 1
                if compare_roots(max_matching_root(make_F(n, m + 1)), root) != GT:
                    not_strict += 1
                    bad.append(f"t(F({n},{m})) >= t(F({n},{m + 1}))")
            if n < n_max and m >= max(4, n):
                checked += 1
                m4_checked += m == 4
                if compare_roots(max_matching_root(make_F(n + 1, m)), root) != GT:
                    not_strict += 1
                    bad.append(f"t(F({n},{m})) >= t(F({n + 1},{m}))")
    universe = f"F(n, m) grid, 2 <= n <= {n_max}, both endpoints defined"
    strict = "all strict" if not not_strict else f"{not_strict} pairs not strict"
    witness = f"m=4 column pairs checked: {m4_checked}, {strict}; {on_quartic} roots on their quartic"
    return _report("monotonicity", universe, checked, bad, [witness], t0)


# -------------------------------------------------------------- reduction


def verify_reduction(n: int) -> VerificationReport:
    """Every connected odd-cycle graph of order n reduces to F(n, m) within
    the step bounds, through valid intermediates, and is strictly dominated
    by its target unless already isomorphic to it.  Runs over isomorphism
    classes."""
    t0 = time.perf_counter()
    _check_order("reduction", n)
    classes = connected_odd_cycle_reps(n)
    bad: list[str] = []
    max_steps = 0
    for g in classes:
        g6 = write_graph6(g)
        m = g.m
        trace = reduce_to_F(g)
        trace.validate()
        max_steps = max(max_steps, trace.step_count)
        phases = trace.phase_counts()
        long_steps = phases[KelmansPhase.LONG_CYCLE]
        if long_steps and 2 * long_steps >= m:
            bad.append(f"{g6}: {long_steps} long-cycle steps breaks the m/2 bound")
        if phases[KelmansPhase.DEGREE_LIFT] > n - 1:
            bad.append(f"{g6}: degree-lift steps exceed n - 1")
        for _, mid in trace.steps:
            if mid.m != m or not is_connected(mid) or not is_odd_cycle_graph(mid):
                bad.append(f"{g6}: intermediate graph {write_graph6(mid)} broke an invariant")
                break
        target = make_F(n, m)
        if (trace.final.n, trace.final.m) != (n, m) or not _is_star_plus_matching(trace.final):
            bad.append(f"{g6}: final graph {write_graph6(trace.final)} is not F({n},{m})")
            continue
        if _is_star_plus_matching(g):
            if dominance(target, g) != DominanceVerdict.EQUAL_POLYNOMIALS:
                bad.append(f"{g6}: expected equal polynomials against F({n},{m})")
        else:
            if dominance(target, g) != DominanceVerdict.STRICTLY_DOMINATES:
                bad.append(f"{g6}: F({n},{m}) does not strictly dominate")
            if compare_roots(max_matching_root(target), max_matching_root(g)) != GT:
                bad.append(f"{g6}: t(F({n},{m})) is not strictly larger")
    universe = f"connected odd-cycle graphs of order {n}, one per isomorphism class"
    witness = f"n={n}: {len(classes)} classes, longest trace {max_steps} steps"
    return _report("reduction", universe, len(classes), sorted(bad), [witness], t0)


# ------------------------------------------------------- kelmans dominance


def verify_dominance(n: int) -> VerificationReport:
    """The Kelmans shift never produces an incomparable pair, and strictly
    dominates unless it only exchanges the labels u and v.  This is stricter
    than "strict whenever the isomorphism class changes": a shift that is not
    the exchange is reported even if it happens to be isomorphic.  Universe:
    every connected labeled graph of order n and every ordered vertex pair.
    Relabelling g, u and v together changes neither the verdict nor the
    exchange test, so a pair of one graph per connected class stands for
    the shifts of its labeled copies, counted by _classes."""
    t0 = time.perf_counter()
    _check_order("dominance", n)
    bad: list[str] = []
    checked = exchanged = 0
    for g, copies in _classes(n, False):
        for u, v in permutations(range(n), 2):
            shifted = kelmans_transform(g, u, v)
            checked += copies
            if shifted.adj == g.adj:
                continue
            verdict = dominance(shifted, g)
            if verdict == DominanceVerdict.INCOMPARABLE:
                bad.append(f"{write_graph6(g)} shift ({u},{v}): incomparable")
            elif verdict != DominanceVerdict.STRICTLY_DOMINATES:
                # a shift that is not strict must be the label exchange, an isomorphism
                swap = list(range(n))
                swap[u], swap[v] = v, u
                if g.relabeled(swap) == shifted:
                    exchanged += copies
                else:
                    bad.append(
                        f"{write_graph6(g)} shift ({u},{v}): verdict "
                        f"{verdict.value} on a shift that is not the label exchange"
                    )
    universe = f"connected labeled graphs of order {n}, all ordered vertex pairs"
    witness = f"n={n}: {checked} shifts checked, {exchanged} isomorphic by label exchange"
    return _report("dominance", universe, checked, sorted(bad), [witness], t0)


# --------------------------------------------------------- skew identity


def verify_identity(n: int) -> VerificationReport:
    """Coefficient identity between the skew characteristic polynomial and
    the alternating form of the matching polynomial, sum_k m_k x^(n-2k):
    holds for every orientation of every odd-cycle graph of order n, and
    fails for at least one orientation of every other graph of order n.
    The odd-cycle graphs run like verify_radius, one switching
    representative per class of one graph per isomorphism class.  Each
    labeled graph with an even cycle is walked mask by mask in ascending
    order up to its first violation, which is all that direction needs."""
    t0 = time.perf_counter()
    _check_order("identity", n)
    bad: list[str] = []
    orientations = evaluated = graphs = 0
    for g, copies in _odd_cycle_classes(n):
        graphs += copies
        orientations += copies << g.m
        target = _alternating_form(matching_polynomial(g), g.n)
        for rep in switching_representatives(g):
            evaluated += 1
            if skew_char_poly(Orientation(g, rep)) != target:
                bad.append(
                    f"{write_graph6(g)} orientation {rep:#x} and its switching class: "
                    "identity fails"
                )
    for g in _labeled_rows(n):
        if is_odd_cycle_graph(g):
            continue
        graphs += 1
        # built without the memo: these labeled graphs would only churn it
        target = _alternating_form(polynomial_from_profile(matching_profile(g), n), n)
        for mask in range(1 << g.m):
            orientations += 1
            evaluated += 1
            if skew_char_poly(Orientation(g, mask)) != target:
                break
        else:
            bad.append(
                f"{write_graph6(g)}: every orientation satisfies the identity "
                "despite an even cycle"
            )
    universe = f"all labeled graphs of order {n}, both identity directions"
    witness = (f"n={n}: {graphs} graphs, {orientations} orientations covered, "
               f"{evaluated} characteristic polynomials evaluated")
    return _report("identity", universe, orientations, sorted(bad), [witness], t0)


def verify_radius(n: int) -> VerificationReport:
    """Skew spectral radius equals the maximum matching root for every
    orientation of every odd-cycle graph of order n, by exact comparison.
    Relabelling and switching are similarities on the skew matrix, so the
    switching representatives of one graph per isomorphism class stand for
    its labeled copies times 2^m orientations."""
    t0 = time.perf_counter()
    _check_order("radius", n)
    bad: list[str] = []
    orientations = evaluated = graphs = 0
    for g, copies in _odd_cycle_classes(n):
        graphs += copies
        orientations += copies << g.m
        match_root = max_matching_root(g)
        for rep in switching_representatives(g):
            evaluated += 1
            if compare_roots(skew_spectral_radius(Orientation(g, rep)), match_root) != EQ:
                bad.append(
                    f"{write_graph6(g)} orientation {rep:#x} and its switching class: "
                    "spectral radius differs from the matching root"
                )
    universe = f"all labeled odd-cycle graphs of order {n}, all orientations"
    witness = (f"n={n}: {graphs} graphs, {orientations} orientations covered, "
               f"{evaluated} switching classes evaluated")
    return _report("radius", universe, orientations, bad, [witness], t0)
