"""Extremal families, odd-cycle graphs by isomorphism class, and
verification sweeps.

F(n, m) is the star on vertex 0 plus a matching among its leaves; H_n is the
edge-maximal member F(n, floor(3(n-1)/2)).  Connected odd-cycle classes are
grown block by block, and the graphs of order n are built as multisets of
them.  The sweeps here machine-check the classification of max-root
maximizers, grid monotonicity of t(F(n, m)), the reduction to F, the
dominance behaviour of the Kelmans shift, the identity and the spectral
radius of skew matrices, and the library's own oracles.  Every sweep runs in
the calling process.  The identity and oracle sweeps walk every labeled edge
mask in one loop, _labeled_rows; all others but the grid run over
isomorphism classes.  Each sweep returns a VerificationReport; a nonempty
counterexample list means the claim failed.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, permutations
from types import MappingProxyType

from .graphs import (
    Graph,
    GraphTooLargeError,
    _component_mask,
    automorphism_count,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    is_isomorphic,
    is_odd_cycle_graph,
    iter_bits,
    odd_cycle_rows,
    parse_graph6,
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
from .matching import matching_profile, matching_profile_bruteforce, polynomial_from_profile
from .polynomials import IntPolynomial
from .roots import EQ, GT, AlgebraicRoot, compare_roots, max_matching_root, max_real_root
from .skew import Orientation, SwitchingClasses, _identity_target, skew_char_poly, skew_spectral_radius

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
    "oracles": (1, 7, 5),
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
    """Yield (edge mask, adjacency rows) of every labeled graph of order n,
    masks ascending.  Bit k of the mask is the k-th vertex pair in
    lexicographic order."""
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
        yield mask, rows


@functools.cache
def connected_odd_cycle_reps(n: int) -> tuple[Graph, ...]:
    """Connected odd-cycle graphs of order n, one per isomorphism class.

    Grown by attaching a new leaf block, either a bridge or an odd cycle, at
    every vertex of every smaller representative.  Any connected graph whose
    blocks are edges and odd cycles arises this way: its block-cut tree has a
    leaf block, and removing that block (keeping the cut vertex) leaves a
    smaller graph of the same kind.  Each order is grown once per process;
    the smaller orders come from the cache.
    """
    if not 1 <= n <= STRUCTURED_MAX_N:
        raise GraphTooLargeError(f"structured generation limited to n <= {STRUCTURED_MAX_N}")
    if n == 1:
        return (Graph.empty(1),)
    candidates: list[Graph] = []
    for base in connected_odd_cycle_reps(n - 1):
        for r in range(n - 1):
            rows = list(base.adj) + [1 << r]
            rows[r] |= 1 << (n - 1)
            candidates.append(Graph(n, tuple(rows)))
    for t in range(1, (n - 1) // 2 + 1):
        j = n - 2 * t
        for base in connected_odd_cycle_reps(j):
            for r in range(j):
                rows = list(base.adj) + [0] * (2 * t)
                chain = [r] + list(range(j, n)) + [r]
                for a, b in zip(chain, chain[1:]):
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
                candidates.append(Graph(n, tuple(rows)))
    return _one_per_class(candidates)


@functools.cache
def _connected_classes(n: int) -> tuple[Graph, ...]:
    """Connected graphs of order n, one per isomorphism class: each class of
    order n - 1 plus a new vertex joined to each nonempty vertex set.
    Deleting a leaf of a spanning tree leaves a connected graph, so every
    class arises."""
    if n == 1:
        return (Graph.empty(1),)
    candidates: list[Graph] = []
    for base in _connected_classes(n - 1):
        for nbrs in range(1, 1 << (n - 1)):
            rows = list(base.adj) + [nbrs]
            for r in iter_bits(nbrs):
                rows[r] |= 1 << (n - 1)
            candidates.append(Graph(n, tuple(rows)))
    return _one_per_class(candidates)


def _one_per_class(candidates: list[Graph]) -> tuple[Graph, ...]:
    """The first candidate of each isomorphism class, in order; isomorphism
    is tested only inside (size, degree multiset, matching profile) buckets."""
    buckets: dict[tuple, list[Graph]] = {}
    kept: list[Graph] = []
    for cand in candidates:
        key = (
            cand.m,
            tuple(sorted(cand.degree(v) for v in range(cand.n))),
            matching_profile(cand).counts,
        )
        bucket = buckets.setdefault(key, [])
        if any(is_isomorphic(cand, old, max_n=STRUCTURED_MAX_N) for old in bucket):
            continue
        bucket.append(cand)
        kept.append(cand)
    return tuple(kept)


def _odd_cycle_classes(n: int):
    """Stream (graph, |Aut|) for the odd-cycle graphs of order n, one per
    isomorphism class.

    Such a graph is a multiset of connected classes whose orders sum to n.
    The multisets are visited as nondecreasing index runs over the connected
    representatives of orders 1..n; representatives of one order are pairwise
    non-isomorphic, so every class appears exactly once.  An automorphism
    permutes the k_C copies of each connected class C and maps each copy
    onto its image, so |Aut| = prod_C |Aut(C)|^k_C * k_C!.
    """
    pool = [g for k in range(1, n + 1) for g in connected_odd_cycle_reps(k)]
    auts = [a for k in range(1, n + 1) for a in _connected_aut_counts(k)]

    def runs(start: int, left: int):
        if not left:
            yield []
            return
        for i in range(start, len(pool)):
            if pool[i].n > left:
                break
            for rest in runs(i, left - pool[i].n):
                yield [i, *rest]

    for parts in runs(0, n):
        aut = 1
        for i, k in Counter(parts).items():
            aut *= auts[i] ** k * math.factorial(k)
        yield disjoint_union([pool[i] for i in parts]), aut


@functools.cache
def _connected_aut_counts(n: int) -> tuple[int, ...]:
    """|Aut| of each connected representative of order n, in the same order."""
    return tuple(automorphism_count(g) for g in connected_odd_cycle_reps(n))


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


def _profile_champions(n: int, groups: dict[tuple[int, ...], list]):
    """Exact max-root winners among profile groups: (root, [profiles])."""
    best_root: AlgebraicRoot | None = None
    best: list[tuple[int, ...]] = []
    for prof in sorted(groups):
        root = max_real_root(polynomial_from_profile(prof, n))
        if best_root is None:
            best_root, best = root, [prof]
            continue
        cmp = compare_roots(root, best_root)
        if cmp == GT:
            best_root, best = root, [prof]
        elif cmp == EQ:
            best.append(prof)
    assert best_root is not None
    return best_root, best


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

    Each class counts its n!/|Aut| labeled copies, so the totals equal a
    sweep over every labeled edge subset.
    """
    census: dict[int, dict[tuple[int, ...], list]] = {m: {} for m in range(1, edge_cap(n) + 1)}
    for g, aut in _odd_cycle_classes(n):
        if not g.m:
            continue
        g6 = write_graph6(g)
        entry = census[g.m].setdefault(matching_profile(g).counts, [0, g6])
        entry[0] += math.factorial(n) // aut
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


def _labeled_copies(g: Graph) -> int:
    """n!/|Aut(G)|, with |Aut(G)| = |Aut(G - I)| * |I|! for the isolated
    vertices I, so the automorphism search sees only the part with edges."""
    busy = [v for v in range(g.n) if g.adj[v]]
    aut = math.factorial(g.n - len(busy))
    if busy:
        aut *= automorphism_count(g.induced(busy)[0])
    return math.factorial(g.n) // aut


def _F_quartic(n: int, m: int) -> IntPolynomial:
    """x^4 - n x^2 + p, p = 3n - 3 - 2m, whose largest root is t(F(n, m)):
    x(x^2 - 1) m(F, x) = x^p (x^2 - 1)^k (x^4 - n x^2 + p), k = m - n + 1."""
    return IntPolynomial.from_coeffs([3 * n - 3 - 2 * m, 0, -n, 0, 1])


def _claimed_maximizers(n: int, m: int) -> tuple[list[Graph], IntPolynomial]:
    """Expected max-root winners of order n and size m, plus a polynomial
    the maximum value must be a root of: _F_quartic for F(n, m)."""
    if m == 1:
        return [_pad_to(complete_graph(2), n)], IntPolynomial.from_coeffs([-1, 0, 1])
    if m == 2:
        return [_pad_to(star_graph(2), n)], IntPolynomial.from_coeffs([-2, 0, 1])
    if m == 3:
        claimed = [_pad_to(cycle_graph(3), n)]
        if n >= 4:
            claimed.append(_pad_to(star_graph(3), n))
        return claimed, IntPolynomial.from_coeffs([-3, 0, 1])
    if m <= n - 2:
        return [_pad_to(star_graph(m), n)], IntPolynomial.from_coeffs([-m, 0, 1])
    return [make_F(n, m)], _F_quartic(n, m)


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
        claimed_profiles = {matching_profile(g).counts for g in claimed}
        witness = min(groups[p][1] for p in champs)
        if set(champs) != claimed_profiles:
            bad.append(f"n={n} m={m}: unexpected maximizer profile, witness {witness}")
        expected_count = sum(_labeled_copies(g) for g in claimed)
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
    checked = 1  # the edgeless graph, whose maximum root is 0
    best_root: AlgebraicRoot | None = None
    winners: list[tuple[int, tuple[int, ...]]] = []
    for m, size in census.items():
        root, champs = size.root, size.champions
        checked += sum(entry[0] for entry in size.groups.values())
        if best_root is None:
            best_root, winners = root, [(m, p) for p in champs]
            continue
        cmp = compare_roots(root, best_root)
        if cmp == GT:
            best_root, winners = root, [(m, p) for p in champs]
        elif cmp == EQ:
            winners.extend((m, p) for p in champs)
    assert best_root is not None
    h = make_H(n)
    h_prof = matching_profile(h).counts
    if best_root.compare_to_rational(0) != GT:
        bad.append(f"n={n}: maximum root not positive, edgeless graph ties")
    if [(edge_cap(n), h_prof)] != sorted(winners):
        bad.append(f"n={n}: global maximizer set is not the edge-maximal family")
    else:
        count = census[edge_cap(n)].groups[h_prof][0]
        if count != _labeled_copies(h):
            bad.append(
                f"n={n}: {count} labeled maximizers, expected {_labeled_copies(h)} copies"
            )
    universe = f"all labeled odd-cycle graphs of order {n}"
    witness = f"n={n}: t(H_{n})~{best_root.decimal_str(6)}, {write_graph6(h)}"
    return _report("conjecture", universe, checked, bad, [witness], t0)


# ----------------------------------------------------------- monotonic grid


def verify_monotonicity(n_max: int) -> VerificationReport:
    """Strict growth of t(F(n, m)) in m (fixed n) and in n (fixed m >= 4)
    over every grid point where both endpoints are defined, by Sturm
    comparisons; each grid root is also checked against _F_quartic."""
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
    n!/|Aut| shifts."""
    t0 = time.perf_counter()
    _check_order("dominance", n)
    bad: list[str] = []
    checked = exchanged = 0
    for g in _connected_classes(n):
        copies = _labeled_copies(g)
        for u, v in permutations(range(n), 2):
            shifted, _ = kelmans_transform(g, u, v)
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
    the unsigned matching-count polynomial: holds for every orientation of
    every odd-cycle graph of order n, and fails for at least one orientation
    of every other graph of order n."""
    t0 = time.perf_counter()
    _check_order("identity", n)
    bad: list[str] = []
    orientations = evaluated = graphs = 0
    for _, rows in _labeled_rows(n):
        g = Graph(n, tuple(rows))
        graphs += 1
        target = _identity_target(g)
        odd = odd_cycle_rows(n, rows)
        classes = SwitchingClasses(g)
        # det(xI - S) is constant on a switching class; masks are still walked
        # in ascending order so the first violation is found where it was
        holds: dict[int, bool] = {}
        for omask in range(1 << g.m):
            orientations += 1
            rep = classes.representative(omask)
            ok = holds.get(rep)
            if ok is None:
                ok = holds[rep] = skew_char_poly(Orientation(g, rep)) == target
            if not ok:
                break
        evaluated += len(holds)
        if odd and not ok:
            bad.append(f"{write_graph6(g)} orientation {omask:#x}: identity fails")
        elif not odd and ok:
            bad.append(
                f"{write_graph6(g)}: every orientation satisfies the identity "
                "despite an even cycle"
            )
    universe = f"all labeled graphs of order {n}, both identity directions"
    witness = (f"n={n}: {graphs} graphs, {orientations} orientations covered, "
               f"{evaluated} switching classes evaluated")
    return _report("identity", universe, orientations, sorted(bad), [witness], t0)


def verify_radius(n: int) -> VerificationReport:
    """Skew spectral radius equals the maximum matching root for every
    orientation of every odd-cycle graph of order n, by exact comparison.
    Relabelling and switching are similarities on the skew matrix, so the
    switching representatives of one graph per isomorphism class stand for
    its n!/|Aut| * 2^m labeled orientations."""
    t0 = time.perf_counter()
    _check_order("radius", n)
    bad: list[str] = []
    orientations = evaluated = graphs = 0
    for g, aut in _odd_cycle_classes(n):
        copies = math.factorial(n) // aut
        graphs += copies
        orientations += copies << g.m
        match_root = max_matching_root(g)
        for rep in SwitchingClasses(g).representatives():
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


# --------------------------------------------------------------- oracles


_ORACLE_FULL_MAX_N = 6
_ORACLE_STRIDE_N7 = 64


def verify_oracles(n: int) -> VerificationReport:
    """Library self-checks on all labeled graphs of order n: matching profiles
    against the brute-force edge-subset count, graph6 round-trips, and the
    labeled-versus-structured census of connected odd-cycle graphs, with the
    labeled side counted in the same pass.

    At n = 7 the brute-force profile comparison runs on a deterministic
    stride of the universe; the other two checks stay exhaustive.
    """
    t0 = time.perf_counter()
    _check_order("oracles", n)
    stride = 1 if n <= _ORACLE_FULL_MAX_N else _ORACLE_STRIDE_N7
    cap = edge_cap(n)
    full = (1 << n) - 1
    bad: list[str] = []
    profile_checked = roundtrip_checked = 0
    labeled: Counter[int] = Counter()  # connected odd-cycle graphs by edge count
    for mask, rows in _labeled_rows(n):
        g = Graph(n, tuple(rows))
        roundtrip_checked += 1
        if parse_graph6(write_graph6(g)) != g:
            bad.append(f"mask {mask:#x}: graph6 round-trip changed the graph")
        if mask % stride == 0:
            profile_checked += 1
            if matching_profile(g).counts != matching_profile_bruteforce(g).counts:
                bad.append(f"{write_graph6(g)}: matching profile disagrees with brute force")
        m = mask.bit_count()
        # two vertices with two common neighbours close a 4-cycle: no block walk
        if (m <= cap and _component_mask(rows, 0, full) == full
                and all((rows[u] & rows[v]).bit_count() < 2 for u, v in combinations(range(n), 2))
                and odd_cycle_rows(n, rows)):
            labeled[m] += 1
    bad.sort()  # the walk's failures in sorted order, then the census rows
    structured: Counter[int] = Counter()
    for g, aut in zip(connected_odd_cycle_reps(n), _connected_aut_counts(n)):
        structured[g.m] += math.factorial(n) // aut
    cross_checked = edge_cap(n) + 1
    for m in range(cross_checked):
        if labeled[m] != structured[m]:
            bad.append(
                f"n={n} m={m}: labeled connected count {labeled[m]} != "
                f"{structured[m]} from structured classes"
            )
    stride_note = "full" if n <= _ORACLE_FULL_MAX_N else f"1/{_ORACLE_STRIDE_N7} stride"
    universe = f"all labeled graphs of order {n} ({stride_note} profile check)"
    witness = (f"n={n}: {profile_checked} profiles, {roundtrip_checked} round-trips, "
               f"{cross_checked} census rows")
    checked = profile_checked + roundtrip_checked + cross_checked
    return _report("oracles", universe, checked, bad, [witness], t0)
