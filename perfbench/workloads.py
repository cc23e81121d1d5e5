"""The four benchmark workloads: input generation, the timed operations and
the answer checks.

Each workload is three functions.  ``prepare(params, seed, rep)`` builds
the inputs of repetition ``rep``.  ``run(inputs, clock)`` is the timed
phase; it returns (results, items, per-query seconds by ``clock`` or None).
``check(inputs, results)`` runs after the timer stops and returns one
``{"answer": ..., "problems": [...]}`` record per checked operation; an
operation failed when its problem list is not empty.  Library calls go
through module attributes, so that a tracer installed beforehand sees them.

census, orientations and shifts are exhaustive sweeps over fixed universes,
so the seed and the repetition number change nothing there.  queries draws
fresh graphs for every repetition from (seed, repetition), so that a run
averages over many graphs rather than depending on a few.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oddcycle import cli, extremal, graphs, kelmans, matching, roots, skew
from oddcycle.graphs import Graph

# Sizes of one repetition.  census, orientations and queries are the sizes
# the benchmark was specified with; the dominance sweep stops at order 5
# (15042 shifts) because order 6 alone takes about 27 s, longer than a run.
SIZES = {
    "census": {"n": 7},
    "orientations": {"max_n": 5, "class_n": 7},
    "shifts": {"dominance_n": 5, "reduction_n": 8},
    "queries": {"count": 40, "n_lo": 24},
}

# Expected sizes of the exhaustive universes, per order n.  The labeled,
# shift and class counts are the ones tests/test_acceptance.py pins; the
# orientation counts are those of this package at the commit that added the
# benchmark.
LABELED = {2: 1, 3: 7, 4: 53, 5: 547, 6: 7563, 7: 133199, 8: 2858587}
SHIFTS = {2: 2, 3: 24, 4: 456, 5: 14560, 6: 801120}
CLASSES = {1: 1, 2: 1, 3: 2, 4: 3, 5: 8, 6: 17, 7: 47, 8: 122}
IDENTITY_UP_TO = {3: 31, 4: 466, 5: 11402}
RADIUS_UP_TO = {3: 31, 4: 456, 5: 10881}


def _op(answer, problems: list[str]) -> dict:
    return {"answer": answer, "problems": problems}


def _check_report(report, expected: int) -> dict:
    """A sweep passes when it found no counterexample in a universe of the
    expected size."""
    problems = []
    if not report.passed:
        problems.append(f"{report.claim}: {list(report.counterexamples[:3])}")
    if report.checked != expected:
        problems.append(f"{report.claim}: checked {report.checked}, expected {expected}")
    answer = [
        report.claim,
        report.universe,
        report.checked,
        report.passed,
        list(report.counterexamples),
        list(report.witnesses),
    ]
    return _op(answer, problems)


# ------------------------------------------------------------------ census


def prepare_census(params: dict, seed: int, rep: int) -> dict:
    return {"n": params["n"]}


def run_census(inp: dict, clock):
    n = inp["n"]
    # the conjecture sweep reuses the labeled census the classification built
    reports = [
        cli.run_verification("classification", n, threads=1),
        cli.run_verification("conjecture", n, threads=1),
    ]
    return reports, sum(r.checked for r in reports), None


def check_census(inp: dict, reports):
    n = inp["n"]
    labeled = sum(LABELED[k] for k in range(2, n + 1))
    # the conjecture universe adds the edgeless graph of every order
    return [_check_report(reports[0], labeled), _check_report(reports[1], labeled + n - 1)]


# ------------------------------------------------------------ orientations


def prepare_orientations(params: dict, seed: int, rep: int) -> dict:
    classes = extremal.connected_odd_cycle_reps(params["class_n"])
    return {"max_n": params["max_n"], "class_n": params["class_n"], "classes": classes}


def run_orientations(inp: dict, clock):
    max_n = inp["max_n"]
    reports = [
        cli.run_verification("identity", max_n, threads=1),
        cli.run_verification("radius", max_n, threads=1),
    ]
    verdicts = []
    seconds = []
    for g in inp["classes"]:
        t0 = clock()
        rho = skew.max_skew_spectral_radius(g)
        verdicts.append(roots.compare_roots(rho, roots.max_matching_root(g)))
        seconds.append(clock() - t0)
    items = sum(r.checked for r in reports) + sum(1 << g.m for g in inp["classes"])
    return (reports, verdicts), items, seconds


def check_orientations(inp: dict, results):
    reports, verdicts = results
    classes = inp["classes"]
    expected = CLASSES[inp["class_n"]]
    ops = [
        _check_report(reports[0], IDENTITY_UP_TO[inp["max_n"]]),
        _check_report(reports[1], RADIUS_UP_TO[inp["max_n"]]),
        _op(["classes", len(classes)], [] if len(classes) == expected else [f"expected {expected} classes"]),
    ]
    for g, verdict in zip(classes, verdicts):
        g6 = graphs.write_graph6(g)
        bad = [] if verdict == roots.EQ else [f"{g6}: max skew spectral radius differs from t(G)"]
        ops.append(_op([g6, verdict], bad))
    return ops


# ------------------------------------------------------------------ shifts


def prepare_shifts(params: dict, seed: int, rep: int) -> dict:
    return dict(params)


def run_shifts(inp: dict, clock):
    reports = [
        cli.run_verification("dominance", inp["dominance_n"], threads=1),
        cli.run_verification("reduction", inp["reduction_n"], threads=1),
    ]
    return reports, sum(r.checked for r in reports), None


def check_shifts(inp: dict, reports):
    shifts = sum(SHIFTS[k] for k in range(2, inp["dominance_n"] + 1))
    classes = sum(CLASSES[k] for k in range(1, inp["reduction_n"] + 1))
    return [_check_report(reports[0], shifts), _check_report(reports[1], classes)]


# ----------------------------------------------------------------- queries


def random_cactus(n: int, cycles: int, rng: random.Random) -> Graph:
    """Connected graph of order n whose blocks are ``cycles`` odd cycles and
    bridges, each block attached at a random earlier vertex, then randomly
    relabeled.  Its size is n - 1 + cycles."""
    lengths = []
    room = n - 1
    for left in range(cycles - 1, -1, -1):
        # keep two new vertices for each triangle still to place
        length = rng.choice([k for k in (3, 5, 7, 9) if k - 1 <= room - 2 * left])
        lengths.append(length)
        room -= length - 1
    blocks = lengths + [2] * room
    rng.shuffle(blocks)
    edges = []
    size = 1
    for length in blocks:
        root = rng.randrange(size)
        path = [root] + list(range(size, size + length - 1))
        if length > 2:
            path.append(root)
        edges += zip(path, path[1:])
        size += length - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def prepare_queries(params: dict, seed: int, rep: int) -> dict:
    rng = random.Random(f"{seed}/{rep}")
    out = []
    for i in range(params["count"]):
        n = params["n_lo"] + i
        g = random_cactus(n, (n - 1) // 6, rng)
        # the orientation the float oracle checks the skew identity on
        out.append((g, rng.getrandbits(g.m)))
    return {"graphs": out}


def run_queries(inp: dict, clock):
    results = []
    seconds = []
    for g, _ in inp["graphs"]:
        t0 = clock()
        try:
            t_g = roots.max_matching_root(g)
            digits = t_g.decimal_str(12)
            trace = kelmans.reduce_to_F(g)
            trace.validate()
            f = extremal.make_F(g.n, g.m)
            verdict = kelmans.dominance(f, g)
            cmp = roots.compare_roots(roots.max_matching_root(f), t_g)
            results.append((digits, trace, f, verdict, cmp))
        except Exception as exc:  # one failed query must not hide the others
            results.append(f"{type(exc).__name__}: {exc}")
        seconds.append(clock() - t0)
    return results, len(results), seconds


# a strict dominance verdict means t(F) > t(G); equal polynomials, t(F) = t(G)
_EXPECTED_ORDER = {
    kelmans.DominanceVerdict.STRICTLY_DOMINATES: roots.GT,
    kelmans.DominanceVerdict.EQUAL_POLYNOMIALS: roots.EQ,
}


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_queries(inp: dict, results):
    # imported here so that numpy counts in neither set-up time nor peak RSS
    import numpy as np

    ops = []
    for (g, omask), res in zip(inp["graphs"], results):
        g6 = graphs.write_graph6(g)
        if isinstance(res, str):
            ops.append(_op([g6, res], [f"{g6}: {res}"]))
            continue
        digits, trace, f, verdict, cmp = res
        problems = []
        if not graphs.is_isomorphic(trace.final, f, max_n=graphs.MAX_VERTICES):
            problems.append(f"{g6}: reduction ended off F({g.n},{g.m})")
        if verdict not in _EXPECTED_ORDER:
            problems.append(f"{g6}: dominance verdict {verdict.value}")
        elif cmp != _EXPECTED_ORDER[verdict]:
            problems.append(f"{g6}: compare_roots {cmp} against verdict {verdict.value}")
        # the skew spectral radius of any orientation equals t(G); i*S is
        # Hermitian, so eigvalsh gives the eigenvalue magnitudes accurately
        s = np.array(skew.Orientation(g, omask).skew_matrix(), dtype=float)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(1j * s))))
        if abs(rho - float(digits)) > 1e-9:
            problems.append(f"{g6}: t(G) {digits} but numpy skew radius {rho!r}")
        # correctly rounded: m(G, x) changes sign within half a unit of the
        # last digit (the largest matching root of a connected graph is simple)
        half = Fraction(1, 2 * 10**12)
        coeffs = matching.matching_polynomial(g).coeffs
        if _horner(coeffs, Fraction(digits) - half) * _horner(coeffs, Fraction(digits) + half) > 0:
            problems.append(f"{g6}: {digits} is not t(G) rounded to 12 digits")
        answer = [g6, digits, graphs.write_graph6(trace.final), trace.step_count, verdict.value, cmp]
        ops.append(_op(answer, problems))
    return ops


# workloads whose inputs differ from one repetition to the next
FRESH_INPUTS = frozenset({"queries"})

WORKLOADS = {
    "census": (prepare_census, run_census, check_census),
    "orientations": (prepare_orientations, run_orientations, check_orientations),
    "shifts": (prepare_shifts, run_shifts, check_shifts),
    "queries": (prepare_queries, run_queries, check_queries),
}
