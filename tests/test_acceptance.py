"""End-to-end acceptance checks, one printed verdict line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as
they complete.  The slow item is the full order-7 oracle sweep; the
order-8 maximizer census runs over isomorphism classes and takes seconds.
Stated time budgets assume four cores, so they are scaled up by
4 / min(4, cpu_count) before being enforced.
"""

from __future__ import annotations

import math
import os
import re
import time
from fractions import Fraction

from oracles import bulk_matching_profiles, graph6_reference, labeled_odd_cycle_graphs

from oddcycle import (
    EQ,
    GT,
    Graph,
    IntPolynomial,
    automorphism_count,
    complete_graph,
    connected_odd_cycle_reps,
    cycle_graph,
    matching_profile,
    max_matching_root,
    compare_roots,
    merge_reports,
    parse_graph6,
    star_graph,
    verify_classification,
    verify_conjecture,
    verify_dominance,
    verify_identity,
    verify_monotonicity,
    verify_radius,
    verify_reduction,
    write_graph6,
)

CORES = min(4, os.cpu_count() or 1)
SCALE = 4 / CORES


def _verdict(number: int, name: str, problems: list[str], detail: str) -> None:
    ok = not problems
    text = detail if ok else "; ".join(problems)
    print(f"CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'} [{text}]")
    assert ok, f"criterion {number} ({name}): {problems}"


def _budget(problems: list[str], elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        problems.append(f"took {elapsed:.1f}s, budget {limit:.0f}s")


def test_criterion_1_closed_form_roots():
    t0 = time.perf_counter()
    problems: list[str] = []

    t_k2 = max_matching_root(complete_graph(2))
    if t_k2.compare_to_rational(Fraction(1)) != EQ:
        problems.append("t(K2) != 1")

    x2_minus_2 = IntPolynomial.from_coeffs((-2, 0, 1))
    x2_minus_3 = IntPolynomial.from_coeffs((-3, 0, 1))
    t_k12 = max_matching_root(star_graph(2))
    if t_k12.sign_of(x2_minus_2) != 0 or t_k12.compare_to_rational(Fraction(1)) != GT:
        problems.append("t(K_{1,2}) != sqrt(2)")
    t_k13 = max_matching_root(star_graph(3))
    if t_k13.sign_of(x2_minus_3) != 0 or t_k13.compare_to_rational(Fraction(1)) != GT:
        problems.append("t(K_{1,3}) != sqrt(3)")
    t_k3 = max_matching_root(cycle_graph(3))
    if t_k3.sign_of(x2_minus_3) != 0:
        problems.append("t(K3) != sqrt(3)")
    if compare_roots(t_k13, t_k3) != EQ:
        problems.append("t(K_{1,3}) and t(K3) differ")

    for root, value, label in (
        (t_k2, 1.0, "t(K2)"),
        (t_k12, math.sqrt(2), "t(K_{1,2})"),
        (t_k13, math.sqrt(3), "t(K_{1,3})"),
        (t_k3, math.sqrt(3), "t(K3)"),
    ):
        if abs(root.to_float() - value) >= 1e-10:
            problems.append(f"{label} float off by >= 1e-10")

    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 1.0)
    _verdict(
        1,
        "closed-form roots",
        problems,
        f"t(K2)=1, t(K_{{1,2}})=sqrt(2), t(K_{{1,3}})=t(K3)=sqrt(3) exact, "
        f"floats within 1e-10, {elapsed:.2f}s",
    )


def test_criterion_2_identity_sweep():
    t0 = time.perf_counter()
    problems: list[str] = []
    merged = merge_reports(
        "identity",
        "orders 1..6",
        [verify_identity(n) for n in range(1, 7)],
    )
    if not merged.passed:
        problems.extend(merged.counterexamples[:3])
    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 600.0 * SCALE)
    _verdict(
        2,
        "coefficient identity exhaustive",
        problems,
        f"both directions on all labeled graphs n<=6, "
        f"{merged.checked} orientations covered, zero exceptions, {elapsed:.1f}s",
    )


def test_criterion_3_radius_orientation_independence():
    t0 = time.perf_counter()
    problems: list[str] = []
    merged = merge_reports(
        "radius",
        "orders 1..6",
        [verify_radius(n) for n in range(1, 7)],
    )
    if not merged.passed:
        problems.extend(merged.counterexamples[:3])
    if merged.checked != 353148:
        problems.append(f"expected 353148 orientations, saw {merged.checked}")
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "skew spectral radius orientation-independent",
        problems,
        f"rho = t(G) exactly for all 353148 orientations of odd-cycle graphs "
        f"n<=6, {elapsed:.1f}s",
    )


def test_criterion_4_reduction():
    t0 = time.perf_counter()
    problems: list[str] = []
    class_counts = (1, 1, 2, 3, 8, 17, 47, 122)
    reports = [verify_reduction(n) for n in range(1, 9)]
    for n, report, expect in zip(range(1, 9), reports, class_counts):
        if not report.passed:
            problems.extend(report.counterexamples[:3])
        if report.checked != expect:
            problems.append(f"n={n}: expected {expect} classes, saw {report.checked}")
    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 300.0)
    _verdict(
        4,
        "reduction to star-plus-matching",
        problems,
        f"all {sum(class_counts)} connected odd-cycle classes n<=8 reduce to "
        f"F(n,m) within the step bounds, invariants held throughout, {elapsed:.1f}s",
    )


def test_criterion_5_shift_dominance():
    t0 = time.perf_counter()
    problems: list[str] = []
    shift_counts = (2, 24, 456, 14560, 801120)
    exchange_counts = (0, 6, 144, 4120, 190800)
    reports = [verify_dominance(n) for n in range(2, 7)]
    exchanged = 0
    for n, report, shifts, exchanges in zip(range(2, 7), reports, shift_counts, exchange_counts):
        if not report.passed:
            problems.extend(report.counterexamples[:3])
        if report.checked != shifts:
            problems.append(f"n={n}: expected {shifts} shifts, saw {report.checked}")
        seen = int(re.search(r"(\d+) isomorphic by label exchange", report.witnesses[0])[1])
        if seen != exchanges:
            problems.append(f"n={n}: expected {exchanges} label exchanges, saw {seen}")
        exchanged += seen
    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 900.0)
    _verdict(
        5,
        "shift dominance",
        problems,
        f"never incomparable, strict unless it exchanges the labels u and v, over "
        f"all {sum(shift_counts)} shifts on connected labeled graphs n<=6; "
        f"{exchanged} label exchanges, {elapsed:.1f}s",
    )


def test_criterion_6_grid_monotonicity():
    t0 = time.perf_counter()
    problems: list[str] = []
    report = verify_monotonicity(20)
    if not report.passed:
        problems.extend(report.counterexamples[:3])
    if report.checked != 170:
        problems.append(f"expected 170 grid pairs, saw {report.checked}")
    if not any("all strict" in w for w in report.witnesses):
        problems.append("missing strictness witness")
    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 60.0)
    _verdict(
        6,
        "t(F(n,m)) grid strictly monotone",
        problems,
        f"170 exact row and column comparisons up to n=20, all strict, "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_maximizer_census():
    t0 = time.perf_counter()
    problems: list[str] = []
    expected_checked = {2: 1, 3: 7, 4: 53, 5: 547, 6: 7563, 7: 133199, 8: 2858587}
    tie_witnesses: dict[int, str] = {}
    for n in range(2, 9):
        per_size = verify_classification(n)
        per_order = verify_conjecture(n)
        for report in (per_size, per_order):
            if not report.passed:
                problems.extend(report.counterexamples[:3])
        if per_size.checked != expected_checked[n]:
            problems.append(
                f"n={n}: expected {expected_checked[n]} graphs, saw {per_size.checked}"
            )
        if per_order.checked != expected_checked[n] + 1:
            problems.append(f"n={n}: per-order census universe drifted")
        for w in per_size.witnesses:
            if " m=3: " in w:
                tie_witnesses[n] = w
    # The m=3 tie is two classes; the labeled counts 8 and 336 equal
    # 4!/|Aut| and 8!/|Aut| summed over K3 + K_{1,3} with isolated vertices.
    if "x8" not in tie_witnesses.get(4, ""):
        problems.append(f"n=4 m=3 tie witness wrong: {tie_witnesses.get(4)}")
    if "x336" not in tie_witnesses.get(8, ""):
        problems.append(f"n=8 m=3 tie witness wrong: {tie_witnesses.get(8)}")
    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 1800.0 * SCALE)
    _verdict(
        7,
        "maximizer census",
        problems,
        f"unique maximizers per (n,m) and per n for n<=8 labeled, m=3 tie "
        f"confirmed by counting, {elapsed:.1f}s",
    )


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    problems: list[str] = []
    profile_checks = 0
    roundtrip_checks = 0
    census_orders = 0

    for n in range(1, 8):
        pairs, counts = bulk_matching_profiles(n)
        bit_rows = [((1 << v), (1 << u)) for u, v in pairs]
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            rem = mask
            while rem:
                k = (rem & -rem).bit_length() - 1
                rem &= rem - 1
                u, v = pairs[k]
                bv, bu = bit_rows[k]
                rows[u] |= bv
                rows[v] |= bu
            g = Graph(n, tuple(rows))
            want = tuple(int(c[mask]) for c in counts)
            if matching_profile(g).counts != want:
                problems.append(f"profile mismatch at n={n} mask={mask}")
                break
            profile_checks += 1
            text = write_graph6(g)
            back = parse_graph6(text)
            if back.n != n or back.adj != g.adj:
                problems.append(f"graph6 round-trip failed at n={n} mask={mask}")
                break
            if mask % 64 == 0 and text != graph6_reference(n, g.edge_list()):
                problems.append(f"graph6 encoding differs at n={n} mask={mask}")
                break
            roundtrip_checks += 1
        if problems:
            break

        labeled: dict[int, int] = {}
        for g in labeled_odd_cycle_graphs(n, connected_only=True):
            labeled[g.m] = labeled.get(g.m, 0) + 1
        structured: dict[int, int] = {}
        fact = math.factorial(n)
        for rep in connected_odd_cycle_reps(n):
            structured[rep.m] = structured.get(rep.m, 0) + fact // automorphism_count(rep)
        if labeled != structured:
            problems.append(f"n={n}: labeled and structured censuses disagree")
            break
        census_orders += 1

    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        "oracle equivalence",
        problems,
        f"{profile_checks} profiles vs vectorized subset oracle, "
        f"{roundtrip_checks} graph6 round-trips, labeled vs structured censuses "
        f"agree for {census_orders} orders n<=7, {elapsed:.1f}s",
    )
