"""Command-line front end.

Graph arguments accept a graph6 string, "@path" for an edge-list file, "-"
to read one graph6 string per stdin line, or a constructor spec such as
"F 5 6", "H 5", "K1 3", "C 5", "P 4" (quote it, or write "F,5,6").
Exit codes: 0 success, 1 a verification found counterexamples, 2 bad usage
or unparsable input, 3 an internal failure (a broken invariant or an
arithmetic error), reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .extremal import (
    SUITE_ORDERS,
    VerificationReport,
    make_F,
    make_H,
    merge_reports,
    verify_classification,
    verify_conjecture,
    verify_dominance,
    verify_identity,
    verify_monotonicity,
    verify_oracles,
    verify_radius,
    verify_reduction,
)
from .graphs import (
    Graph,
    cycle_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from .kelmans import dominance, reduce_to_F
from .matching import matching_polynomial, matching_profile
from .roots import NoRealRootError, max_matching_root, max_real_root
from .skew import Orientation, _alternating_form, _identity_target, all_orientations, skew_char_poly

_SCHEMA = 1


class UsageError(ValueError):
    pass


def _graph_from_spec(tokens: list[str]) -> Graph:
    name = tokens[0].upper()
    try:
        args = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise UsageError(f"constructor arguments must be integers: {tokens[1:]}") from exc
    if name == "F" and len(args) == 2:
        return make_F(*args)
    if name == "H" and len(args) == 1:
        return make_H(*args)
    if name == "K1" and len(args) == 1:
        return star_graph(args[0])
    if name == "C" and len(args) == 1:
        return cycle_graph(args[0])
    if name == "P" and len(args) == 1:
        return path_graph(args[0])
    raise UsageError(f"unknown constructor spec {' '.join(tokens)!r}")


def parse_graph_argument(text: str) -> Graph:
    """One graph from a CLI token: constructor spec, @file, or graph6.

    ``@`` alone is the graph6 string of K1; only ``@`` followed by a path
    names an edge-list file.
    """
    tokens = text.replace(",", " ").split()
    if len(tokens) > 1:
        return _graph_from_spec(tokens)
    if not tokens:
        raise UsageError("empty graph argument")
    if text.startswith("@") and text != "@":
        path = Path(text[1:])
        if not path.exists():
            raise UsageError(f"edge list file {path} not found")
        return parse_edge_list(path.read_text())
    return parse_graph6(text)


def _load_graphs(text: str) -> list[Graph]:
    if text == "-":
        out = []
        for line in sys.stdin:
            line = line.strip()
            if line:
                out.append(parse_graph6(line))
        if not out:
            raise UsageError("no graphs on stdin")
        return out
    return [parse_graph_argument(text)]


def _emit(payload: dict, lines: list[str], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ----------------------------------------------------------------- commands


def _cmd_poly(args) -> int:
    results = []
    lines = []
    for g in _load_graphs(args.graph):
        profile = matching_profile(g)
        poly = matching_polynomial(g)
        results.append(
            {
                "graph6": write_graph6(g),
                "n": g.n,
                "m": g.m,
                "profile": list(profile.counts),
                "coefficients": list(poly.coeffs),
                "polynomial": poly.pretty(),
            }
        )
        lines.append(f"{write_graph6(g)}  n={g.n} m={g.m}")
        lines.append(f"  profile: {list(profile.counts)}")
        lines.append(f"  polynomial: {poly.pretty()}")
    _emit({"schema": _SCHEMA, "command": "poly", "results": results}, lines, args.format, args.out)
    return 0


def _cmd_maxroot(args) -> int:
    results = []
    lines = []
    for g in _load_graphs(args.graph):
        root = max_matching_root(g)
        refined = root.refined(Fraction(1, 10 ** (args.digits + 2)))
        results.append(
            {
                "graph6": write_graph6(g),
                "value": root.decimal_str(args.digits),
                "interval": [str(refined.lo), str(refined.hi)],
                "polynomial": matching_polynomial(g).pretty(),
            }
        )
        lines.append(f"{write_graph6(g)}  t = {root.decimal_str(args.digits)}")
        lines.append(f"  certified in [{refined.lo}, {refined.hi}]")
    _emit({"schema": _SCHEMA, "command": "maxroot", "results": results}, lines, args.format, args.out)
    return 0


def _cmd_skew(args) -> int:
    results = []
    lines = []
    for g in _load_graphs(args.graph):
        if args.all:
            orientations = list(all_orientations(g))
        else:
            if not 0 <= args.mask < (1 << g.m):
                raise UsageError(f"orientation mask must be in 0..{(1 << g.m) - 1}")
            orientations = [Orientation(g, args.mask)]
        entries = []
        target = _identity_target(g)
        radius_by_phi: dict[tuple[int, ...], str] = {}
        for o in orientations:
            phi = skew_char_poly(o)
            rho = radius_by_phi.get(phi.coeffs)
            if rho is None:
                rho = max_real_root(_alternating_form(phi, g.n)).decimal_str(args.digits)
                radius_by_phi[phi.coeffs] = rho
            entries.append(
                {
                    "mask": o.mask_hex(),
                    "char_poly": phi.pretty(),
                    "identity": phi == target,
                    "radius": rho,
                }
            )
        results.append(
            {
                "graph6": write_graph6(g),
                "orientations": entries,
                "distinct_polynomials": len(radius_by_phi),
            }
        )
        lines.append(f"{write_graph6(g)}  {len(entries)} orientation(s), "
                     f"{len(radius_by_phi)} distinct polynomial(s)")
        for e in entries:
            flag = "ok" if e["identity"] else "VIOLATES"
            lines.append(f"  {e['mask']}: {e['char_poly']}  identity {flag}  rho = {e['radius']}")
    _emit({"schema": _SCHEMA, "command": "skew", "results": results}, lines, args.format, args.out)
    return 0


def _cmd_reduce(args) -> int:
    results = []
    lines = []
    for g in _load_graphs(args.graph):
        trace = reduce_to_F(g)
        results.append(trace.to_json_dict())
        lines.append(f"{write_graph6(g)} -> {write_graph6(trace.final)} in {trace.step_count} step(s)")
        for step, after in trace.steps:
            phase = step.phase.value if step.phase else "?"
            moved = ", ".join(f"({v},{w})->({step.beneficiary},{w})" for v, w in step.moved_edges)
            lines.append(f"  [{phase}] u={step.beneficiary} v={step.co_beneficiary}: "
                         f"{moved}  => {write_graph6(after)}")
    _emit({"schema": _SCHEMA, "command": "reduce", "results": results}, lines, args.format, args.out)
    return 0


def _cmd_dominance(args) -> int:
    g1 = parse_graph_argument(args.graph1)
    g2 = parse_graph_argument(args.graph2)
    verdict = dominance(g1, g2)
    diff = matching_polynomial(g2) - matching_polynomial(g1)
    max_root = None
    if diff.degree >= 1:
        try:
            max_root = max_real_root(diff.squarefree_part()).decimal_str(args.digits)
        except NoRealRootError:
            max_root = None
    payload = {
        "schema": _SCHEMA,
        "command": "dominance",
        "graph1": write_graph6(g1),
        "graph2": write_graph6(g2),
        "verdict": verdict.value,
        "difference": diff.pretty(),
        "difference_max_root": max_root,
    }
    lines = [
        f"{write_graph6(g1)} vs {write_graph6(g2)}: {verdict.value}",
        f"  difference m(G2) - m(G1): {diff.pretty()}",
        f"  largest real root of difference: {max_root if max_root else 'none'}",
    ]
    _emit(payload, lines, args.format, args.out)
    return 0


_ALIASES = {
    "1.5": "classification",
    "4.2": "conjecture",
    "4.1": "monotonicity",
    "2.2": "reduction",
    "3.7": "dominance",
    "3.12": "dominance",
    "1.2": "identity",
}


def run_verification(suite: str, max_n: int | None, threads: int = 1) -> VerificationReport:
    """Run one verification suite over orders up to max_n (None: the suite's
    default) and merge reports.  An order outside the suite's range is
    rejected before anything runs.

    Every suite runs in this process.  threads accepts only 1: the benchmark
    workloads in perfbench/workloads.py still pass threads=1, and the
    keyword goes away once they stop (ROADMAP item 1).
    """
    if threads != 1:
        raise UsageError("every suite runs in one process; threads must be 1")
    # built on each call from the module's current names, which tracers and
    # tests may wrap
    runners = {
        "classification": verify_classification,
        "conjecture": verify_conjecture,
        "monotonicity": verify_monotonicity,
        "reduction": verify_reduction,
        "dominance": verify_dominance,
        "identity": verify_identity,
        "radius": verify_radius,
        "oracles": verify_oracles,
    }
    name = _ALIASES.get(suite, suite)
    runner = runners.get(name)
    if runner is None:
        raise UsageError(f"unknown verification suite {suite!r}")
    lo, hi, default = SUITE_ORDERS[name]
    max_n = default if max_n is None else max_n
    if not lo <= max_n <= hi:
        raise UsageError(f"suite {name} needs {lo} <= --max-n <= {hi}")
    if name == "monotonicity":
        return runner(max_n)
    parts = [runner(n) for n in range(lo, max_n + 1)]
    return merge_reports(name, f"orders {lo}..{max_n}", parts)


def _cmd_verify(args) -> int:
    report = run_verification(args.suite, args.max_n)
    payload = {"schema": _SCHEMA, "command": "verify", **report.to_json_dict()}
    _emit(payload, [report.to_table()], args.format, args.out)
    return 0 if report.passed else 1


# -------------------------------------------------------------------- parser


def _digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        digits = -1
    if digits < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return digits


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddcycle",
        description="Matching polynomials, skew spectra, and extremal checks "
        "for graphs whose blocks are edges and odd cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="matching profile and polynomial")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("maxroot", help="largest matching root with certified interval")
    p.add_argument("graph")
    p.add_argument("--digits", type=_digits, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_maxroot)

    p = sub.add_parser("skew", help="skew characteristic polynomials and spectral radii")
    p.add_argument("graph")
    p.add_argument("--mask", type=lambda s: int(s, 0), default=0,
                   help="orientation bitmask over the lexicographic edge list")
    p.add_argument("--all", action="store_true", help="sweep every orientation")
    p.add_argument("--digits", type=_digits, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_skew)

    p = sub.add_parser("reduce", help="shift the graph down to its star-plus-matching form")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dominance", help="compare two graphs on the ray past t(G1)")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--digits", type=_digits, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", help="classification, conjecture, monotonicity, reduction, "
                                 "dominance, identity, radius, oracles (numeric aliases accepted)")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
