"""Benchmark for oddcycle: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Each repetition runs worker.py in a fresh single-threaded interpreter
(``threads=1``); repetitions follow one another (a closed loop) until
``--seconds`` have passed.  Every answer is checked outside the timed phase.
With ``--trace 0`` the last line reports the end-to-end metrics as medians
over the repetitions, with times rescaled by the machine speed measured
during each repetition (calibration.py); the times as measured are printed
above it.  With ``--trace 1`` untraced and traced repetitions
alternate, the last line reports the per-layer metrics of the traced ones,
and ``trace.overhead_s`` is the traced minus the untraced median wall time.
Either way an answer that differs from the one the first repetition with
the same inputs gave counts as failed, and the exit code is 1 when anything
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from tracer import COUNT_ACCEPTED, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("census", "orientations", "shifts", "queries")
REP_TIMEOUT_S = 150
# set-up is short and noisy, so a run takes at least this many samples of it
MIN_SETUP_SAMPLES = 20

# the metrics BENCHMARK.json bounds: times, set-up time included, rescaled
# by the speed factor measured alongside them (see calibration.py), and memory
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_ref_s": "1/s",
    "query_p50_ref_ms": "ms",
    "query_p90_ref_ms": "ms",
}
# printed for reading, not bounded: as measured, so they move with the
# machine's speed
AS_MEASURED = {
    "setup_measured_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "calibration_loop_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in COUNT_ACCEPTED:
            units[f"{layer}.accept_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class RepFailed(RuntimeError):
    """A repetition crashed or printed no result."""


def spawn(
    workload: str,
    seed: int,
    rep: int,
    traced: bool,
    params: dict | None,
    setup_only: bool = False,
) -> dict:
    job = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "trace": traced,
        "params": params,
        "setup_only": setup_only,
    }
    job["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, params: dict | None = None):
    """Repetitions until ``seconds`` have passed, then set-up-only starts
    until there are MIN_SETUP_SAMPLES set-up times.

    Returns (untraced repetitions, traced repetitions, set-up samples).
    """
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        plain.append(spawn(workload, seed, len(plain), False, params))
        if trace:
            traced.append(spawn(workload, seed, len(traced), True, params))
        if time.monotonic() - start >= seconds:
            break
    setups = list(plain)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, seed, 0, False, params, setup_only=True))
    return plain, traced, setups


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed.  An operation fails on a failed
    check, or on an answer different from that of the first repetition with
    the same inputs."""
    attempted = failed = 0
    problems: list[str] = []
    references: dict[int, list[dict]] = {}
    for rep in reps:
        reference = references.setdefault(rep["inputs_id"], rep["ops"])
        attempted += len(rep["ops"])
        for op, ref in zip(rep["ops"], reference, strict=True):
            bad = list(op["problems"])
            if op["answer"] != ref["answer"]:
                bad.append(f"answer {op['answer']!r} differs from {ref['answer']!r}")
            if bad:
                failed += 1
                problems.extend(bad)
    return attempted, failed, problems


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(reps: list[dict], setups: list[dict]):
    """Medians over repetitions: (bounded metrics, metrics as measured,
    sample count behind each)."""

    def med(values) -> float:
        return statistics.median(list(values))

    def latencies(scaled: bool) -> list[float]:
        return [
            1000 * q * (rep["speed_factor"] if scaled else 1.0)
            for rep in reps
            for q in rep["query_s"]
        ]

    ref_q, raw_q = latencies(True), latencies(False)
    bounded = {
        "wall_ref_s": med(r["wall_s"] * r["speed_factor"] for r in reps),
        "setup_s": med(s["setup_s"] * s["setup_factor"] for s in setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "items_per_ref_s": med(r["items"] / (r["wall_s"] * r["speed_factor"]) for r in reps),
        "query_p50_ref_ms": med(ref_q),
        "query_p90_ref_ms": _p90(ref_q),
    }
    measured = {
        "setup_measured_s": med(s["setup_s"] for s in setups),
        "wall_s": med(r["wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "items_per_s": med(r["items"] / r["wall_s"] for r in reps),
        "query_p50_ms": med(raw_q),
        "query_p90_ms": _p90(raw_q),
        "calibration_loop_ms": med(1000 * calibration.REF_LOOP_S / r["speed_factor"] for r in reps),
    }
    samples = dict.fromkeys([*bounded, *measured], len(reps))
    samples["setup_s"] = samples["setup_measured_s"] = len(setups)
    for name in ("query_p50_ref_ms", "query_p90_ref_ms", "query_p50_ms", "query_p90_ms"):
        samples[name] = len(ref_q)
    return bounded, measured, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Medians over traced repetitions, and the sample count behind each."""
    out = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    return out, dict.fromkeys(out, len(traced))


def git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "oddcycle" / "__init__.py").is_file():
        print(f"no oddcycle package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted, failed, problems = tally(plain + traced)
    if args.trace:
        metrics, samples = per_layer(plain, traced)
        shown, units = metrics, per_layer_units()
    else:
        metrics, measured, samples = end_to_end(plain, setups)
        shown, units = {**metrics, **measured}, {**END_TO_END, **AS_MEASURED}

    print(
        f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
        f"nproc {len(os.sched_getaffinity(0))}  commit {git_commit()}  "
        f"repetitions {len(plain)} untraced, {len(traced)} traced"
    )
    for name, value in shown.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} median of {samples[name]}")
    print(f"  {'fail_rate':<34} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
