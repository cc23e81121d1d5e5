"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced; the test checks that the
answers pass, that both runs give the same answers, and that every metric
BENCHMARK.json names is emitted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "census": {"n": 4},
    "orientations": {"max_n": 3, "class_n": 4},
    "shifts": {"dominance_n": 3, "reduction_n": 5},
    "queries": {"count": 2, "n_lo": 8},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_metrics_and_answers(workload):
    plain, traced, setups = run.measure(workload, 7, 0, True, TINY[workload])
    assert len(plain) == len(traced) == 1
    attempted, failed, problems = run.tally(plain + traced)
    assert attempted > 0 and failed == 0, problems
    assert [op["answer"] for op in traced[0]["ops"]] == [op["answer"] for op in plain[0]["ops"]]

    metrics, measured, _ = run.end_to_end(plain, setups)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(measured) == list(run.AS_MEASURED)
    assert all(value > 0 for value in [*metrics.values(), *measured.values()])
    layers, _ = run.per_layer(plain, traced)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert layers["extremal.sweep.calls" if workload != "queries" else "kelmans.reduce.calls"] > 0


def test_missing_layer_target_reports_zero_calls():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import oddcycle, tracer\n"
        "tracer.LAYERS['gone'] = ('graphs.no_such_function', 'roots.NoClass.method')\n"
        "t = tracer.Tracer(); t.install(oddcycle); t.enabled = True\n"
        "from oddcycle import graphs\n"
        "graphs.is_odd_cycle_graph(graphs.cycle_graph(5))\n"
        "v = t.layer_values()\n"
        "assert v['gone.calls'] == 0 and v['graphs.odd_cycle.calls'] == 1, v\n"
        "assert v['graphs.odd_cycle.accept_ratio'] == 1.0, v\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "census", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
