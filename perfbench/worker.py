"""One repetition of one workload, in a fresh interpreter.

run.py passes one JSON argument: workload, params (null for the benchmark
sizes), seed, repetition number, trace, setup_only, and the ``time.monotonic()`` reading taken
just before it started the interpreter, so set-up time covers interpreter
start, ``import oddcycle`` and input generation.  With setup_only the worker
stops there and prints only the set-up time and the speed factor measured
right after it.  Otherwise it prints one JSON
line: timings, the speed factor (untraced only), work counts, per-query
seconds, one answer with its failed checks per operation and, when tracing,
the per-layer values.

A fresh interpreter per repetition keeps the module-level caches
(``extremal._CENSUS_CACHE``, the ``roots._sturm_chain`` LRU) as cold as a
command-line user finds them.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import oddcycle

    if not Path(oddcycle.__file__).resolve().is_relative_to(SRC):
        print(f"oddcycle imported from {oddcycle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(oddcycle)
    from calibration import Calibration, speed_factor_now
    from workloads import FRESH_INPUTS, SIZES, WORKLOADS

    prepare, run, check = WORKLOADS[job["workload"]]
    inputs = prepare(job["params"] or SIZES[job["workload"]], job["seed"], job["rep"])
    setup = {"setup_s": time.monotonic() - job["spawned_at"], "setup_factor": speed_factor_now()}
    if job["setup_only"]:
        print(json.dumps(setup))
        return 0

    # untraced repetitions sample the machine's speed; see calibration.py
    with Calibration(sample=tracer is None) as calibration:
        if tracer is not None:
            tracer.enabled = True
        c0 = calibration.cpu_clock()
        t0 = calibration.clock()
        results, items, query_s = run(inputs, calibration.clock)
        wall_s = calibration.clock() - t0
        cpu_s = calibration.cpu_clock() - c0
        if tracer is not None:
            tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = check(inputs, results)
    out = {
        **setup,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "items": items,
        # a sweep is one query: the whole repetition a command-line user waits on
        "query_s": query_s if query_s is not None else [wall_s],
        "ops": ops,
        # repetitions with the same inputs must give the same answers
        "inputs_id": job["rep"] if job["workload"] in FRESH_INPUTS else 0,
    }
    if calibration.sample:
        out["speed_factor"] = calibration.factor()
    if tracer is not None:
        out["layers"] = tracer.layer_values()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
