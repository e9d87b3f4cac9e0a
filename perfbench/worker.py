"""One workload in a fresh process; prints its measurements as one JSON line.

Started by run.py, with the repository's ``src`` first on PYTHONPATH and the
BLAS thread variables set, so the process imports the checkout's relaycap and
its ``ru_maxrss`` is the workload's own.  Modes:

  worker.py --probe                      time import + one small call (setup)
  worker.py --workload W --seed N --seconds S --trace 0|1

With --trace 0 it runs untraced passes until the next one would overrun the
budget; with --trace 1 it alternates an untraced and a traced pass, so the
tracing overhead is measured on the same inputs in the same process.  Every
pass is checked; checking is not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))


def warm_up() -> None:
    from relaycap import network, rates

    rates.rate_report(network.NetworkParams(2, 4), num_samples=4096, seed=0)


def probe() -> dict:
    t0 = time.perf_counter()
    import relaycap  # noqa: F401

    warm_up()
    return {"setup_s": time.perf_counter() - t0, "relaycap": relaycap.__file__}


def environment(workload: str, workers: int) -> dict:
    import numpy
    import scipy

    def blas(cfg) -> str:
        b = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{b.get('name', '?')} {b.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "workload": workload,
        "workers": workers,
    }


def run(args) -> dict:
    import checks
    import spans
    import workloads as wl

    import relaycap

    src = HERE.parent / "src"
    if Path(relaycap.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported relaycap from {relaycap.__file__}, not {src}")
    warm_up()
    nproc = len(os.sched_getaffinity(0))
    inputs = wl.make_inputs(args.workload, args.seed, nproc)
    reference = checks.load_reference()
    tracer = spans.Tracer()

    passes = {"untraced": [], "traced": []}
    layer, traces = [], []
    attempted = failed = 0
    problems = []
    schedule = ["untraced", "traced"] if args.trace else ["untraced"]
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for mode in schedule:
            if mode == "traced":
                tracer.reset()
                with tracer.installed():
                    res = wl.run_pass(args.workload, inputs)
                tracer.counters["cli.bytes_out"] += res.bytes_out
                layer.append(spans.layer_metrics(tracer.spans, tracer.counters, res.wall_s))
                traces.append((tracer.spans, res.wall_s))
            else:
                res = wl.run_pass(args.workload, inputs)
            passes[mode].append(res)
            row_problems = checks.check_rows(res.rows, reference)
            bad = sum(1 for p in row_problems if p)
            if res.errors or len(res.rows) < res.attempted:
                bad = res.attempted
            attempted += res.attempted
            failed += min(bad, res.attempted)
            problems.extend(res.errors)
            problems.extend(p for ps in row_problems for p in ps)
        cycle_s = time.perf_counter() - t_cycle
        if time.perf_counter() - t_start + cycle_s > args.seconds:
            break

    for i, (recorded, wall) in enumerate(traces, 1):
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-pass{i}.jsonl",
                     recorded, {"workload": args.workload, "seed": args.seed, "wall_s": wall})
    untraced = passes["untraced"]
    latencies = [x for p in untraced for x in p.latencies_ms]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": len(untraced),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "op_p50_ms": wl.percentile(latencies, 50),
        "op_p95_ms": wl.percentile(latencies, 95),
        "op_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "repeat_shares": inputs.get("repeat_shares"),
        "env": environment(args.workload, inputs["workers"]),
    }
    if args.trace:
        traced_wall = statistics.median(p.wall_s for p in passes["traced"])
        per_layer = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.untraced_wall_s"] = result["wall_s"]
        per_layer["trace.overhead_ratio"] = traced_wall / result["wall_s"]
        result["per_layer"] = per_layer
        result["bindings"] = tracer.bindings
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = probe() if args.probe else run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
