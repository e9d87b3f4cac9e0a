"""relaycap benchmark: one command for every workload and metric.

  python3 perfbench/run.py                       all workloads, untraced then traced
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are found from this file).
Each workload runs in its own fresh process (worker.py) against the
checkout's ``src``; set-up time is the median of several fresh-process
imports.  With --trace 0 the last line of output is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics from the traced
passes.  Without --workload, every workload runs both ways and all metrics
are printed.  README.md says why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0

#: name -> unit; every metric the benchmark reports, end-to-end first.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "matrices_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last == "flops_computed":
        return "flop"
    if last.startswith("bytes"):
        return "bytes"
    if last.endswith("_mb"):
        return "MB"
    if last in ("hit_ratio", "share", "overhead_ratio"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a child process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def measure_setup(deadline: float) -> list[float]:
    return [run_child(["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    setups = measure_setup(deadline)
    out = run_child(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline,
    )
    out["setup_s"] = statistics.median(setups)
    out["setup_samples"] = setups
    return out


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:34s} {value:>14.6g} {unit:6s} {note}".rstrip()


def report(out: dict, trace: int) -> dict:
    """Print one workload's run; return its metrics as {name: {value, unit}}."""
    w = wl.WORKLOADS[out["workload"]]
    print(f"== {w.name}  seed={out['seed']}  trace={trace}  passes={out['passes']}")
    print(f"   why: {w.why}")
    print(f"   loads: {w.loads}; bypasses: {w.bypasses}")
    print("   env: " + json.dumps(out["env"], sort_keys=True))
    if out.get("repeat_shares"):
        print("   repeat shares: " + json.dumps(out["repeat_shares"], sort_keys=True))
    frac = out["failed"] / out["attempted"]
    print(_line("failed_ops_frac", frac, "ratio", f"{out['failed']} of {out['attempted']}"))
    for p in out["problems"]:
        print(f"   FAILED: {p}")
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(out["per_layer"].items())}
        for name, binding in sorted(out["bindings"].items()):
            print(f"   span {name}: {', '.join(binding)}")
    else:
        metrics = {k: {"value": out[k], "unit": u} for k, u in END_TO_END.items()}
    notes = {
        "setup_s": f"median of {len(out['setup_samples'])} fresh processes",
        "wall_s": f"median of {out['passes']} passes",
        "op_p50_ms": f"n={out['op_samples']}",
        "op_p95_ms": f"n={out['op_samples']}",
    }
    for k, m in metrics.items():
        print(_line(k, m["value"], m["unit"], notes.get(k, "")))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="relaycap benchmark")
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                    help="one workload (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=0, help="workload input seed")
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="measurement budget of one workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "relaycap" / "__init__.py").is_file():
        print(f"error: no relaycap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    broken = checks.self_test()
    if broken:
        print("error: checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 1

    if args.workload:
        runs = [(args.workload, args.trace)]
    else:
        runs = [(name, t) for name in wl.WORKLOADS for t in (0, 1)]
    metrics, attempted, failed = {}, 0, 0
    for name, trace in runs:
        if not args.workload:
            deadline = time.monotonic() + DEADLINE_S
        try:
            out = run_workload(name, args.seed, args.seconds, trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        m = report(out, trace)
        attempted += out["attempted"]
        failed += out["failed"]
        if args.workload:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
