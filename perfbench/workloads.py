"""Seeded input generators and timed passes for the benchmark workloads.

A generator turns a workload seed into the inputs the program receives (CLI
arguments or a list of queries); nothing else about the seed reaches the
program.  A pass runs those inputs once through the public API or the
in-process CLI and returns its wall time, per-operation latencies and result
rows.  Why each workload exists, and which layer it loads or bypasses, is in
``WORKLOADS`` and in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import time
from dataclasses import dataclass, field

SWEEP_SAMPLES = 50_000
QUERY_SAMPLES = 10_000
SWEEP_DEPTHS = (2, 4, 8, 16, 32)
OPTIMIZED_POLICIES = ("fixed_1", "depth_matched", "optimized")

# deep-fixed: depth 2 plus one depth drawn from each of DEEP_STRATA strata of
# width DEEP_STRIDE starting at 3, so every seed has the same number of
# depths and nearly the same total depth (the cost of the network layer is
# linear in the sum of depths).
DEEP_STRATA = 59
DEEP_STRIDE = 8
DEEP_MAX = 3 + DEEP_STRATA * DEEP_STRIDE - 1

# rate-queries: the mix is a shuffled multiset, not independent draws, so
# each seed sends the same number of queries of each width and the run time
# does not swing with how many expensive K = 3 queries a seed happens to get.
NUM_QUERIES = 200
QUERY_WIDTHS = (1, 2, 2, 3)
QUERY_DEPTHS = (2, 3, 4, 6, 8, 16, 32)
QUERY_SNR_DB = (0, 5, 10, 15, 20)


def snr_from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    kind: str  # "sweep" (CLI) or "queries" (public API, closed loop)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-optimized",
            "the paper's headline experiment: gap versus depth under three "
            "quantization policies, many snr values over one shared pool",
            "mimo capacity tables (from_pool, gram_logdet) and TableCache",
            "nothing; the network layer is a small share at depth <= 32",
            "sweep",
        ),
        Workload(
            "rate-queries",
            "serving-shaped: one closed-loop client sending rate_report "
            "queries, many small pools with two tables each, partly repeated",
            "mimo pool and table builds per request",
            "TableCache reuse inside a request (two distinct snr per query)",
            "queries",
        ),
        Workload(
            "deep-fixed",
            "deep networks at q = 1: only two tables are built, cut "
            "evaluation over hundreds of hops dominates",
            "network cut evaluation (cut_profile_draws, min_cut_dp)",
            "the mimo table layer (two builds per pass)",
            "sweep",
        ),
    )
}


def workers_for(name: str, nproc: int) -> int:
    """Thread count passed to the program; never more than the cores."""
    return min(2, nproc) if name == "sweep-optimized" else 1


def make_inputs(name: str, seed: int, nproc: int) -> dict:
    """Inputs of one workload, a pure function of (name, seed, nproc)."""
    rng = random.Random(f"{name}:{seed}")
    workers = workers_for(name, nproc)
    if name == "sweep-optimized":
        depths = list(SWEEP_DEPTHS)
        policies = list(OPTIMIZED_POLICIES)
    elif name == "deep-fixed":
        depths = [2] + [
            rng.randrange(3 + i * DEEP_STRIDE, 3 + (i + 1) * DEEP_STRIDE)
            for i in range(DEEP_STRATA)
        ]
        policies = ["fixed_1"]
    elif name == "rate-queries":
        return _query_inputs(rng, workers)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    pool_seed = _program_seed(rng)
    argv = [
        "sweep", "--K", "2", "--D", ",".join(map(str, depths)), "--snr", "10",
        "--samples", str(SWEEP_SAMPLES), "--q-policy", ",".join(policies),
        "--workers", str(workers), "--seed", str(pool_seed),
    ]
    return {
        "argv": argv, "K": 2, "depths": depths, "snr": [10.0],
        "policies": policies, "num_samples": SWEEP_SAMPLES, "workers": workers,
    }


def _query_inputs(rng: random.Random, workers: int) -> dict:
    n = NUM_QUERIES
    widths = [QUERY_WIDTHS[i % len(QUERY_WIDTHS)] for i in range(n)]
    depths = [QUERY_DEPTHS[i % len(QUERY_DEPTHS)] for i in range(n)]
    snrs = [QUERY_SNR_DB[i % len(QUERY_SNR_DB)] for i in range(n)]
    default_seed = [i < n // 2 for i in range(n)]
    for column in (widths, depths, snrs, default_seed):
        rng.shuffle(column)
    unique = iter(rng.sample(range(1, 2**31), n))
    queries = [
        {"K": k, "D": d, "snr_db": db, "seed": 0 if dflt else next(unique)}
        for k, d, db, dflt in zip(widths, depths, snrs, default_seed)
    ]
    return {
        "queries": queries, "num_samples": QUERY_SAMPLES, "workers": workers,
        "repeat_shares": repeat_shares(queries, QUERY_SAMPLES),
    }


def repeat_shares(queries: list[dict], num_samples: int) -> dict:
    """Share of queries whose pool key (K, num_samples, seed), or table key
    (pool key plus snr), already occurred in an earlier query."""
    seen_pool, seen_table = set(), set()
    pool_rep = table_rep = 0
    for q in queries:
        pk = (q["K"], num_samples, q["seed"])
        tk = pk + (q["snr_db"],)
        pool_rep += pk in seen_pool
        table_rep += tk in seen_table
        seen_pool.add(pk)
        seen_table.add(tk)
    n = len(queries)
    return {
        "pool_key": pool_rep / n, "table_key": table_rep / n,
        "pool_key_repeats": pool_rep, "table_key_repeats": table_rep,
        "queries": n,
    }


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]
    rows: list[dict]
    attempted: int
    errors: list[str] = field(default_factory=list)
    bytes_out: int = 0


def expected_rows(inputs: dict) -> list[tuple]:
    """(snr, policy, D) of every row a sweep must emit, in CLI order."""
    return [
        (snr, policy, d)
        for snr in inputs["snr"]
        for policy in inputs["policies"]
        for d in inputs["depths"]
    ]


def run_sweep_pass(inputs: dict) -> PassResult:
    """One CLI sweep; a row's latency is the sweep time over its rows,
    because the CLI returns all rows together."""
    import relaycap.cli

    expected = expected_rows(inputs)
    buf = io.StringIO()
    errors = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = relaycap.cli.main(inputs["argv"])
    except (Exception, SystemExit) as e:  # a crash fails every row
        code = None
        errors.append(f"cli raised {e!r}")
    wall = time.perf_counter() - t0
    text = buf.getvalue()
    if code != 0:
        errors.append(f"cli exit code {code}")
        rows = []
    else:
        rows = parse_sweep_csv(text, expected, inputs["num_samples"])
    per_row_ms = 1e3 * wall / len(expected)
    return PassResult(
        wall, [per_row_ms], rows, len(expected), errors, len(text.encode())
    )


def parse_sweep_csv(text: str, expected: list[tuple], num_samples: int) -> list[dict]:
    """Rows of a sweep CSV tagged with their policy; a row that is missing,
    unparsable or out of order is returned as an error row."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    records = list(csv.DictReader(lines))
    rows = []
    for i, (snr, policy, d) in enumerate(expected):
        if i >= len(records):
            rows.append({"error": f"missing row {i} (D={d}, policy={policy})"})
            continue
        try:
            rec = {k: float(v) for k, v in records[i].items()}
        except (TypeError, ValueError) as e:
            rows.append({"error": f"unparsable row {i}: {e}"})
            continue
        if rec["D"] != d or rec["snr"] != snr:
            rows.append({"error": f"row {i} is D={rec['D']} snr={rec['snr']}, "
                                  f"expected D={d} snr={snr}"})
            continue
        rows.append({
            "kind": "sweep", "policy": policy, "K": int(rec["K"]), "D": d,
            "snr": snr, "num_samples": num_samples, "q": rec["q"],
            "upper": rec["upper"], "lower": rec["lower"], "gap": rec["gap"],
            "thm_bound": rec["thm_bound"], "std_error": rec["std_error"],
        })
    if len(records) > len(expected):
        rows.append({"error": f"{len(records) - len(expected)} unexpected extra rows"})
    return rows


def run_query_pass(inputs: dict) -> PassResult:
    """200 rate_report queries, each sent after the previous one returned."""
    from relaycap import network, rates

    n = inputs["num_samples"]
    latencies, reports = [], []
    t0 = time.perf_counter()
    for q in inputs["queries"]:
        t = time.perf_counter()
        try:
            params = network.NetworkParams(
                q["K"], q["D"], power=snr_from_db(q["snr_db"]), noise_var=1.0
            )
            rep = rates.rate_report(params, num_samples=n, seed=q["seed"])
        except Exception as e:  # a failed query is counted, not fatal
            rep = e
        latencies.append(1e3 * (time.perf_counter() - t))
        reports.append(rep)
    wall = time.perf_counter() - t0
    rows = []
    for rep in reports:
        if isinstance(rep, Exception):
            rows.append({"error": f"rate_report raised {rep!r}"})
            continue
        rows.append({
            "kind": "rate", "policy": "depth_matched", "K": rep.relays_per_layer,
            "D": rep.num_hops, "snr": rep.snr, "num_samples": rep.num_samples,
            "q": rep.noise_ratio, "upper": rep.upper, "lower": rep.lower,
            "gap": rep.gap, "thm_bound": rep.thm_bound, "std_error": rep.std_error,
        })
    return PassResult(wall, latencies, rows, len(inputs["queries"]))


def run_pass(name: str, inputs: dict) -> PassResult:
    if WORKLOADS[name].kind == "queries":
        return run_query_pass(inputs)
    return run_sweep_pass(inputs)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
