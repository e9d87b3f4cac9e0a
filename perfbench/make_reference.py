"""Regenerate perfbench/reference.json, the rows the benchmark checks against.

The reference uses the same sample counts as the workloads but its own pool
seed, so a workload row and its reference row are independent estimates and
the checker compares them within standard errors.  It covers every row any
workload seed can produce:

* sweep rows, K = 2, snr = 10: the three policies at depths 2..32 of
  sweep-optimized, and fixed_1 at every depth deep-fixed can draw;
* rate rows (rate_report, depth-matched q): every (K, D, snr) of the
  rate-queries mix.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_reference.py
It takes about a minute on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from checks import REFERENCE_PATH  # noqa: E402

REFERENCE_SEED = 20130426


def _upper_se(K: int, snr: float, num_samples: int) -> float:
    from relaycap import CapacityTable, SamplePool

    pool = SamplePool.build(K, num_samples, REFERENCE_SEED)
    return CapacityTable.from_pool(pool, snr, keep_per_draw=False).std_error(K, K)


def sweep_rows() -> list[dict]:
    from relaycap import rates

    K, snr, n = 2, 10.0, wl.SWEEP_SAMPLES
    upper_se = _upper_se(K, snr, n)
    plan = {p: list(wl.SWEEP_DEPTHS) for p in wl.OPTIMIZED_POLICIES}
    plan["fixed_1"] = list(range(2, wl.DEEP_MAX + 1))
    rows = []
    for policy, depths in plan.items():
        for p in rates.gap_trend(K, depths, snr, policy, n, REFERENCE_SEED):
            rows.append({
                "kind": "sweep", "policy": policy, "K": K, "D": p.num_hops,
                "snr": snr, "num_samples": n, "q": p.noise_ratio,
                "upper": p.upper, "upper_se": upper_se, "lower": p.lower,
                "gap": p.gap, "std_error": p.std_error,
            })
    return rows


def rate_rows() -> list[dict]:
    from relaycap import network, rates

    n = wl.QUERY_SAMPLES
    rows = []
    for K in sorted(set(wl.QUERY_WIDTHS)):
        for db in wl.QUERY_SNR_DB:
            snr = wl.snr_from_db(db)
            upper_se = _upper_se(K, snr, n)
            for D in wl.QUERY_DEPTHS:
                params = network.NetworkParams(K, D, power=snr, noise_var=1.0)
                rep = rates.rate_report(params, num_samples=n, seed=REFERENCE_SEED)
                rows.append({
                    "kind": "rate", "policy": "depth_matched", "K": K, "D": D,
                    "snr": rep.snr, "num_samples": n, "q": rep.noise_ratio,
                    "upper": rep.upper, "upper_se": upper_se, "lower": rep.lower,
                    "gap": rep.gap, "std_error": rep.std_error,
                })
    return rows


def main() -> int:
    doc = {
        "schema": "perfbench/reference/1",
        "seed": REFERENCE_SEED,
        "rows": sweep_rows() + rate_rows(),
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(doc['rows'])} rows to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
