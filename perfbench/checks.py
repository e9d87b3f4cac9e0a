"""Correctness checks on result rows, and a self-test of the checker.

Every row is compared with a stored reference row for the same
(kind, policy, K, D, snr, num_samples), computed by ``make_reference.py`` on
a different pool seed.  Two Monte Carlo estimates on independent pools differ
by noise, so the tolerances are standard errors:

* ``gap`` within Z * sqrt(se_row^2 + se_ref^2), where se is the row's own
  ``std_error`` (the common-random-number error of the gap);
* ``upper`` within Z * sqrt(2) * upper_se, with upper_se the reference's
  standard error of C(K, K) at the same sample count (a shift that moves
  upper and lower together leaves the gap unchanged, so it is checked too).

Exact columns (K, D, snr, the q rule of the policy, thm_bound = K ln D + K)
must match, and the invariants upper >= lower, upper - lower = gap,
gap <= thm_bound on depth_matched rows and a strictly increasing gap along
D on fixed_1 rows must hold.  A row failing any check is a failed operation.

Run ``python3 perfbench/checks.py`` for the self-test: it passes only if
unperturbed reference rows are accepted and perturbed ones are rejected.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
Z = 6.0


def row_key(kind: str, policy: str, K: int, D: int, snr: float, num_samples: int) -> tuple:
    return (kind, policy, int(K), int(D), repr(float(snr)), int(num_samples))


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {
        row_key(r["kind"], r["policy"], r["K"], r["D"], r["snr"], r["num_samples"]): r
        for r in doc["rows"]
    }


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def row_problems(row: dict, reference: dict) -> list[str]:
    """Problems with one row on its own (the fixed_1 trend needs its
    neighbours and is checked in ``check_rows``)."""
    if "error" in row:
        return [row["error"]]
    key = row_key(row["kind"], row["policy"], row["K"], row["D"], row["snr"],
                  row["num_samples"])
    ref = reference.get(key)
    if ref is None:
        return [f"no reference row for {key}"]
    K, D = row["K"], row["D"]
    upper, lower, gap, se = row["upper"], row["lower"], row["gap"], row["std_error"]
    out = []
    if not all(math.isfinite(v) for v in (upper, lower, gap, se)) or se < 0:
        return [f"non-finite value or negative std_error in {row}"]
    if not _close(row["thm_bound"], K * math.log(D) + K):
        out.append(f"thm_bound {row['thm_bound']!r} != K ln D + K")
    policy = row["policy"]
    if policy == "fixed_1" and row["q"] != 1.0:
        out.append(f"fixed_1 row has q={row['q']!r}")
    if policy == "depth_matched" and row["q"] != float(max(D - 1, 1)):
        out.append(f"depth_matched row has q={row['q']!r}, expected {max(D - 1, 1)}")
    if not (row["q"] > 0 and math.isfinite(row["q"])):
        out.append(f"q={row['q']!r} is not positive and finite")
    if not upper >= lower:
        out.append(f"upper {upper!r} < lower {lower!r}")
    if not _close(upper - lower, gap, 1e-9):
        out.append(f"upper - lower = {upper - lower!r} but gap = {gap!r}")
    if policy == "depth_matched" and not gap <= row["thm_bound"]:
        out.append(f"gap {gap!r} exceeds thm_bound {row['thm_bound']!r}")
    tol_gap = Z * math.hypot(se, ref["std_error"])
    if abs(gap - ref["gap"]) > tol_gap:
        out.append(f"gap {gap!r} vs reference {ref['gap']!r} differs by more "
                   f"than {tol_gap:.3g} ({Z:g} standard errors)")
    tol_upper = Z * math.sqrt(2.0) * ref["upper_se"]
    if abs(upper - ref["upper"]) > tol_upper:
        out.append(f"upper {upper!r} vs reference {ref['upper']!r} differs by "
                   f"more than {tol_upper:.3g}")
    return out


def check_rows(rows: list[dict], reference: dict) -> list[list[str]]:
    """Problems per row, including the strictly increasing fixed_1 gap
    along D within each (kind, K, snr) group, in emitted order."""
    problems = [row_problems(r, reference) for r in rows]
    last_gap: dict[tuple, tuple[int, float]] = {}
    for i, r in enumerate(rows):
        if "error" in r or r["policy"] != "fixed_1" or r["kind"] != "sweep":
            continue
        group = (r["K"], r["snr"])
        prev = last_gap.get(group)
        if prev is not None and not (r["D"] > prev[0] and r["gap"] > prev[1]):
            problems[i].append(f"fixed_1 gap {r['gap']!r} at D={r['D']} does not "
                               f"exceed {prev[1]!r} at D={prev[0]}")
        last_gap[group] = (r["D"], r["gap"])
    return problems


def self_test(reference: dict | None = None) -> list[str]:
    """Return the checker's own failures (empty when it works)."""
    reference = load_reference() if reference is None else reference
    sweep = sorted(
        (r for r in reference.values()
         if r["kind"] == "sweep" and r["policy"] == "fixed_1"
         and r["num_samples"] == 50_000 and r["D"] in (2, 4, 8)),
        key=lambda r: r["D"],
    )
    rate = next(r for r in reference.values()
                if r["kind"] == "rate" and r["policy"] == "depth_matched")

    def as_row(ref: dict, **changes) -> dict:
        row = {k: ref[k] for k in ("kind", "policy", "K", "D", "snr", "num_samples",
                                   "q", "upper", "lower", "gap", "std_error")}
        row["thm_bound"] = row["K"] * math.log(row["D"]) + row["K"]
        row.update(changes)
        return row

    def shifted(ref: dict, by: float) -> dict:
        return as_row(ref, lower=ref["lower"] - by, gap=ref["gap"] + by)

    failures = []
    clean = [as_row(r) for r in sweep] + [as_row(rate)]
    if any(check_rows(clean, reference)):
        failures.append(f"clean rows rejected: {check_rows(clean, reference)}")
    se = sweep[1]["std_error"]
    perturbed = {
        "gap shifted by 20 standard errors": [as_row(sweep[0]), shifted(sweep[1], 20 * se)],
        "upper and lower shifted together": [
            as_row(sweep[0], upper=sweep[0]["upper"] + 1.0, lower=sweep[0]["lower"] + 1.0)],
        "upper below lower": [as_row(rate, upper=rate["lower"] - 0.1, gap=-0.1)],
        "fixed_1 gap not increasing": [as_row(sweep[0]), as_row(sweep[2]), as_row(sweep[1])],
        "depth_matched gap above thm_bound": [
            shifted(rate, as_row(rate)["thm_bound"] + 1.0 - rate["gap"])],
        "missing row": [{"error": "missing row 0"}],
    }
    for name, rows in perturbed.items():
        if not any(check_rows(rows, reference)):
            failures.append(f"perturbed rows accepted: {name}")
    return failures


if __name__ == "__main__":
    fails = self_test()
    for f in fails:
        print(f"FAIL {f}")
    print("checker self-test", "failed" if fails else "passed")
    sys.exit(1 if fails else 0)
