"""Command line interface.

Subcommands: capacity, mincut, rate, sweep, verify, line.  One parser reads
the command line, so a flag may come before or after the subcommand and
means the same either way.  Every run is driven by a fully resolved
ExperimentConfig; precedence is package defaults, then a --config JSON
file, then explicit flags.  A subcommand refuses a non-default value of any
key it does not read.  Outputs embed the resolved config, and identical
configs produce byte-identical output for any worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from . import line as line_mod
from . import mimo, network, rates

SUBCOMMANDS = ("capacity", "mincut", "rate", "sweep", "verify", "line")

#: Mandated sweep / rate row layout.
RATE_HEADER = "K,D,snr,q,upper,lower,gap,thm_bound,prior_cf_bound,alignment_bound,std_error"

# verify exercises small dimensions across a spread of snrs by default
_VERIFY_DEFAULTS = {"snr": (0.1, 1.0, 10.0), "num_samples": 10000}

_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """A config key failed validation; the message names the key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one CLI run.

    The field defaults are the package defaults of the config keys, the one
    place they are written.  ``D``, ``snr``, ``q_policy`` and list-like
    fields are tuples; single values are singleton tuples.  Fields declared
    ``compare=False`` (``workers``, ``out``) are excluded from equality and
    the echoed config: they control how results are produced, never what.
    """

    subcommand: str
    K: int = 2
    D: tuple[int, ...] = (4,)
    snr: tuple[float, ...] = (10.0,)
    q: float | None = None
    q_policy: tuple[str, ...] = ("fixed_1", "depth_matched")
    q_grid: tuple[float, ...] | None = None
    num_samples: int = 100000
    seed: int = 0
    log_base: str = "nats"
    out: str | None = field(default=None, compare=False)
    format: str = "csv"
    workers: int = field(default=1, compare=False)
    penalty: float = 0.0
    m: int | None = None
    n: int | None = None
    gains: tuple[float, ...] | None = None
    max_dim: int = 4
    mode: str = "per_cut_exact"
    destination_quantizes: bool = True

    def as_dict(self) -> dict:
        return mimo._record_dict(self)

    def single_depth(self) -> int:
        if len(self.D) != 1:
            raise ConfigError("D", f"this subcommand needs a single depth, got {list(self.D)}")
        return self.D[0]


#: Config keys in field order, each with its package default.
_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name != "subcommand"
}

#: The keys each subcommand reads (README's flag table).  Every other key
#: must keep its default, or the run would silently ignore it.
_READS = {
    sub: frozenset(keys.split())
    for sub, keys in {
        "capacity": "K snr num_samples seed log_base out format workers m n",
        "mincut": "K D snr num_samples seed log_base out format workers penalty",
        "rate": "K D snr q num_samples seed log_base out format workers mode"
        " destination_quantizes",
        "sweep": "K D snr q_policy q_grid num_samples seed log_base out format workers mode",
        "verify": "snr num_samples seed out format workers max_dim",
        "line": "D snr q log_base out format gains destination_quantizes",
    }.items()
}


def _as_int(key: str, v, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        try:
            iv = int(str(v))
        except (TypeError, ValueError):
            raise ConfigError(key, f"expected an integer, got {v!r}") from None
    else:
        iv = v
    if minimum is not None and iv < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {iv}")
    return iv


def _as_float(key: str, v, positive: bool = False, nonnegative: bool = False) -> float:
    try:
        fv = float(v)
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a number, got {v!r}") from None
    if not math.isfinite(fv):
        raise ConfigError(key, f"must be finite, got {fv}")
    if positive and not fv > 0:
        raise ConfigError(key, f"must satisfy the constraint > 0, got {fv}")
    if nonnegative and fv < 0:
        raise ConfigError(key, f"must be >= 0, got {fv}")
    return fv


def _as_tuple(v) -> tuple:
    if isinstance(v, (list, tuple)):
        return tuple(v)
    if isinstance(v, str) and "," in v:
        return tuple(t for t in v.split(",") if t != "")
    return (v,)


def _as_list(key: str, v, convert) -> tuple:
    """``v`` as a nonempty tuple of ``convert(item)``; a string splits at commas."""
    items = _as_tuple(v)
    if not items:
        raise ConfigError(key, "must be a nonempty list")
    try:
        return tuple(convert(item) for item in items)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(key, str(e)) from None


def _as_choice(key: str, v, choices: tuple[str, ...]) -> str:
    if v not in choices:
        raise ConfigError(key, f"must be one of {choices}, got {v!r}")
    return v


def validate_config(data: dict, subcommand: str | None = None) -> ExperimentConfig:
    """Resolve a raw config dict into an ExperimentConfig.

    Unknown keys and constraint violations raise ConfigError naming the key.
    An empty dict is valid and yields all defaults.  ``subcommand`` given by
    the caller must agree with one present in the data.  A key the
    subcommand does not read (``_READS``) must resolve to its default, so no
    setting is silently ignored; an echoed config, which names every key,
    passes because its unread keys hold their defaults.
    """
    data = dict(data)
    ssub = data.pop("subcommand", None)
    if ssub is not None:
        ssub = _as_choice("subcommand", ssub, SUBCOMMANDS)
    if subcommand is not None and ssub is not None and subcommand != ssub:
        raise ConfigError(
            "subcommand", f"config says {ssub!r} but the command line says {subcommand!r}"
        )
    sub = subcommand or ssub or "rate"

    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")

    merged = dict(_DEFAULTS)
    if sub == "verify":
        merged.update({k: v for k, v in _VERIFY_DEFAULTS.items() if k not in data})
    merged.update({k: v for k, v in data.items() if v is not None})

    q, q_grid, m, n, gains = (merged[k] for k in ("q", "q_grid", "m", "n", "gains"))
    dq = merged["destination_quantizes"]
    if not isinstance(dq, bool):
        raise ConfigError("destination_quantizes", f"expected true or false, got {dq!r}")
    out = merged["out"]
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", f"expected a path string, got {out!r}")
    cfg = ExperimentConfig(
        subcommand=sub,
        K=_as_int("K", merged["K"], minimum=1),
        D=_as_list("D", merged["D"], lambda d: _as_int("D", d, minimum=1)),
        snr=_as_list("snr", merged["snr"], lambda s: _as_float("snr", s, nonnegative=True)),
        q=None if q is None else _as_float("q", q, positive=True),
        q_policy=_as_list("q_policy", merged["q_policy"], lambda p: rates.resolve_policy(str(p))),
        q_grid=None if q_grid is None else _as_list(
            "q_grid", q_grid, lambda g: _as_float("q_grid", g, positive=True)
        ),
        num_samples=_as_int("num_samples", merged["num_samples"], minimum=1),
        seed=_as_int("seed", merged["seed"], minimum=0),
        log_base=_as_choice("log_base", merged["log_base"], mimo._BASES),
        out=out,
        format=_as_choice("format", merged["format"], _FORMATS),
        workers=_as_int("workers", merged["workers"], minimum=1),
        penalty=_as_float("penalty", merged["penalty"], nonnegative=True),
        m=None if m is None else _as_int("m", m, minimum=0),
        n=None if n is None else _as_int("n", n, minimum=0),
        gains=None if gains is None else _as_list(
            "gains", gains, lambda g: _as_float("gains", g, nonnegative=True)
        ),
        max_dim=_as_int("max_dim", merged["max_dim"], minimum=1),
        mode=_as_choice("mode", merged["mode"], rates._MODES),
        destination_quantizes=dq,
    )
    if sub == "line" and cfg.gains is not None:
        if "D" not in data:
            cfg = dataclasses.replace(cfg, D=(len(cfg.gains),))
        elif cfg.D != (len(cfg.gains),):
            raise ConfigError("gains", f"length {len(cfg.gains)} does not match D={list(cfg.D)}")

    for key, default in _DEFAULTS.items():
        if key not in _READS[sub] and getattr(cfg, key) != default:
            raise ConfigError(key, f"{sub} does not read it; it would be ignored")
    if sub == "capacity" and None not in (cfg.m, cfg.n) and cfg.K != _DEFAULTS["K"]:
        raise ConfigError("K", "capacity with m and n set does not read it; it would be ignored")
    if sub == "sweep" and cfg.q_grid is not None and "optimized" not in cfg.q_policy:
        raise ConfigError("q_grid", "only the optimized q_policy reads it; it would be ignored")
    return cfg


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return "|".join(_fmt(item) for item in v)
    return str(v)


def _config_json(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.as_dict(), sort_keys=True, separators=(",", ":"))


def _render_json(schema: str, cfg: ExperimentConfig, results) -> str:
    doc = {"schema": schema, "config": cfg.as_dict(), "results": results}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_results(
    cfg: ExperimentConfig, schema: str, header: str, results: list[dict],
    rows: list[list] | None = None,
) -> None:
    """Write ``rows`` as CSV under ``header``, or ``results`` as JSON.

    Without ``rows`` each CSV row reads the header's keys from one result.
    """
    if cfg.format == "csv":
        if rows is None:
            keys = header.split(",")
            rows = [[r[k] for k in keys] for r in results]
        lines = [f"# schema={schema}", f"# config={_config_json(cfg)}", header]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = _render_json(schema, cfg, results)
    _emit(cfg, text)


def _scheme_for(cfg: ExperimentConfig, num_hops: int) -> rates.QuantizationScheme:
    if cfg.q is not None:
        return rates.QuantizationScheme(cfg.q, cfg.destination_quantizes)
    return rates.QuantizationScheme.depth_matched(num_hops, cfg.destination_quantizes)


def _in_base(d: dict, cfg: ExperimentConfig, keys) -> dict:
    """``d``, a result in nats, with its rates ``keys`` and every
    ``per_block`` capacity in the output base, and ``log_base`` set."""
    scale = mimo.rate_scale(cfg.log_base)
    for key in keys:
        d[key] *= scale
    for block in d.get("per_block", ()):
        block["capacity"] *= scale
    d["log_base"] = cfg.log_base
    return d


def _rate_row(record, cfg: ExperimentConfig) -> dict:
    """The ``rate`` or ``sweep`` result of a record (a ``RateReport`` or a
    ``TrendPoint``): ``_in_base``, with the three gap guarantees set."""
    d = record.as_dict()
    d.update(thm_bound=rates.depth_gap_bound(cfg.K, d["D"]),
             prior_cf_bound=rates.prior_cf_gap_bound(cfg.K, d["D"]),
             alignment_bound=rates.alignment_gap_bound(cfg.K, cfg.log_base))
    rate_keys = {"upper", "lower", "gap", "std_error", "raw_lower", "thm_bound"}
    return _in_base(d, cfg, d.keys() & rate_keys)


def run_capacity(cfg: ExperimentConfig) -> int:
    m = cfg.K if cfg.m is None else cfg.m
    n = cfg.K if cfg.n is None else cfg.n
    rows, results = [], []
    for snr in cfg.snr:
        est = mimo.estimate_ergodic_capacity(
            m, n, snr, cfg.num_samples, cfg.seed, workers=cfg.workers
        )
        d = _in_base({**est.as_dict(), "seed": cfg.seed}, cfg, ("mean", "std_error"))
        rows.append([m, n, snr, d["mean"], d["std_error"], est.num_samples, cfg.seed])
        results.append(d)
    _emit_results(
        cfg, "relaycap/capacity/1", "m,n,snr,mean,std_error,num_samples,seed",
        results, rows,
    )
    return 0


def run_mincut(cfg: ExperimentConfig) -> int:
    D = cfg.single_depth()
    # one pool serves every snr, as in run_sweep
    pool = mimo.SamplePool.build(cfg.K, cfg.num_samples, cfg.seed, workers=cfg.workers)
    cache = mimo.TableCache(pool)
    results = []
    for snr in cfg.snr:
        params = network.NetworkParams(cfg.K, D, power=snr, noise_var=1.0)
        table = cache.lower(snr)
        _, profile = network.min_cut_dp(params, table, node_penalty=cfg.penalty)
        cut = network.cut_value(profile, params, table, node_penalty=cfg.penalty)
        d = {**cut.as_dict(), "K": cfg.K, "D": D, "snr": snr, "penalty": cfg.penalty}
        results.append(_in_base(d, cfg, ("value", "std_error")))
    _emit_results(cfg, "relaycap/mincut/1", "K,D,snr,penalty,value,std_error,profile", results)
    return 0


def run_rate(cfg: ExperimentConfig) -> int:
    D = cfg.single_depth()
    results = []
    for snr in cfg.snr:
        params = network.NetworkParams(cfg.K, D, power=snr, noise_var=1.0)
        report = rates.rate_report(
            params, _scheme_for(cfg, D), cfg.num_samples, cfg.seed,
            mode=cfg.mode, workers=cfg.workers,
        )
        results.append(_rate_row(report, cfg))
    _emit_results(cfg, "relaycap/rate/1", RATE_HEADER, results)
    return 0


def run_sweep(cfg: ExperimentConfig) -> int:
    # one pool and one table cache serve every snr and policy of the sweep
    pool = mimo.SamplePool.build(cfg.K, cfg.num_samples, cfg.seed, workers=cfg.workers)
    cache = mimo.TableCache(pool)
    q_grid = None if cfg.q_grid is None else list(cfg.q_grid)
    results = []
    for snr in cfg.snr:
        for policy in cfg.q_policy:
            points = rates.gap_trend(
                cfg.K, list(cfg.D), snr, policy, cfg.num_samples, cfg.seed,
                mode=cfg.mode, cache=cache,
                q_grid=q_grid if policy == "optimized" else None,
            )
            results.extend(_rate_row(p, cfg) for p in points)
    _emit_results(cfg, "relaycap/sweep/1", RATE_HEADER, results)
    return 0


def run_line(cfg: ExperimentConfig) -> int:
    D = cfg.single_depth()
    gains = (1.0,) * D if cfg.gains is None else cfg.gains
    q = _scheme_for(cfg, D).noise_ratio
    results = []
    for snr in cfg.snr:
        net = line_mod.LineNetwork(gains, power=snr, noise_var=1.0)
        cap = line_mod.line_capacity(net)
        simple = line_mod.line_nnc_rate(
            net, q, mode="simple_cuts", destination_quantizes=cfg.destination_quantizes
        )
        full = line_mod.line_nnc_rate(
            net, q, mode="all_cuts", destination_quantizes=cfg.destination_quantizes
        )
        d = {"D": D, "snr": snr, "q": q, "gains": list(gains), "capacity": cap, "rate": simple,
             "all_cuts_rate": full, "gap": cap - simple,
             "depth_bound": rates.depth_gap_bound(1, D),
             "destination_quantizes": cfg.destination_quantizes}
        results.append(
            _in_base(d, cfg, ("capacity", "rate", "all_cuts_rate", "gap", "depth_bound"))
        )
    _emit_results(
        cfg, "relaycap/line/1", "D,snr,q,capacity,rate,all_cuts_rate,gap,depth_bound", results
    )
    return 0


def run_verify(cfg: ExperimentConfig) -> int:
    checks = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # full tables at every snr: the first decomposes every entry in one pass
    pool = mimo.SamplePool(cfg.max_dim, cfg.num_samples, cfg.seed, cfg.workers)
    tables = {}
    for snr in cfg.snr:
        table = mimo.CapacityTable.from_pool(pool, snr)
        tables[snr] = table
        rep = network.check_capacity_properties(table)
        record(
            f"draw_properties_snr_{snr:g}",
            rep.passed,
            f"symmetry={rep.symmetry_error:.3e} monotonicity={rep.monotonicity_violation:.3e} "
            f"split={rep.split_violation:.3e} tol={rep.tolerance:g}",
        )

    mid_snr = cfg.snr[len(cfg.snr) // 2]
    table = tables[mid_snr]
    for K in range(1, min(3, cfg.max_dim) + 1):
        for D in (2, 3, 4):
            for pen in (0.0, math.log(1.5)):
                params = network.NetworkParams(K, D, power=mid_snr, noise_var=1.0)
                dp_val, dp_prof = network.min_cut_dp(params, table, node_penalty=pen)
                bf_val, bf_prof = network.brute_force_min_cut(params, table, node_penalty=pen)
                ok = dp_val == bf_val and dp_prof == bf_prof
                record(
                    f"dp_equals_brute_force_K{K}_D{D}_pen{pen:.3f}",
                    ok,
                    f"dp={dp_val!r} brute={bf_val!r} "
                    f"profiles {dp_prof.counts} vs {bf_prof.counts}",
                )
                if pen == 0.0:
                    full = table.mean(K, K)
                    ok = abs(dp_val - full) <= 1e-9
                    record(
                        f"min_cut_equals_full_capacity_K{K}_D{D}",
                        ok,
                        f"min_cut={dp_val!r} C(K,K)={full!r}",
                    )

    failed = [c for c in checks if not c["passed"]]
    if cfg.format == "json":
        text = _render_json("relaycap/verify/1", cfg, checks)
    else:
        lines = [
            f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}"
            for c in checks
        ]
        lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 1 if failed else 0


_RUNNERS = {
    "capacity": run_capacity,
    "mincut": run_mincut,
    "rate": run_rate,
    "sweep": run_sweep,
    "verify": run_verify,
    "line": run_line,
}


#: One-line description of each subcommand, listed by --help.
_HELPS = {
    "capacity": "ergodic MIMO capacity of one dimension pair",
    "mincut": "minimum penalized cut of a layered network",
    "rate": "upper/lower bounds and gap guarantees for one network",
    "sweep": "gap versus depth under quantization policies",
    "verify": "internal consistency checks (draw-level properties, DP vs brute force)",
    "line": "closed-form rates of a single-antenna relay chain",
}


def build_parser() -> argparse.ArgumentParser:
    """The one parser.  The subcommand is an optional positional, so each
    flag is declared once and parses alike before or after it."""
    p = argparse.ArgumentParser(
        prog="relaycap",
        description="Capacity bounds for layered relay networks under relay quantization.",
        epilog="subcommands:\n"
        + "\n".join(f"  {name:<9} {text}" for name, text in _HELPS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("subcommand", nargs="?", choices=SUBCOMMANDS, metavar="subcommand",
                   help="one of the subcommands below (default: the config's, else rate)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--K", help="antennas per terminal and relays per layer")
    p.add_argument("--D", help="number of hops; comma list for sweeps")
    p.add_argument("--snr", help="signal-to-noise ratio; comma list allowed")
    p.add_argument("--q", help="quantization noise ratio (default: depth matched)")
    p.add_argument("--q-policy", dest="q_policy",
                   help="sweep policies: fixed_1, depth_matched (alias d_minus_1), optimized")
    p.add_argument("--q-grid", dest="q_grid", help="comma list of candidate ratios")
    p.add_argument("--samples", dest="num_samples", help="Monte Carlo draws")
    p.add_argument("--seed", help="base RNG seed")
    p.add_argument("--base", dest="log_base", help="output rate unit: nats or bits")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", help="output format: csv or json")
    p.add_argument("--workers", help="threads; never changes output bytes")
    p.add_argument("--penalty", help="per-relay rate penalty for mincut")
    p.add_argument("--m", help="receive dimension (capacity)")
    p.add_argument("--n", help="transmit dimension (capacity)")
    p.add_argument("--gains", help="comma list of line link gains |h|^2")
    p.add_argument("--max-dim", dest="max_dim", help="largest dimension verify checks")
    p.add_argument("--mode", help="bound mode: per_cut_exact or split_bound")
    p.add_argument("--no-destination-quantization", dest="destination_quantizes",
                   action="store_false", default=None,
                   help="final hop runs at full snr")
    return p


def _merge_args(args: argparse.Namespace) -> tuple[dict, str | None]:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as e:
            raise ConfigError("config", f"cannot read {args.config}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON in {args.config}: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        data.update(loaded)
    for key in _DEFAULTS:
        v = getattr(args, key, None)
        if v is not None:
            data[key] = v
    return data, args.subcommand


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser
    as it was, so every ``main`` call can reuse it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        data, subcommand = _merge_args(args)
        cfg = validate_config(data, subcommand)
        return _RUNNERS[cfg.subcommand](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
