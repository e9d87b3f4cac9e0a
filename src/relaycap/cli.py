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
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import line as line_mod
from . import mimo, network, rates

#: One-line description of each subcommand, listed by --help.
_HELPS = {
    "capacity": "ergodic MIMO capacity of one dimension pair",
    "mincut": "minimum penalized cut of a layered network",
    "rate": "upper/lower bounds and gap guarantees for one network",
    "sweep": "gap versus depth under quantization policies",
    "verify": "internal consistency checks (draw-level properties, DP vs brute force)",
    "line": "closed-form rates of a single-antenna relay chain",
}
SUBCOMMANDS = tuple(_HELPS)

#: Mandated sweep / rate row layout.
RATE_HEADER = "K,D,snr,q,upper,lower,gap,thm_bound,prior_cf_bound,alignment_bound,std_error"

# verify exercises small dimensions across a spread of snrs by default
_VERIFY_DEFAULTS = {"snr": (0.1, 1.0, 10.0), "num_samples": 10000}

#: Readers of a key that every subcommand reads, and of the Monte Carlo keys.
_EVERY = " ".join(SUBCOMMANDS)
_SAMPLING = "capacity mincut rate sweep verify"


class ConfigError(ValueError):
    """A config key failed validation; the message names the key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def _as_int(key: str, v, minimum: int = 1) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        try:
            iv = int(str(v))
        except (TypeError, ValueError):
            raise ConfigError(key, f"expected an integer, got {v!r}") from None
    else:
        iv = v
    if iv < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {iv}")
    return iv


def _as_float(key: str, v, positive: bool = False) -> float:
    """``v`` as a finite float, >= 0, or > 0 when ``positive``."""
    if isinstance(v, bool):
        raise ConfigError(key, f"expected a number, got {v!r}")
    try:
        fv = float(v)
    except OverflowError:  # an int beyond the floats
        raise ConfigError(key, f"must be finite, got {v!r}") from None
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a number, got {v!r}") from None
    if not math.isfinite(fv):
        raise ConfigError(key, f"must be finite, got {fv}")
    if positive and not fv > 0:
        raise ConfigError(key, f"must satisfy the constraint > 0, got {fv}")
    if fv < 0:
        raise ConfigError(key, f"must be >= 0, got {fv}")
    return fv


def _as_bool(key: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(key, f"expected true or false, got {v!r}")
    return v


def _as_path(key: str, v) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(key, f"expected a path string, got {v!r}")
    return v


def _as_list(key: str, v, convert) -> tuple:
    """``v`` as a nonempty tuple of ``convert(key, item)``; a string splits at commas."""
    if isinstance(v, str) and "," in v:
        v = [t for t in v.split(",") if t != ""]
    items = tuple(v) if isinstance(v, (list, tuple)) else (v,)
    if not items:
        raise ConfigError(key, "must be a nonempty list")
    try:
        return tuple(convert(key, item) for item in items)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(key, str(e)) from None


def _as_choice(key: str, v, choices: tuple[str, ...]) -> str:
    if v not in choices:
        raise ConfigError(key, f"must be one of {choices}, got {v!r}")
    return v


def _each(convert):
    return partial(_as_list, convert=convert)


def _key(default, reads: str, help: str, convert, flag: str | None = None, **field_kw):
    """A config key's field; its metadata holds the subcommands that read it,
    its help, ``convert(key, raw value)`` and its flag if not ``--<name>``."""
    meta = {"reads": frozenset(reads.split()), "help": help, "convert": convert, "flag": flag}
    return field(default=default, metadata=meta, **field_kw)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one CLI run.

    Each config key is one field, declared through ``_key``: its default is
    the key's package default, and the parser, ``validate_config``,
    ``_DEFAULTS`` and ``_READS`` (README's flag table) read its metadata.
    ``D``, ``snr``, ``q_policy`` and list-like fields are tuples; single
    values are singleton tuples.  Fields declared ``compare=False``
    (``workers``, ``out``) are excluded from equality and the echoed config:
    they control how results are produced, never what.
    """

    subcommand: str
    K: int = _key(2, "capacity mincut rate sweep", "antennas per terminal and relays per layer",
                  _as_int)
    D: tuple[int, ...] = _key((4,), "mincut rate sweep line",
                              "number of hops; comma list for sweeps", _each(_as_int))
    snr: tuple[float, ...] = _key((10.0,), _EVERY, "signal-to-noise ratio; comma list allowed",
                                  _each(_as_float))
    q: float | None = _key(None, "rate line", "quantization noise ratio (default: depth matched)",
                           partial(_as_float, positive=True))
    q_policy: tuple[str, ...] = _key(
        ("fixed_1", "depth_matched"), "sweep",
        "sweep policies: fixed_1, depth_matched (alias d_minus_1), optimized",
        _each(lambda key, p: rates.resolve_policy(str(p))),
    )
    q_grid: tuple[float, ...] | None = _key(None, "sweep", "comma list of candidate ratios",
                                            _each(partial(_as_float, positive=True)))
    # one draw has no spread: its standard error would read 0.0
    num_samples: int = _key(100000, _SAMPLING, "Monte Carlo draws", partial(_as_int, minimum=2),
                            flag="--samples")
    seed: int = _key(0, _SAMPLING, "base RNG seed", partial(_as_int, minimum=0))
    # the library's choice sets are read at call time
    log_base: str = _key("nats", "capacity mincut rate sweep line",
                         "output rate unit: nats or bits",
                         lambda key, v: _as_choice(key, v, mimo._BASES), flag="--base")
    out: str | None = _key(None, _EVERY, "output path (default stdout)", _as_path, compare=False)
    format: str = _key("csv", _EVERY, "output format: csv or json",
                       partial(_as_choice, choices=("csv", "json")))
    workers: int = _key(1, _SAMPLING, "threads; never changes output bytes", _as_int, compare=False)
    penalty: float = _key(0.0, "mincut", "per-relay rate penalty for mincut", _as_float)
    m: int | None = _key(None, "capacity", "receive dimension (capacity)",
                         partial(_as_int, minimum=0))
    n: int | None = _key(None, "capacity", "transmit dimension (capacity)",
                         partial(_as_int, minimum=0))
    gains: tuple[float, ...] | None = _key(None, "line", "comma list of line link gains |h|^2",
                                           _each(_as_float))
    max_dim: int = _key(4, "verify", "largest dimension verify checks", _as_int)
    mode: str = _key("per_cut_exact", "rate sweep", "bound mode: per_cut_exact or split_bound",
                     lambda key, v: _as_choice(key, v, rates._MODES))
    destination_quantizes: bool = _key(True, "rate line", "final hop runs at full snr", _as_bool,
                                       flag="--no-destination-quantization")

    def as_dict(self) -> dict:
        return mimo._record_dict(self)

    def single_depth(self) -> int:
        if len(self.D) != 1:
            raise ConfigError("D", f"this subcommand needs a single depth, got {list(self.D)}")
        return self.D[0]


#: The config keys in field order, each key's package default, and the keys
#: each subcommand reads.  Every other key must keep its default, or the run
#: would silently ignore it.
_KEYS = tuple(f for f in dataclasses.fields(ExperimentConfig) if f.name != "subcommand")
_DEFAULTS = {f.name: f.default for f in _KEYS}
_READS = {
    sub: frozenset(f.name for f in _KEYS if sub in f.metadata["reads"]) for sub in SUBCOMMANDS
}


def validate_config(data: dict, subcommand: str | None = None) -> ExperimentConfig:
    """Resolve a raw config dict into an ExperimentConfig.

    Unknown keys and constraint violations raise ConfigError naming the key;
    of several invalid keys, the first in field order.  An empty dict is
    valid and yields all defaults.  ``subcommand`` given by the caller must
    agree with one present in the data.  A key the subcommand does not read
    (``_READS``) must resolve to its default, so no setting is silently
    ignored; an echoed config, which names every key, passes because its
    unread keys hold their defaults.
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
    cfg = ExperimentConfig(sub, **{
        f.name: None if merged[f.name] is None else f.metadata["convert"](f.name, merged[f.name])
        for f in _KEYS
    })
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

    # the property checks read raw draws, the DP a certified lower table: one
    # pass decomposes its (K, K), for the floors, and every entry up to k_max
    pool = mimo.SamplePool(cfg.max_dim, cfg.num_samples, cfg.seed, cfg.workers)
    k_max = min(3, cfg.max_dim)
    pool.decompose([(cfg.max_dim, cfg.max_dim),
                    *((m, n) for m in range(1, k_max + 1) for n in range(1, m + 1))])
    for snr in cfg.snr:
        name = f"draw_properties_snr_{snr:g}"
        try:
            rep = network.check_capacity_properties(pool, snr)
        except np.linalg.LinAlgError as e:
            record(name, False, f"Cholesky of I + snr*Gram failed after its jitter retry: {e}")
            continue
        record(
            name,
            rep.passed,
            f"symmetry={rep.symmetry_error:.3e} monotonicity={rep.monotonicity_violation:.3e} "
            f"split={rep.split_violation:.3e} tol={rep.tolerance:g}",
        )

    mid_snr = cfg.snr[len(cfg.snr) // 2]
    table = mimo.TableCache(pool).lower(mid_snr)
    for K in range(1, k_max + 1):
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
    for f in _KEYS:
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        # the boolean key, true by default, is a switch that turns it off
        switch = f.metadata["convert"] is _as_bool
        p.add_argument(flag, dest=f.name, help=f.metadata["help"],
                       **({"action": "store_false", "default": None} if switch else {}))
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


@cache
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
