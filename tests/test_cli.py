"""CLI: config validation, output formats, determinism, round-trips."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap import (
    NetworkParams,
    QuantizationScheme,
    check_capacity_properties,
    cli,
    cut_value,
    gap_trend,
    mimo,
    min_cut_dp,
    optimize_quantization,
    rate_report,
    rates,
)
from relaycap.cli import (
    _DEFAULTS,
    _READS,
    RATE_HEADER,
    SUBCOMMANDS,
    ConfigError,
    ExperimentConfig,
    _fmt,
    build_parser,
    main,
    validate_config,
)


# ------------------------------------------------------------ config rules


def test_empty_config_is_all_defaults():
    cfg = validate_config({})
    assert cfg.subcommand == "rate"
    assert cfg.K == 2 and cfg.D == (4,)
    assert cfg.snr == (10.0,)
    assert cfg.num_samples == 100_000
    assert cfg.seed == 0
    assert cfg.log_base == "nats"
    assert cfg.format == "csv"


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="'snrr'"):
        validate_config({"snrr": 1.0})


def test_q_constraint_names_key_and_rule():
    with pytest.raises(ConfigError, match=r"'q'.*> 0"):
        validate_config({"q": -1.0})


def test_depth_zero_rejected():
    with pytest.raises(ConfigError, match="'D'"):
        validate_config({"D": 0})


def test_scalar_or_list_fields():
    cfg = validate_config({"D": [2, 4], "snr": 3})
    assert cfg.D == (2, 4) and cfg.snr == (3.0,)
    cfg = validate_config({"D": "2,4,8", "snr": "1,10"})
    assert cfg.D == (2, 4, 8) and cfg.snr == (1.0, 10.0)


def test_subcommand_mismatch_detected():
    with pytest.raises(ConfigError, match="subcommand"):
        validate_config({"subcommand": "sweep"}, subcommand="rate")


def test_verify_has_its_own_defaults():
    cfg = validate_config({}, subcommand="verify")
    assert cfg.snr == (0.1, 1.0, 10.0)
    assert cfg.num_samples == 10_000
    explicit = validate_config({"snr": 5, "num_samples": 50}, subcommand="verify")
    assert explicit.snr == (5.0,) and explicit.num_samples == 50


def test_policy_alias_accepted():
    cfg = validate_config({"q_policy": "d_minus_1"}, "sweep")
    assert cfg.q_policy == ("depth_matched",)


def test_line_depth_inferred_from_gains():
    cfg = validate_config({"gains": [1, 2, 3]}, subcommand="line")
    assert cfg.D == (3,)
    with pytest.raises(ConfigError, match="'gains'"):
        validate_config({"gains": [1, 2], "D": 3}, subcommand="line")


def test_bool_field_type_checked():
    with pytest.raises(ConfigError, match="destination_quantizes"):
        validate_config({"destination_quantizes": "yes"})


@pytest.mark.parametrize("key, value", [
    ("snr", True), ("snr", [2.0, False]), ("q", True), ("q", False), ("q_grid", [2.0, True]),
    ("penalty", False), ("gains", [1.0, True]),
])
def test_float_keys_refuse_booleans(key, value):
    # float() reads a bool as 1.0 or 0.0; the integer keys refuse bools too
    with pytest.raises(ConfigError, match=rf"'{key}': expected a number, got (True|False)$"):
        validate_config({key: value})


def test_one_draw_is_refused(capsys):
    # one draw has no spread: its standard error would read 0.0, as if exact
    for sub in ("capacity", "rate", "verify"):
        assert main([sub, "--samples", "1"]) == 2
        assert "config key 'num_samples': must be >= 2, got 1" in capsys.readouterr().err
    assert validate_config({"num_samples": 2}).num_samples == 2


def test_the_first_invalid_key_in_field_order_is_named():
    # keys are converted in field order, whatever order the data gives them
    for data, key in (({"destination_quantizes": "yes", "K": 0}, "K"),
                      ({"out": 5, "snr": "x"}, "snr"),
                      ({"destination_quantizes": "yes", "out": 5}, "out"),
                      ({"mode": "x", "num_samples": 1, "seed": -1}, "num_samples")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            validate_config(data)


#: Raw config values of every kind a JSON file or a caller may give, an
#: integer too large for a float among them.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.just(10**400), st.floats(),
    st.text(max_size=4),
    st.lists(st.sampled_from(["1", "2.5", "-1", "x", "", "nan", "inf", "fixed_1"]),
             max_size=3).map(",".join),
)
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    data=st.dictionaries(st.sampled_from([*_DEFAULTS, "subcommand", "snrr"]), _VALUES,
                         max_size=5),
    subcommand=st.sampled_from([*SUBCOMMANDS, None]),
)
def test_validate_config_returns_a_config_or_raises_config_error(data, subcommand):
    try:
        cfg = validate_config(data, subcommand)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


# ------------------------------------------------------------- CSV output


def run_cli(tmp_path, args, name="out.txt"):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    return rc, out


def test_rate_csv_layout(tmp_path):
    rc, out = run_cli(tmp_path, ["rate", "--K", "1", "--D", "2", "--samples", "2000"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=relaycap/rate/1"
    assert lines[1].startswith("# config=")
    assert lines[2] == RATE_HEADER
    assert len(lines) == 4
    row = lines[3].split(",")
    assert len(row) == RATE_HEADER.count(",") + 1
    assert row[0] == "1" and row[1] == "2"
    upper, lower, gap = float(row[4]), float(row[5]), float(row[6])
    assert gap == pytest.approx(upper - lower, abs=1e-12)
    assert float(row[7]) == pytest.approx(math.log(2) + 1, rel=1e-12)


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
def test_rate_without_destination_quantization(tmp_path, mode):
    # the unquantized destination's final hop reads its own full-snr table
    args = ["rate", "--K", "2", "--D", "5", "--snr", "1,10", "--samples", "3000",
            "--seed", "7", "--mode", mode, "--no-destination-quantization"]
    rc, out = run_cli(tmp_path, args)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[1][len("# config="):])["destination_quantizes"] is False
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 2
    for row, snr in zip(rows, (1.0, 10.0)):
        params = NetworkParams(2, 5, power=snr)
        rep = rate_report(
            params, QuantizationScheme.depth_matched(5, False), 3000, 7, mode=mode
        )
        assert [int(row[0]), int(row[1])] == [rep.relays_per_layer, rep.num_hops]
        assert [float(v) for v in row[2:]] == [
            rep.snr, rep.noise_ratio, rep.upper, rep.lower, rep.gap, rep.thm_bound,
            rep.prior_cf_bound, rep.alignment_bound, rep.std_error,
        ]
        if mode == "per_cut_exact":
            # the full-snr final hop lifts the penalized min cut; split_bound's
            # unpenalized min cut is the first hop either way
            quantized = rate_report(
                params, QuantizationScheme.depth_matched(5), 3000, 7, mode=mode
            )
            assert rep.raw_lower > quantized.raw_lower


def test_reruns_are_byte_identical_across_workers(tmp_path):
    args = ["sweep", "--K", "1", "--D", "2,4", "--samples", "2000",
            "--q-policy", "fixed_1,depth_matched"]
    _, a = run_cli(tmp_path, [*args, "--workers", "1"], "a.csv")
    _, b = run_cli(tmp_path, [*args, "--workers", "4"], "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_sweep_row_count_and_order(tmp_path):
    rc, out = run_cli(
        tmp_path,
        ["sweep", "--K", "1", "--D", "2,4,8,16", "--samples", "1000",
         "--q-policy", "fixed_1,depth_matched"],
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[3:]]
    assert len(rows) == 8
    # policy-major, depth-minor; depth column is field 1
    assert [r[1] for r in rows] == ["2", "4", "8", "16"] * 2
    # fixed_1 rows carry q = 1 throughout, depth-matched q = D - 1
    assert [float(r[3]) for r in rows[:4]] == [1.0] * 4
    assert [float(r[3]) for r in rows[4:]] == [1.0, 3.0, 7.0, 15.0]


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"K": 1, "snr": 1.0, "num_samples": 500}))
    rc, out = run_cli(
        tmp_path, ["capacity", "--config", str(cfg_file), "--snr", "5"]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    echoed = json.loads(lines[1][len("# config="):])
    assert echoed["snr"] == [5.0]          # flag beats file
    assert echoed["num_samples"] == 500    # file beats default
    assert echoed["K"] == 1


def test_config_echo_round_trips(tmp_path):
    args = ["rate", "--K", "1", "--D", "2", "--samples", "1500", "--seed", "7"]
    rc, out = run_cli(tmp_path, args)
    assert rc == 0
    echoed = json.loads(out.read_text().splitlines()[1][len("# config="):])
    cfg = validate_config(echoed)
    assert cfg.num_samples == 1500 and cfg.seed == 7
    # replaying the echoed config reproduces the exact same bytes
    replay = tmp_path / "replay.csv"
    cfg_file = tmp_path / "echo.json"
    echoed["out"] = str(replay)
    cfg_file.write_text(json.dumps(echoed))
    assert main(["--config", str(cfg_file)]) == 0
    assert out.read_bytes() == replay.read_bytes()


def test_json_format(tmp_path):
    rc, out = run_cli(
        tmp_path,
        ["capacity", "--m", "2", "--n", "2", "--snr", "1", "--samples", "2000",
         "--format", "json"],
        "out.json",
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "relaycap/capacity/1"
    assert doc["config"]["m"] == 2
    (res,) = doc["results"]
    assert res["dims"] == [2, 2] and res["num_samples"] == 2000
    assert 1.0 < res["mean"] < 2.5


def test_mincut_csv(tmp_path):
    rc, out = run_cli(
        tmp_path,
        ["mincut", "--K", "2", "--D", "3", "--samples", "2000", "--penalty", "0.5"],
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "K,D,snr,penalty,value,std_error,profile"
    row = lines[3].split(",")
    assert row[6] == "2|2"  # large penalty favors relays on the source side


def test_mincut_builds_one_pool_for_every_snr(tmp_path, monkeypatch):
    args = ["mincut", "--K", "2", "--D", "4", "--samples", "3000", "--penalty", "0.4"]
    builds = []
    build = mimo.SamplePool.build

    def counting(*a, **kw):
        builds.append(a)
        return build(*a, **kw)

    monkeypatch.setattr(mimo.SamplePool, "build", counting)
    _, joint = run_cli(tmp_path, [*args, "--snr", "1,10"], "joint.csv")
    assert len(builds) == 1
    # the rows equal those of one run per snr, each with its own pool
    singles = [
        _data_rows(run_cli(tmp_path, [*args, "--snr", s], f"{s}.csv")[1])
        for s in ("1", "10")
    ]
    assert _data_rows(joint) == b"".join(singles)


def test_line_csv_and_bits(tmp_path):
    rc, out = run_cli(
        tmp_path, ["line", "--gains", "1,1,1", "--q", "2", "--base", "bits"]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=relaycap/line/1"
    row = lines[3].split(",")
    cap_bits = float(row[3])
    assert cap_bits == pytest.approx(math.log1p(10.0) / math.log(2), rel=1e-12)


def test_bits_base_scales_rate_outputs(tmp_path):
    args = ["rate", "--K", "1", "--D", "2", "--samples", "1000"]
    _, nats_out = run_cli(tmp_path, [*args, "--base", "nats"], "nats.csv")
    _, bits_out = run_cli(tmp_path, [*args, "--base", "bits"], "bits.csv")
    nats_row = nats_out.read_text().splitlines()[3].split(",")
    bits_row = bits_out.read_text().splitlines()[3].split(",")
    # upper bound converts by 1/log 2; the prior linear bound stays put
    assert float(bits_row[4]) == pytest.approx(float(nats_row[4]) / math.log(2), rel=1e-12)
    assert float(bits_row[8]) == float(nats_row[8])
    # the library returns nats; the CLI converts every rate of every
    # subcommand's results, the clamped rate and the raw rate included
    rate_keys = {"upper", "lower", "gap", "std_error", "thm_bound"}
    for name, sub, keys in (
        ("rate", ["rate", "--K", "1", "--D", "2"], rate_keys | {"raw_lower"}),
        ("clamped", ["rate", "--K", "1", "--D", "16", "--snr", "0.2", "--q", "0.02"],
         rate_keys | {"raw_lower"}),
        ("sweep", ["sweep", "--K", "1", "--D", "2,4,8",
                   "--q-policy", "fixed_1,depth_matched,optimized"], rate_keys),
        ("capacity", ["capacity", "--K", "2", "--snr", "1,10"], {"mean", "std_error"}),
        ("mincut", ["mincut", "--K", "2", "--D", "4", "--penalty", "0.3"],
         {"value", "std_error"}),
        ("line", ["line", "--D", "3", "--snr", "1,10", "--q", "2"],
         {"capacity", "rate", "all_cuts_rate", "gap", "depth_bound"}),
    ):
        docs = {}
        for base in ("nats", "bits"):
            argv = [*sub, "--format", "json", "--base", base]
            if name != "line":
                argv += ["--samples", "2000"]
            _, out = run_cli(tmp_path, argv, f"{name}-{base}.json")
            docs[base] = json.loads(out.read_text())["results"]
        assert len(docs["bits"]) == len(docs["nats"]) > 0
        for nats, bits in zip(docs["nats"], docs["bits"]):
            assert keys <= set(bits)
            pairs = [(bits[key], nats[key], key) for key in keys]
            if name == "mincut":
                assert len(bits["per_block"]) == 4
                pairs += [(b["capacity"], n["capacity"], "per_block")
                          for b, n in zip(bits["per_block"], nats["per_block"])]
            for got, want, key in pairs:
                assert got == pytest.approx(
                    want / math.log(2), rel=1e-12, abs=1e-300
                ), (name, key)
            if keys >= rate_keys:
                assert bits["prior_cf_bound"] == nats["prior_cf_bound"]
                assert bits["alignment_bound"] == nats["alignment_bound"] == 7.0
            assert (nats["log_base"], bits["log_base"]) == ("nats", "bits")
        if name == "clamped":
            assert bits["was_clamped"] and bits["lower"] == 0.0 and bits["raw_lower"] < 0


def test_verify_passes_on_defaults(tmp_path, capsys):
    rc = main(["verify", "--max-dim", "2", "--samples", "2000", "--snr", "1,10"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[FAIL]" not in text
    assert "[PASS] draw_properties_snr_1" in text
    assert "checks passed" in text


def test_verify_decomposes_every_block_once(tmp_path, monkeypatch, no_full_table):
    # the pool decomposes, in one pass over the blocks, exactly the entries
    # the min-cut checks read on their lower-bound table: (max_dim, max_dim)
    # and every entry up to 3; the property checks read the raw draws, which
    # the pool regenerates once per snr
    calls, decomposed = [], []
    sample, decompose = mimo._draw_rows, mimo.SamplePool.decompose

    def counting(*args, **kwargs):
        calls.append(args[3])
        return sample(*args, **kwargs)

    def recording(self, entries):
        entries = set(entries)
        if entries - self.coefficients.keys():
            decomposed.append(entries - self.coefficients.keys())
        return decompose(self, entries)

    monkeypatch.setattr(mimo, "_draw_rows", counting)
    monkeypatch.setattr(mimo.SamplePool, "decompose", recording)
    small = {(m, n) for m in range(1, 4) for n in range(1, m + 1)}
    for max_dim, samples in ((3, 9000), (5, 4097)):
        calls.clear()
        decomposed.clear()
        with no_full_table():
            rc, _ = run_cli(tmp_path, ["verify", "--max-dim", str(max_dim), "--samples",
                                       str(samples), "--snr", "1,10"])
        assert rc == 0
        blocks = mimo._num_blocks(samples)
        assert sorted(calls) == sorted(list(range(blocks)) * (1 + 2))
        assert decomposed == [{(max_dim, max_dim)} | small]


def test_verify_reports_a_failed_cholesky_as_a_failed_check(capsys):
    # at snr 1e15 a draw's I + snr*Gram fails Cholesky even after the jitter
    # retry: that snr's property check fails, naming the failure, and every
    # other check still runs; verify exits 1, not with a traceback
    rc = main(["verify", "--max-dim", "2", "--samples", "2000", "--snr", "1,1e15"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[PASS] draw_properties_snr_1:")
    assert lines[1] == ("[FAIL] draw_properties_snr_1e+15: Cholesky of I + snr*Gram failed "
                        "after its jitter retry: Matrix is not positive definite")
    assert all(line.startswith("[PASS] ") for line in lines[2:-1]) and len(lines) == 21
    assert lines[-1] == "19/20 checks passed"


def test_verify_json_report(tmp_path):
    rc, out = run_cli(
        tmp_path,
        ["verify", "--max-dim", "2", "--samples", "1000", "--snr", "1",
         "--format", "json"],
        "verify.json",
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "relaycap/verify/1"
    assert all(c["passed"] for c in doc["results"])


def test_invalid_flag_value_exits_2(tmp_path, capsys):
    rc = main(["rate", "--q", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'q'" in err and "> 0" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"snrr": 2}))
    rc = main(["rate", "--config", str(cfg_file)])
    assert rc == 2
    assert "'snrr'" in capsys.readouterr().err


def test_choice_keys_accept_the_library_choice_sets(monkeypatch):
    # log_base and mode accept exactly the choices the library declares,
    # mimo._BASES and rates._MODES, and refuse any other naming the key
    for key, owner, attr in (("log_base", mimo, "_BASES"), ("mode", rates, "_MODES")):
        for v in getattr(owner, attr):
            assert getattr(validate_config({key: v}, "rate"), key) == v
        with pytest.raises(ConfigError, match=f"'{key}'"):
            validate_config({key: "other"}, "rate")
        monkeypatch.setattr(owner, attr, (*getattr(owner, attr), "other"))
        assert getattr(validate_config({key: "other"}, "rate"), key) == "other"


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--K", "1.5"], "K"),
        (["--snr", "ten"], "snr"),
        (["--snr", "nan"], "snr"),
        (["--penalty", "-1"], "penalty"),
        (["--format", "xml"], "format"),
        ({"q_grid": []}, "q_grid"),
        ({"gains": []}, "gains"),
        ({"out": 5}, "out"),
        (["--q-policy", "none"], "q_policy"),
        ({"q_policy": "none"}, "q_policy"),
        (["sweep", "--D", ","], "D"),
        (["--snr", ","], "snr"),
        ({"snr": []}, "snr"),
        ({"q_policy": []}, "q_policy"),
        (["verify", "--snr", ","], "snr"),
        ({"snr": 10**400}, "snr"),
    ],
    ids=["fractional-K", "word-snr", "nan-snr", "negative-penalty", "unknown-format",
         "empty-q-grid", "empty-gains", "numeric-out", "unknown-policy-flag",
         "unknown-policy-file", "sweep-empty-D", "empty-snr-flag", "empty-snr-file",
         "empty-policy-file", "verify-empty-snr", "float-overflowing-snr-file"],
)
def test_invalid_value_exits_2_naming_the_key(tmp_path, capsys, flags, key):
    if isinstance(flags, dict):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(flags))
        flags = ["--config", str(cfg_file)]
    argv = flags if flags[0] in SUBCOMMANDS else ["rate", *flags]
    assert main(argv) == 2
    assert f"config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "contents", [None, "{", "[1, 2]"], ids=["unreadable", "invalid-json", "not-an-object"]
)
def test_bad_config_file_exits_2(tmp_path, capsys, contents):
    cfg_file = tmp_path / "cfg.json"
    if contents is not None:
        cfg_file.write_text(contents)
    assert main(["rate", "--config", str(cfg_file)]) == 2
    assert "config key 'config'" in capsys.readouterr().err


def test_multi_depth_rejected_for_single_network_commands(capsys):
    rc = main(["rate", "--D", "2,4"])
    assert rc == 2
    assert "single depth" in capsys.readouterr().err


def test_console_script_installed():
    exe = shutil.which("relaycap")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "capacity", "--m", "1", "--n", "1", "--snr", "1", "--samples", "1000"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# schema=relaycap/capacity/1")


def _data_rows(path):
    return path.read_bytes().split(b"\n", 3)[3]


SWEEP_ARGS = ["sweep", "--K", "2", "--D", "2,3,6", "--snr", "3,10", "--samples", "3000"]


def test_multi_policy_sweep_equals_single_policy_sweeps(tmp_path):
    policies = ["fixed_1", "depth_matched", "optimized"]
    _, joint = run_cli(tmp_path, [*SWEEP_ARGS, "--q-policy", ",".join(policies)], "all.csv")
    singles = {
        p: _data_rows(run_cli(tmp_path, [*SWEEP_ARGS, "--q-policy", p], f"{p}.csv")[1])
        for p in policies
    }
    # rows run snr-major, then policy, then depth (two snrs, three depths)
    rows = {p: singles[p].splitlines(keepends=True) for p in policies}
    expected = b"".join(
        line for i in range(2) for p in policies for line in rows[p][3 * i:3 * i + 3]
    )
    assert _data_rows(joint) == expected


def test_multi_policy_sweep_is_byte_identical_across_workers(tmp_path):
    args = [*SWEEP_ARGS, "--q-policy", "fixed_1,depth_matched,optimized"]
    _, a = run_cli(tmp_path, [*args, "--workers", "1"], "a.csv")
    _, b = run_cli(tmp_path, [*args, "--workers", "2"], "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_multi_snr_sweep_equals_single_snr_sweeps_in_fewer_passes(tmp_path, monkeypatch):
    # each gap_trend call reads its full-snr C(K, K) column once and hands it
    # to every row, so the rows of one snr do not push the other's column
    # out of the pool: at most 38 log1p passes, where reading it per row
    # made 46
    args = ["sweep", "--K", "2", "--D", "2,4,8,16,32", "--samples", "20000", "--seed", "0",
            "--q-policy", "fixed_1,depth_matched,optimized"]
    singles = b"".join(
        _data_rows(run_cli(tmp_path, [*args, "--snr", s], f"snr-{s}.csv")[1]) for s in ("3", "10")
    )
    passes, logdet_column = [], mimo._logdet_column

    def counting(coefficients, snr):
        passes.append(snr)
        return logdet_column(coefficients, snr)

    monkeypatch.setattr(mimo, "_logdet_column", counting)
    _, joint = run_cli(tmp_path, [*args, "--snr", "3,10"], "joint.csv")
    assert _data_rows(joint) == singles
    assert len(passes) <= 38


def test_sweep_q_grid_reaches_the_optimizer(tmp_path):
    grid = [0.5, 2.0, 30.0]
    args = ["sweep", "--K", "2", "--D", "8", "--samples", "2000", "--seed", "4",
            "--q-policy", "optimized"]
    _, out = run_cli(tmp_path, [*args, "--q-grid", "0.5,2,30"], "grid.csv")
    _, default = run_cli(tmp_path, args, "default.csv")
    q = float(_data_rows(out).split(b",")[3])
    expected = optimize_quantization(
        NetworkParams(2, 8, power=10.0), q_grid=grid, num_samples=2000, seed=4
    ).noise_ratio
    assert q == expected
    assert q != float(_data_rows(default).split(b",")[3])


@pytest.mark.parametrize(
    "extra, key",
    [
        (["--q", "3"], "q"),
        (["--q-grid", "0.5,2"], "q_grid"),
        (["--q-grid", "0.5,2", "--q-policy", "fixed_1,depth_matched"], "q_grid"),
    ],
)
def test_sweep_refuses_q_settings_it_would_ignore(tmp_path, capsys, extra, key):
    rc, out = run_cli(tmp_path, ["sweep", "--D", "2,4", "--samples", "500", *extra])
    assert rc == 2 and not out.exists()
    assert f"config key '{key}'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=f"'{key}'"):
        validate_config({"q": 3.0} if key == "q" else {"q_grid": [0.5, 2.0]}, "sweep")


@pytest.mark.parametrize(
    "argv, data, key",
    [
        (["sweep", "--D", "2,4", "--no-destination-quantization"],
         {"destination_quantizes": False}, "destination_quantizes"),
        (["mincut", "--D", "3", "--q", "3"], {"q": 3.0}, "q"),
        (["capacity", "--q", "3"], {"q": 3.0}, "q"),
        (["capacity", "--penalty", "2"], {"penalty": 2.0}, "penalty"),
        (["capacity", "--mode", "split_bound"], {"mode": "split_bound"}, "mode"),
        (["verify", "--K", "3"], {"K": 3}, "K"),
        (["verify", "--base", "bits"], {"log_base": "bits"}, "log_base"),
        (["verify", "--mode", "split_bound"], {"mode": "split_bound"}, "mode"),
        (["rate", "--penalty", "3"], {"penalty": 3.0}, "penalty"),
        (["rate", "--q-policy", "optimized"], {"q_policy": ["optimized"]}, "q_policy"),
        (["line", "--seed", "5"], {"seed": 5}, "seed"),
        (["line", "--samples", "10"], {"num_samples": 10}, "num_samples"),
        (["capacity", "--K", "3", "--m", "2", "--n", "2"], {"K": 3, "m": 2, "n": 2}, "K"),
    ],
    ids=["sweep-destination_quantizes", "mincut-q", "capacity-q", "capacity-penalty",
         "capacity-mode", "verify-K", "verify-log_base", "verify-mode", "rate-penalty",
         "rate-q_policy", "line-seed", "line-num_samples", "capacity-K-with-m-n"],
)
def test_subcommands_refuse_values_they_would_ignore(tmp_path, capsys, argv, data, key):
    # line reads no sample count; elsewhere a small one keeps a missed refusal cheap
    samples = [] if argv[0] == "line" else ["--samples", "500"]
    rc, out = run_cli(tmp_path, [*argv, *samples])
    assert rc == 2 and not out.exists()
    assert f"config key '{key}'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=f"'{key}'"):
        validate_config(data, argv[0])


def test_mincut_echoed_config_reproduces_the_run(tmp_path):
    # the echo carries "q": null, which mincut accepts; only a value is refused
    args = ["mincut", "--D", "3", "--samples", "500", "--penalty", "0.2"]
    rc, out = run_cli(tmp_path, args, "first.csv")
    assert rc == 0
    echoed = out.read_text().splitlines()[1].removeprefix("# config=")
    assert json.loads(echoed)["q"] is None
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(echoed)
    rc, again = run_cli(tmp_path, ["mincut", "--config", str(cfg_path)], "again.csv")
    assert rc == 0 and again.read_bytes() == out.read_bytes()


def test_sweep_accepts_q_grid_with_optimized_and_its_echoed_config(tmp_path):
    args = ["sweep", "--D", "2,4", "--samples", "500", "--q-grid", "0.5,2",
            "--q-policy", "depth_matched,optimized"]
    rc, out = run_cli(tmp_path, args, "grid.csv")
    assert rc == 0
    # the echoed config carries "q": null; fed back, it reproduces the run
    echoed = out.read_text().splitlines()[1].removeprefix("# config=")
    assert json.loads(echoed)["q"] is None
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(echoed)
    rc, again = run_cli(tmp_path, ["sweep", "--config", str(cfg_path)], "again.csv")
    assert rc == 0 and again.read_bytes() == out.read_bytes()


def test_refused_value_is_named_in_field_order():
    with pytest.raises(ConfigError, match="'q'"):
        validate_config({"penalty": 2.0, "q": 3.0, "mode": "split_bound"}, "capacity")


@pytest.mark.parametrize(
    "argv",
    [["capacity", "--samples", "500"], ["mincut", "--samples", "500"],
     ["rate", "--samples", "500"], ["sweep", "--samples", "500"],
     ["verify", "--samples", "500", "--format", "json"], ["line"]],
    ids=lambda argv: argv[0],
)
def test_default_run_echo_replays_byte_for_byte(tmp_path, argv):
    rc, out = run_cli(tmp_path, argv, "first.txt")
    assert rc == 0
    text = out.read_text()
    if "--format" in argv:
        echoed = json.loads(text)["config"]
    else:
        echoed = json.loads(text.splitlines()[1].removeprefix("# config="))
    assert echoed["subcommand"] == argv[0]
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(echoed))
    rc, again = run_cli(tmp_path, ["--config", str(cfg_path)], "again.txt")
    assert rc == 0 and again.read_bytes() == out.read_bytes()


def test_readme_flag_table_matches_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| flag | read by |\n|------|---------|\n", 1)[1].split("\n\n", 1)[0]
    dest = {
        opt: action.dest
        for action in build_parser()._actions
        for opt in action.option_strings
    }
    readers = {}
    for row in table.splitlines():
        flags, read_by = row.strip("|").split("|")
        subs = (set(SUBCOMMANDS) if "every subcommand" in read_by
                else set(re.findall(r"`(\w+)`", read_by)))
        for flag in re.findall(r"`(--[\w-]+)", flags):
            if flag != "--config":
                readers[dest[flag]] = subs
    expected = {}
    for sub, keys in _READS.items():
        for key in keys:
            expected.setdefault(key, set()).add(sub)
    assert readers == expected


def test_common_flags_are_declared_once_and_parse_alike(monkeypatch):
    import argparse

    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    parser = build_parser()
    monkeypatch.undo()
    flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    # option flags only: argparse adds -h, and the subcommand is a positional
    declared = [args for args in calls if args[0].startswith("--")]
    assert len(declared) == len(flags) == len(_DEFAULTS) + 1  # every key, and --config
    argv = []
    for a in flags:
        argv += [a.option_strings[0]] + ([] if a.nargs == 0 else ["7"])
    expected = {a.dest: (a.const if a.nargs == 0 else "7") for a in flags}
    assert vars(parser.parse_args(argv)) == {**expected, "subcommand": None}
    for sub in SUBCOMMANDS:
        assert vars(parser.parse_args([sub, *argv])) == {**expected, "subcommand": sub}
        assert vars(parser.parse_args([*argv, sub])) == {**expected, "subcommand": sub}


@pytest.mark.parametrize("argv", [
    ["rate", "--K", "3", "--D", "2", "--samples", "500"],
    ["capacity", "--samples", "300", "--snr", "1,10"],
    ["sweep", "--D", "2,3", "--samples", "500", "--q-policy", "fixed_1,optimized"],
    ["mincut", "--K", "3", "--D", "3", "--penalty", "0.4", "--samples", "500", "--format", "json"],
])
def test_flags_mean_the_same_before_and_after_the_subcommand(tmp_path, argv):
    # a flag before the subcommand is read, not dropped for its default:
    # the run, its echoed config included, is the same wherever flags stand
    sub, flags = argv[0], argv[1:]
    outputs = []
    for i, order in enumerate(
        ([sub, *flags], [*flags, sub], [*flags[:2], sub, *flags[2:]])
    ):
        rc, out = run_cli(tmp_path, order, f"out{i}.txt")
        assert rc == 0, order
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[2] == outputs[0]


def test_main_reuses_one_parser_and_reads_each_call_alone(tmp_path):
    # main parses every call of a process with one parser; no flag of one
    # call carries into the next, which writes what a fresh process prints
    first = ["--K", "3", "--samples", "2000", "rate", "--D", "4"]
    second = ["rate", "--D", "4", "--samples", "2000"]
    outs = [run_cli(tmp_path, argv, f"call{i}.csv")[1].read_bytes()
            for i, argv in enumerate((first, second))]
    assert cli._parser() is cli._parser()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = [subprocess.run([sys.executable, "-m", "relaycap.cli", *argv], env=env,
                            capture_output=True, check=True, timeout=120).stdout
             for argv in (first, second)]
    assert outs == fresh


# ---------------------------------------------------------- output records

#: The only result keys not spelled as their record's field.
RENAMED = {"relays_per_layer": "K", "num_hops": "D", "noise_ratio": "q"}


RECORDS = {
    "RateReport": lambda: rate_report(NetworkParams(2, 3, power=10.0), num_samples=500),
    "TrendPoint": lambda: gap_trend(2, [3], num_samples=500)[0],
    "PropertyReport": lambda: check_capacity_properties(mimo.SamplePool(2, 500, 0), 10.0),
    "CapacityEstimate": lambda: mimo.estimate_ergodic_capacity(2, 1, 10.0, 500, seed=0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keys_are_its_field_names(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    names = [RENAMED.get(f.name, f.name) for f in dataclasses.fields(record)]
    d = record.as_dict()
    assert list(d) == names
    for f in dataclasses.fields(record):
        v = getattr(record, f.name)
        assert d[RENAMED.get(f.name, f.name)] == (list(v) if isinstance(v, tuple) else v)


def test_rate_results_carry_every_header_column(tmp_path):
    columns = RATE_HEADER.split(",")
    report = rate_report(NetworkParams(2, 3, power=10.0), num_samples=500)
    assert set(columns) <= set(report.as_dict())
    rc, out = run_cli(
        tmp_path, ["sweep", "--D", "2,3", "--samples", "500", "--format", "json"], "s.json"
    )
    assert rc == 0
    for result in json.loads(out.read_text())["results"]:
        assert set(columns) <= set(result)


def test_config_echo_keys_are_the_compared_fields():
    fields = dataclasses.fields(ExperimentConfig)
    compared = [f.name for f in fields if f.compare]
    assert list(validate_config({}, "sweep").as_dict()) == compared
    assert {f.name for f in fields if not f.compare} == {"workers", "out"}


def test_capacity_table_repr_prints_no_array():
    table = mimo.CapacityTable.from_pool(mimo.SamplePool(2, 500, 0), 10.0)
    table.entry_draws(2, 2)  # fill the column memo too
    text = repr(table)
    assert "array" not in text and "[" not in text
    assert text.startswith("CapacityTable(snr=10.0, pool=SamplePool(max_dim=2, num_samples=500,")
    # tables stay equal and hashed by identity only
    twin = mimo.CapacityTable.from_pool(table.pool, 10.0)
    assert table == table and table != twin and len({table, twin}) == 2


@pytest.mark.parametrize("D", ["1", "4"])
def test_mincut_csv_and_json_rows_agree(tmp_path, D):
    args = ["mincut", "--D", D, "--snr", "1,10", "--samples", "800"]
    csv_rows, json_rows = [], []
    for penalty in ("0", "0.4"):
        _, csv_out = run_cli(tmp_path, [*args, "--penalty", penalty], "m.csv")
        csv_rows += [r.split(",") for r in _data_rows(csv_out).decode().splitlines()]
        _, json_out = run_cli(
            tmp_path, [*args, "--penalty", penalty, "--format", "json"], "m.json"
        )
        json_rows += json.loads(json_out.read_text())["results"]
    assert len(csv_rows) == len(json_rows) == 4
    for row, result in zip(csv_rows, json_rows):
        value, std_error, profile = row[4:]
        assert float(value) == result["value"]  # bitwise: both print repr
        assert float(std_error) == result["std_error"]
        assert profile == "|".join(str(c) for c in result["profile"])
        assert len(result["profile"]) == int(D) - 1


@pytest.mark.parametrize(
    "penalty, decomposed", [("0.4", {(3, 3)}), ("0", {(3, 1), (3, 2), (3, 3)})]
)
def test_mincut_certifies_on_lower_bound_tables(
    tmp_path, monkeypatch, no_full_table, penalty, decomposed
):
    # mincut builds no full table: its rows are the DP and cut_value on the
    # built table, and the pool decomposes only the entries the argmin
    # crosses, (K, K) alone when the penalty puts every relay on the source
    # side
    args = ["mincut", "--K", "3", "--D", "5", "--samples", "5000", "--penalty", penalty]
    params = NetworkParams(3, 5, power=10.0)
    table = mimo.CapacityTable.from_pool(mimo.SamplePool.build(3, 5_000, seed=0), 10.0)
    _, profile = min_cut_dp(params, table, node_penalty=float(penalty))
    want = cut_value(profile, params, table, node_penalty=float(penalty)).as_dict()
    entries = set()
    decompose = mimo.SamplePool.decompose

    def recording(self, dims):
        dims = set(dims)
        entries.update(dims - self.coefficients.keys())
        return decompose(self, dims)

    monkeypatch.setattr(mimo.SamplePool, "decompose", recording)
    with no_full_table():
        _, csv_out = run_cli(tmp_path, args, "m.csv")
        _, json_out = run_cli(tmp_path, [*args, "--format", "json"], "m.json")
    assert entries == decomposed
    (result,) = json.loads(json_out.read_text())["results"]
    assert {k: result[k] for k in want} == want
    row = ",".join(_fmt(v) for v in (3, 5, 10.0, float(penalty), want["value"],
                                      want["std_error"], want["profile"]))
    assert _data_rows(csv_out).decode() == row + "\n"
