"""Quantization schemes, achievable-rate bounds, optimizer, trend."""

import itertools
import json
import math
import random

import numpy as np
import pytest

import oracles
from relaycap import (
    CapacityTable,
    NetworkParams,
    QuantizationScheme,
    SamplePool,
    TableCache,
    alignment_gap_bound,
    default_q_grid,
    degraded_snr,
    depth_gap_bound,
    gap_trend,
    mimo,
    nnc_lower_bound,
    optimize_quantization,
    penalty_bound,
    prior_cf_gap_bound,
    rate_report,
    rate_scale,
    rates,
)
from relaycap.mimo import _stream_stats
from relaycap.network import (
    CutProfile,
    brute_force_min_cut,
    cut_profile_draws,
    cut_value,
    min_cut_dp,
)
from relaycap.rates import (
    _MODES,
    _gap_std_error,
    _optimize_on_cache,
    _penalized_min_cut,
    _raw_rate_bound,
    _scheme_bounds,
    resolve_policy,
)

LN2 = math.log(2.0)


def _gap_se(params, table, full, profile, last=None):
    """Standard error of C(K, K) at full snr minus the cut's blocks, over
    the draws both tables share; the penalty, a constant of the cut, is
    left out."""
    K = params.relays_per_layer
    cut = cut_profile_draws(profile, params, table, node_penalty=0.0, last=last)
    return _stream_stats(full.entry_draws(K, K) - cut)[1]


# ------------------------------------------------------------ scheme basics


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True])
def test_noise_ratio_must_be_positive_finite(bad):
    with pytest.raises(ValueError, match="noise_ratio"):
        QuantizationScheme(bad)


def test_depth_matched_ratio():
    assert QuantizationScheme.depth_matched(8).noise_ratio == 7.0
    assert QuantizationScheme.depth_matched(2).noise_ratio == 1.0
    # a single hop has no relays to match; fall back to q = 1
    assert QuantizationScheme.depth_matched(1).noise_ratio == 1.0


def test_degraded_snr_value():
    params = NetworkParams(2, 4, power=10.0)
    assert degraded_snr(params, QuantizationScheme(3.0)) == 2.5
    assert degraded_snr(params, QuantizationScheme(1.0)) == 5.0


def test_penalty_per_relay():
    assert QuantizationScheme(1.0).penalty_per_relay == pytest.approx(LN2, rel=1e-15)
    assert QuantizationScheme(3.0).penalty_per_relay == pytest.approx(
        math.log(4.0 / 3.0), rel=1e-14
    )


def test_penalty_bound_values():
    params = NetworkParams(2, 5, power=10.0)
    # 2 relays/layer * 4 layers * log(5/4)
    assert penalty_bound(params, QuantizationScheme(4.0)) == pytest.approx(
        8 * math.log(1.25), rel=1e-14
    )
    assert penalty_bound(params, QuantizationScheme(4.0)) < 2.0
    single = NetworkParams(2, 1, power=10.0)
    assert penalty_bound(single, QuantizationScheme(1.0)) == 0.0


def test_depth_matched_penalty_never_exceeds_relay_count():
    for K in range(1, 9):
        for D in range(2, 129):
            params = NetworkParams(K, D, power=1.0)
            scheme = QuantizationScheme.depth_matched(D)
            assert penalty_bound(params, scheme) <= K


# ------------------------------------------------------------ gap constants


def test_depth_gap_bound_values():
    assert depth_gap_bound(2, 4) == pytest.approx(2 * math.log(4) + 2, rel=1e-15)
    # the bound is in nats; bits divide the whole nats expression by log 2
    bits = depth_gap_bound(2, 4) * rate_scale("bits")
    assert bits == pytest.approx((2 * math.log(4) + 2) / LN2, rel=1e-15)
    assert bits == pytest.approx(2 * math.log2(4) + 2 / LN2, rel=1e-15)
    assert depth_gap_bound(1, 1) == 1.0  # log 1 vanishes, K log e remains


def test_prior_cf_bound_is_base_agnostic():
    assert prior_cf_gap_bound(2, 4) == pytest.approx(10.4, rel=1e-15)
    assert prior_cf_gap_bound(1, 10) == pytest.approx(13.0, rel=1e-15)


def test_alignment_bound_values():
    assert alignment_gap_bound(1) == 7.0
    assert alignment_gap_bound(1, "bits") == 7.0
    assert alignment_gap_bound(2) == pytest.approx(56 + 10 * LN2, rel=1e-15)
    # 5 K log2 K = 10 exactly at K = 2
    assert alignment_gap_bound(2, "bits") == pytest.approx(66.0, rel=1e-15)


# ------------------------------------------------------- nnc lower bound


@pytest.fixture(scope="module")
def pool2():
    return SamplePool.build(2, 8_000, seed=3)


@pytest.fixture(scope="module")
def cache2(pool2):
    return TableCache(pool2)


def test_modes_agree_when_all_hops_degraded(cache2):
    # the all-relays profile minimizes the cut and maximizes the penalty at
    # once, so charging per cut or charging the worst case gives one number
    params = NetworkParams(2, 4, power=10.0)
    for q in (0.5, 1.0, 3.0, 7.0):
        scheme = QuantizationScheme(q)
        table = cache2.at(degraded_snr(params, scheme))
        exact = nnc_lower_bound(params, scheme, table, mode="per_cut_exact")
        split = nnc_lower_bound(params, scheme, table, mode="split_bound")
        assert split.raw_value <= exact.raw_value + 1e-12
        assert split.raw_value == pytest.approx(exact.raw_value, abs=1e-9)


def test_split_mode_never_beats_exact_with_clean_final_hop(cache2):
    params = NetworkParams(2, 4, power=10.0)
    for q in (0.5, 1.0, 3.0):
        scheme = QuantizationScheme(q, destination_quantizes=False)
        table = cache2.at(degraded_snr(params, scheme))
        full = cache2.at(params.snr)
        exact = nnc_lower_bound(
            params, scheme, table, mode="per_cut_exact", table_full=full
        )
        split = nnc_lower_bound(
            params, scheme, table, mode="split_bound", table_full=full
        )
        assert split.raw_value <= exact.raw_value + 1e-12


def test_unquantized_destination_requires_full_table(cache2):
    params = NetworkParams(2, 3, power=10.0)
    scheme = QuantizationScheme(1.0, destination_quantizes=False)
    with pytest.raises(ValueError, match="table_full"):
        nnc_lower_bound(params, scheme, cache2.at(5.0))


def test_bad_mode_rejected(cache2):
    params = NetworkParams(2, 3, power=10.0)
    with pytest.raises(ValueError, match="mode"):
        nnc_lower_bound(params, QuantizationScheme(1.0), cache2.at(5.0), mode="best")


def test_negative_rate_clamps_to_zero_and_logs(cache2, caplog):
    # deep network, fine quantization: penalties overwhelm the min cut
    params = NetworkParams(2, 12, power=0.5)
    scheme = QuantizationScheme(0.05)
    table = cache2.at(degraded_snr(params, scheme))
    with caplog.at_level("INFO", logger="relaycap.rates"):
        bound = nnc_lower_bound(params, scheme, table)
    assert bound.raw_value < 0
    assert bound.value == 0.0
    assert bound.was_clamped
    assert any("clamped" in r.message for r in caplog.records)


def test_depth_matched_gap_bound_holds_on_shared_draws(cache2):
    # with shared draws the gap bound K log D + K holds deterministically
    for D in (2, 4, 8):
        params = NetworkParams(2, D, power=10.0)
        scheme = QuantizationScheme.depth_matched(D)
        table = cache2.at(degraded_snr(params, scheme))
        bound = nnc_lower_bound(params, scheme, table, mode="split_bound")
        upper = cache2.at(params.snr).mean(2, 2)
        assert upper - bound.value <= depth_gap_bound(2, D) + 1e-9
        assert bound.value <= upper + 1e-12


# ------------------------------------------------------------- rate report


def test_rate_report_consistency():
    params = NetworkParams(2, 4, power=10.0)
    rep = rate_report(params, num_samples=6_000, seed=1)
    assert rep.noise_ratio == 3.0  # depth matched by default
    assert rep.gap == pytest.approx(rep.upper - rep.lower, abs=1e-12)
    assert rep.lower >= 0.0
    assert rep.thm_bound == pytest.approx(depth_gap_bound(2, 4), rel=1e-15)
    assert rep.prior_cf_bound == pytest.approx(10.4, rel=1e-15)
    assert rep.std_error > 0
    assert rep.gap <= rep.thm_bound  # depth-matched gap within the guarantee
    d = rep.as_dict()
    assert d["K"] == 2 and d["D"] == 4 and d["q"] == 3.0


def test_rate_report_records_hold_python_floats():
    # a numpy real input is stored as a Python float, so the record serializes
    rep = rate_report(NetworkParams(2, 4, power=np.float32(10)), num_samples=500)
    point = gap_trend(2, [3], snr=np.float32(10), num_samples=500)[0]
    est = mimo.estimate_ergodic_capacity(2, 2, np.float32(10), 500, seed=0)
    for record in (rep, point, est):
        d = json.loads(json.dumps(record.as_dict()))
        assert type(record.snr) is float and d["snr"] == 10.0
    scheme = QuantizationScheme(np.float64(3))
    assert type(scheme.noise_ratio) is float and scheme.noise_ratio == 3.0


def test_rate_report_bits_scaling():
    # rate_report returns nats; the rate row written for a bits run divides
    # every rate by log 2 and leaves the linear and constant bounds put
    from relaycap.cli import ExperimentConfig, _rate_row

    rep = rate_report(NetworkParams(1, 2, power=10.0), num_samples=4_000, seed=2)
    nats = _rate_row(rep, ExperimentConfig("rate", K=1, D=(2,), log_base="nats"))
    bits = _rate_row(rep, ExperimentConfig("rate", K=1, D=(2,), log_base="bits"))
    for field in ("upper", "lower", "gap", "std_error", "raw_lower", "thm_bound"):
        assert nats[field] == getattr(rep, field)
        assert bits[field] == pytest.approx(nats[field] / LN2, rel=1e-12, abs=1e-300)
    assert bits["prior_cf_bound"] == nats["prior_cf_bound"]
    assert bits["alignment_bound"] == 7.0


def test_rate_report_clamped_network():
    params = NetworkParams(1, 16, power=0.2)
    rep = rate_report(params, QuantizationScheme(0.02), num_samples=2_000, seed=0)
    assert rep.was_clamped and rep.lower == 0.0 and rep.raw_lower < 0
    assert rep.gap == pytest.approx(rep.upper, abs=1e-12)


def _rate_report_via_nnc(params, scheme, num_samples, seed, mode):
    """rate_report's fields computed through nnc_lower_bound, which also
    evaluates the minimizing cut's own standard error."""
    K = params.relays_per_layer
    cache = TableCache(SamplePool.build(K, num_samples, seed))
    full = cache.at(params.snr)
    deg = cache.at(degraded_snr(params, scheme))
    table_full = None if scheme.destination_quantizes else full
    bound = nnc_lower_bound(params, scheme, deg, mode=mode, table_full=table_full)
    if bound.was_clamped:
        se = full.std_error(K, K)
    else:
        se = _gap_se(params, deg, full, bound.profile, last=table_full)
    return bound.value, bound.raw_value, bound.was_clamped, se


@pytest.mark.parametrize(
    "params, scheme, mode, clamped",
    [
        (NetworkParams(2, 4, power=10.0), QuantizationScheme(3.0), "per_cut_exact",
         False),
        (NetworkParams(2, 5, power=10.0), QuantizationScheme(2.0, False),
         "split_bound", False),
        (NetworkParams(2, 12, power=0.5), QuantizationScheme(0.05), "per_cut_exact",
         True),
    ],
)
def test_rate_report_equals_nnc_path_bitwise(params, scheme, mode, clamped, caplog):
    with caplog.at_level("INFO", logger="relaycap.rates"):
        rep = rate_report(params, scheme, num_samples=3_000, seed=7, mode=mode)
    lower, raw, was_clamped, se = _rate_report_via_nnc(params, scheme, 3_000, 7, mode)
    assert rep.was_clamped is was_clamped is clamped
    assert (rep.lower, rep.raw_lower, rep.std_error) == (lower, raw, se)
    logged = [r for r in caplog.records if r.getMessage().startswith(
        "achievable rate clamped to zero")]
    assert len(logged) == int(clamped)


# --------------------------------------------------------------- optimizer


def test_default_grid_contains_anchor_ratios():
    for D in (1, 2, 4, 8, 16):
        grid = default_q_grid(D)
        assert 1.0 in grid
        assert float(max(D - 1, 1)) in grid
        assert all(q > 0 for q in grid)
        assert grid == sorted(grid)


def test_optimizer_beats_anchor_ratios_exactly():
    for K in (1, 2):
        for D in (2, 4, 8):
            params = NetworkParams(K, D, power=10.0)
            res = optimize_quantization(params, num_samples=3_000, seed=0)
            pool = SamplePool.build(K, 3_000, seed=0)
            cache = TableCache(pool)
            for q in (1.0, float(max(D - 1, 1))):
                ref = nnc_lower_bound(
                    params,
                    QuantizationScheme(q),
                    cache.at(params.snr / (1.0 + q)),
                ).value
                assert res.rate >= ref
            evaluated = dict(oracles.reference_scan(
                params, TableCache(pool), default_q_grid(D), "per_cut_exact")[2])
            assert evaluated[1.0] <= res.rate


def test_optimizer_tie_prefers_smaller_ratio():
    # zero power makes every candidate clamp to rate 0: a pure tie
    params = NetworkParams(2, 4, power=0.0)
    res = optimize_quantization(params, q_grid=[2.0, 1.0, 3.0], num_samples=64, seed=0)
    assert res.rate == 0.0
    assert res.noise_ratio == 1.0


def test_optimizer_validates_grid():
    params = NetworkParams(2, 4, power=10.0)
    with pytest.raises(ValueError, match="positive"):
        optimize_quantization(params, q_grid=[1.0, -2.0], num_samples=64, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        optimize_quantization(params, q_grid=[], num_samples=64, seed=0)


def test_optimizer_regression_fixed_seed():
    # deterministic output for a pinned configuration; the maximizer sits on
    # a broad plateau far coarser than q = 1, whose rate clamps at zero here
    params = NetworkParams(2, 8, power=10.0)
    res = optimize_quantization(params, num_samples=5_000, seed=0)
    evaluated = dict(res.evaluations)
    assert evaluated[1.0] == 0.0
    assert res.noise_ratio > 2.0
    assert 0.2 < res.rate < 0.8
    again = optimize_quantization(params, num_samples=5_000, seed=0)
    assert again.noise_ratio == res.noise_ratio
    assert again.rate == res.rate


# ------------------------------------------------------------------- trend


def test_policy_resolution():
    assert resolve_policy("fixed_1") == "fixed_1"
    assert resolve_policy("D_MINUS_1") == "depth_matched"
    assert resolve_policy("optimized") == "optimized"
    with pytest.raises(ValueError, match="policy"):
        resolve_policy("adaptive")


def test_gap_trend_fixed_ratio_grows_linearly():
    # at fixed q the penalized min cut loses exactly K log(1 + 1/q) per
    # added layer of relays, a straight line in depth
    pts = gap_trend(2, [2, 3, 4, 5], snr=10.0, q_policy="fixed_1", num_samples=2_000, seed=4)
    diffs = [b.gap - a.gap for a, b in zip(pts, pts[1:])]
    for d in diffs:
        assert d == pytest.approx(2 * LN2, abs=1e-9)


def test_gap_trend_depth_matched_stays_under_log_bound():
    pts = gap_trend(2, [1, 2, 4, 8, 16], snr=10.0, q_policy="depth_matched",
                    num_samples=2_000, seed=4)
    for p in pts:
        assert p.gap <= depth_gap_bound(2, p.num_hops) + 1e-9
        assert p.gap == pytest.approx(p.upper - p.lower, abs=1e-12)
        assert p.std_error >= 0


def test_gap_trend_point_fields_and_single_hop():
    pts = gap_trend(1, [1], snr=10.0, q_policy="fixed_1", num_samples=1_000, seed=0)
    (p,) = pts
    assert p.num_hops == 1 and p.noise_ratio == 1.0
    d = p.as_dict()
    assert d["D"] == 1 and d["policy"] == "fixed_1"


def test_gap_trend_optimized_no_worse_than_depth_matched():
    depths = [4, 8]
    opt = gap_trend(2, depths, snr=10.0, q_policy="optimized", num_samples=2_000, seed=4)
    dm = gap_trend(2, depths, snr=10.0, q_policy="depth_matched", num_samples=2_000, seed=4)
    for a, b in zip(opt, dm):
        assert a.lower >= b.lower - 1e-12


def test_gap_trend_validates_input(monkeypatch):
    with pytest.raises(ValueError, match="depths"):
        gap_trend(2, [0, 2], num_samples=100, seed=0)
    with pytest.raises(ValueError, match="policy"):
        gap_trend(2, [2], q_policy="none", num_samples=100, seed=0)
    with pytest.raises(ValueError, match="mode"):
        gap_trend(2, [2], mode="loose", num_samples=100, seed=0)
    # a grid only the optimized policy reads is refused, not ignored
    for policy in ("fixed_1", "depth_matched", "d_minus_1"):
        with pytest.raises(ValueError, match="q_grid"):
            gap_trend(2, [4], q_policy=policy, q_grid=[3.0], num_samples=100)
    # a non-integral depth or K is refused before any pool is built
    def no_build(*args, **kwargs):
        raise AssertionError("pool built before the depths were checked")

    monkeypatch.setattr(SamplePool, "build", no_build)
    for depths in ([2.5], [2, 3.0], [True]):
        with pytest.raises(ValueError, match="depths"):
            gap_trend(2, depths, num_samples=100)
    for K in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="relays_per_layer"):
            gap_trend(K, [2], num_samples=100)


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
def test_optimizer_rates_equal_nnc_lower_bound_bitwise(mode):
    # both scans take their min cuts on lower-bound tables; every score
    # either records, the unbounded reference scan's included, is the rate
    # on a full table
    for K in (1, 2, 3):
        params = NetworkParams(K, 6, power=10.0)
        res = optimize_quantization(params, num_samples=3_000, seed=5, mode=mode)
        pool = SamplePool.build(K, 3_000, seed=5)
        reference = oracles.reference_scan(
            params, TableCache(pool), default_q_grid(6), mode)[2]
        cache = TableCache(pool)
        assert len(reference) > len(default_q_grid(6))  # refinement ran
        for q, rate in [*res.evaluations, *reference]:
            scheme = QuantizationScheme(q)
            table = cache.at(degraded_snr(params, scheme))
            want = nnc_lower_bound(params, scheme, table, mode=mode).value
            assert rate.hex() == want.hex(), (K, q)


def test_gap_trend_on_shared_cache_matches_own_pool():
    cache = TableCache(SamplePool.build(2, 2_000, seed=4))
    for policy in ("fixed_1", "depth_matched", "optimized"):
        own = gap_trend(2, [2, 5], q_policy=policy, num_samples=2_000, seed=4)
        shared = gap_trend(2, [2, 5], q_policy=policy, num_samples=2_000, seed=4,
                           cache=cache)
        assert own == shared


@pytest.mark.parametrize(
    "kw", [{"relays_per_layer": 1}, {"num_samples": 1_000}, {"seed": 5}]
)
def test_gap_trend_rejects_mismatched_cache(kw):
    cache = TableCache(SamplePool.build(2, 2_000, seed=4))
    args = {"relays_per_layer": 2, "num_samples": 2_000, "seed": 4, **kw}
    with pytest.raises(ValueError, match="cache pool"):
        gap_trend(depths=[2], cache=cache, **args)


@pytest.mark.parametrize("snr", [math.nan, math.inf])
def test_gap_trend_rejects_non_finite_snr(snr):
    with pytest.raises(ValueError, match="snr"):
        gap_trend(2, [3], snr=snr, num_samples=100, seed=0)


def test_quantizing_destination_reads_one_table(cache2):
    params = NetworkParams(2, 5, power=10.0)
    scheme = QuantizationScheme(4.0)
    table = cache2.at(degraded_snr(params, scheme))
    full = cache2.at(params.snr)
    # last=None and last=table give bitwise equal results
    for mode in ("per_cut_exact", "split_bound"):
        one = _penalized_min_cut(params, scheme, table, mode)
        same_last = _penalized_min_cut(params, scheme, table, mode, last=table)
        assert one == same_last
        assert _gap_se(params, table, full, one[1]) == _gap_se(
            params, table, full, one[1], last=table
        )


def test_gap_trend_optimizes_over_given_grid():
    grid = [0.5, 2.0, 30.0]
    (p,) = gap_trend(2, [8], q_policy="optimized", num_samples=2_000, seed=4,
                     q_grid=grid)
    res = optimize_quantization(NetworkParams(2, 8, power=10.0), q_grid=grid,
                                num_samples=2_000, seed=4)
    assert p.noise_ratio == res.noise_ratio
    with pytest.raises(ValueError, match="positive"):
        gap_trend(2, [8], q_policy="optimized", num_samples=100, seed=0,
                  q_grid=[1.0, 0.0])


# ------------------------------------------------- certified min cuts

CERT_DEPTHS = [1, 2, 3, 8, 64, 474]


def _certified_min_cut(params, scheme, cache, mode):
    """``_penalized_min_cut`` of ``scheme`` on the cache's lower-bound
    tables: the body hops read the table at snr / (1 + q), hop D the one at
    full snr when the destination does not quantize."""
    table = cache.lower(degraded_snr(params, scheme))
    last = None if scheme.destination_quantizes else cache.lower(params.snr)
    return _penalized_min_cut(params, scheme, table, mode, last=last)


def _exact(table):
    """Entries (m, n), m >= n >= 1, of a lower-bound table that are exact
    (a finite standard error)."""
    K = table.max_dim
    return {(m, n) for m in range(1, K + 1) for n in range(1, m + 1)
            if not math.isnan(table.std_errors[m, n])}


def _assert_exact_entries_match_built_tables(cache, mode):
    """Every exact entry of the cache's lower-bound tables is bitwise a
    built table's, and every other entry lies below it.  Under per_cut_exact
    no min cut of these tests falls back: (K, K) is the only entry computed
    at each snr."""
    K = cache.pool.max_dim
    for s, table in cache._lower.items():
        fresh = CapacityTable.from_pool(cache.pool, s)
        for m, n in _exact(table):
            for a, b in ((m, n), (n, m)):
                assert table.means[a, b] == fresh.means[a, b], (s, a, b)
                assert table.std_errors[a, b] == fresh.std_errors[a, b], (s, a, b)
        assert np.all(table.means <= fresh.means), s
        if mode == "per_cut_exact":
            assert _exact(table) == {(K, K)}, s


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_certified_min_cut_equals_the_full_table_dp_bitwise(K, no_full_table):
    pool = SamplePool.build(K, 1_500, seed=60 + K)
    full = TableCache(pool)
    for snr in (0.5, 10.0):
        caches = {mode: TableCache(pool) for mode in ("per_cut_exact", "split_bound")}
        for D in CERT_DEPTHS:
            params = NetworkParams(K, D, power=snr)
            for q in (1e-3, 0.25, 1.0, float(max(D - 1, 1)), 1e6):
                for quantizes in (True, False):
                    scheme = QuantizationScheme(q, quantizes)
                    last = None if quantizes else full.at(snr)
                    table = full.at(degraded_snr(params, scheme))
                    for mode, cache in caches.items():
                        with no_full_table():
                            raw, profile = _certified_min_cut(
                                params, scheme, cache, mode)
                        want = _penalized_min_cut(params, scheme, table, mode, last=last)
                        assert (raw.hex(), profile) == (want[0].hex(), want[1]), (
                            snr, D, q, quantizes, mode)
        for mode, cache in caches.items():
            _assert_exact_entries_match_built_tables(cache, mode)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_every_reader_of_a_lower_bound_table_reads_the_full_table(K):
    # each reader gets a fresh lower-bound table, whose inexact entries
    # hold floors, and must return bitwise (repr) what it returns on the
    # built table; split_bound's min cut minimizes without penalty, so its
    # first argmin can cross floors
    pool = SamplePool.build(K, 2_000, seed=3)

    def lower(snr):
        return TableCache(pool).lower(snr)

    for snr in (0.5, 10.0):
        full = CapacityTable.from_pool(pool, snr)
        for m, n in itertools.product(range(K + 1), repeat=2):
            for read in (CapacityTable.mean, CapacityTable.std_error, CapacityTable.estimate):
                assert repr(read(lower(snr), m, n)) == repr(read(full, m, n)), (snr, m, n)
        for D in (1, 2, 3):
            params = NetworkParams(K, D, power=snr)
            for pen in (0.0, 0.4):
                # DP == brute force, on either table
                want = repr(brute_force_min_cut(params, full, pen))
                for find, t in itertools.product(
                    (min_cut_dp, brute_force_min_cut), (lower(snr), full)
                ):
                    assert repr(find(params, t, pen)) == want, (snr, D, pen, find)
                for counts in itertools.product(range(K + 1), repeat=D - 1):
                    profile = CutProfile(counts)
                    assert repr(cut_value(profile, params, lower(snr), pen)) == repr(
                        cut_value(profile, params, full, pen)), (snr, D, pen, counts)
            for q in (0.25, 1.0, 4.0):
                for quantizes in (True, False):
                    scheme = QuantizationScheme(q, quantizes)
                    s = degraded_snr(params, scheme)
                    for mode in ("per_cut_exact", "split_bound"):
                        got = nnc_lower_bound(
                            params, scheme, lower(s), mode, table_full=lower(snr))
                        want = nnc_lower_bound(
                            params, scheme, CapacityTable.from_pool(pool, s), mode,
                            table_full=full)
                        assert repr(got) == repr(want), (snr, D, q, quantizes, mode)


def test_certified_min_cut_computes_the_entries_its_first_argmin_crosses():
    # split_bound minimizes without penalty.  On the lower-bound table the
    # cut through both (1, 2) and (2, 1) reads 2 * (2/4) C(2, 2) - 2 margins,
    # below C(2, 2), so the first argmin crosses inexact entries; once
    # (2, 1) is computed (its mirror with it), the tie at C(2, 2) goes to the
    # all-destination-side cut, as on the full table
    pool = SamplePool.build(2, 2_000, seed=3)
    params = NetworkParams(2, 2, power=10.0)
    scheme = QuantizationScheme(1.0)
    cache = TableCache(pool)
    raw, profile = _certified_min_cut(params, scheme, cache, "split_bound")
    want = _penalized_min_cut(
        params, scheme, CapacityTable.from_pool(pool, 5.0), "split_bound")
    assert (raw.hex(), profile) == (want[0].hex(), want[1])
    assert profile.counts == (0,)
    assert cache._lower.keys() == {5.0}
    assert _exact(cache.lower(5.0)) == {(2, 2), (2, 1)}
    # per_cut_exact's penalty makes the all-source-side cut win at once
    cache = TableCache(pool)
    _, profile = _certified_min_cut(params, scheme, cache, "per_cut_exact")
    assert profile.counts == (2,) and _exact(cache.lower(5.0)) == {(2, 2)}
    # at snr 1e-12 every floor is about -1e-9, below the exact entries, so
    # with an unquantized destination the first argmin crosses inexact
    # entries of both tables, and both get computed
    params = NetworkParams(2, 2, power=1e-12)
    scheme = QuantizationScheme(1.0, destination_quantizes=False)
    cache = TableCache(pool)
    raw, profile = _certified_min_cut(params, scheme, cache, "split_bound")
    want = _penalized_min_cut(
        params, scheme, CapacityTable.from_pool(pool, 5e-13), "split_bound",
        last=CapacityTable.from_pool(pool, 1e-12))
    assert (raw.hex(), profile) == (want[0].hex(), want[1])
    assert {s: _exact(t) for s, t in cache._lower.items()} == {
        5e-13: {(2, 2), (2, 1)}, 1e-12: {(2, 2), (2, 1)}}


def test_certification_keeps_the_columns_the_gap_error_reads(monkeypatch):
    # K = 3, split_bound, an unquantized destination: the certification
    # computes (3, 1) and (3, 2) at the degraded snr 2.0 from columns the
    # pool does not keep, so the (3, 3) column there stays for the gap
    # error; four log1p passes, each (entry, snr) once, where pushing those
    # columns into the pool evicted it and made five
    passes, logdet_column = [], mimo._logdet_column

    def counting(coefficients, snr):
        passes.append((coefficients.shape[0], snr))
        return logdet_column(coefficients, snr)

    monkeypatch.setattr(mimo, "_logdet_column", counting)
    params = NetworkParams(3, 5, power=10.0)
    scheme = QuantizationScheme.depth_matched(5, destination_quantizes=False)
    rate_report(params, scheme, 5_000, 0, mode="split_bound")
    # (smaller dimension, snr): (3, 1), (3, 2) and (3, 3) at 2.0, (3, 3) at 10
    assert sorted(passes) == [(1, 2.0), (2, 2.0), (3, 2.0), (3, 10.0)]


# ------------------------------------------------- pruned optimizer scan

PRUNE_DEPTHS = [1, 2, 3, 8, 32, 64]
PRUNE_SNRS = [0.5, 10.0, 1000.0]
CUSTOM_GRID = [0.3, 1.0, 2.5, 9.0, 40.0]


@pytest.mark.parametrize("grid", [None, CUSTOM_GRID], ids=["default", "custom"])
@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_pruned_optimizer_picks_the_unpruned_q(K, mode, grid):
    N, seed = 1_000, 3
    pool = SamplePool.build(K, N, seed)
    cache = TableCache(pool)
    for snr in PRUNE_SNRS:
        points = gap_trend(K, PRUNE_DEPTHS, snr, "optimized", N, seed, mode=mode,
                           q_grid=grid, cache=cache)
        for p in points:
            params = NetworkParams(K, p.num_hops, power=snr)
            oracle = optimize_quantization(params, q_grid=grid, num_samples=N,
                                           seed=seed, mode=mode)
            assert p.noise_ratio == oracle.noise_ratio, (snr, p.num_hops)
            want = oracles.reference_scan(
                params, TableCache(pool), grid or default_q_grid(p.num_hops), mode)
            assert [oracle.noise_ratio.hex(), oracle.rate.hex()] == [
                want[0].hex(), want[1].hex()], (snr, p.num_hops)


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_pruned_scan_equals_unpruned_scan_bitwise(K, mode):
    N, seed = 1_000, 8
    pool = SamplePool.build(K, N, seed)
    pruned_cache = TableCache(pool)
    skipped = 0
    for snr in PRUNE_SNRS:
        pruned_cache.at(snr)  # gap_trend's full-snr table
        for D in PRUNE_DEPTHS:
            params = NetworkParams(K, D, power=snr)
            for grid in (default_q_grid(D), CUSTOM_GRID):
                full = oracles.reference_scan(params, TableCache(pool), grid, mode)
                pruned = _optimize_on_cache(params, pruned_cache, grid, mode)
                assert pruned[:2] == full[:2], (snr, D, grid)
                # every score the pruned scan records is the exact score
                assert set(pruned[2]) <= set(full[2])
                skipped += len(full[2]) - len(pruned[2])
    assert skipped > 0


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_pruned_scan_on_an_empty_cache_equals_unpruned_scan_bitwise(K, mode):
    # with nothing cached, the pruned scan builds the full-snr table itself,
    # so every candidate still has a table to be bounded on
    N, seed = 1_000, 6
    pool = SamplePool.build(K, N, seed)
    for snr in PRUNE_SNRS:
        for D in PRUNE_DEPTHS:
            params = NetworkParams(K, D, power=snr)
            for grid in (default_q_grid(D), CUSTOM_GRID):
                full = oracles.reference_scan(params, TableCache(pool), grid, mode)
                pruned = _optimize_on_cache(params, TableCache(pool), grid, mode)
                assert [v.hex() for v in pruned[:2]] == [v.hex() for v in full[:2]], (
                    snr, D, grid)
                assert set(pruned[2]) <= set(full[2])


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_cached_bound_is_at_least_the_raw_rate(K, mode):
    # the scan's one scalar bound against the raw rate on the full table,
    # both on a sweep-filled cache and with only C(K, K) at full snr known;
    # the bound holds up to rounding, and the scan keeps the same margin
    N, seed = 1_000, 5
    pool = SamplePool.build(K, N, seed)
    cache = TableCache(pool)
    exact = TableCache(pool)
    for snr in PRUNE_SNRS:
        gap_trend(K, PRUNE_DEPTHS, snr, "optimized", N, seed, mode=mode, cache=cache)
        only_full = TableCache(pool)
        only_full.lower(snr)
        for D in PRUNE_DEPTHS:
            params = NetworkParams(K, D, power=snr)
            for q in sorted({*default_q_grid(D), *CUSTOM_GRID}):
                scheme = QuantizationScheme(q)
                raw = _penalized_min_cut(
                    params, scheme, exact.at(degraded_snr(params, scheme)), mode)[0]
                for bounded in (cache, only_full):
                    bound = _raw_rate_bound(params, scheme, bounded)
                    assert bound >= raw - 1e-9 * max(1.0, abs(raw)), (snr, D, q)
        assert len(only_full._lower) == 1  # the bound computes nothing


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
def test_candidates_bounded_below_zero_score_zero_without_a_build(mode, no_full_table):
    # deep and fine enough that every candidate clamps: with only C(K, K)
    # at full snr known, each bound is negative, so the scan computes
    # nothing more and still picks the smallest ratio, as the reference scan
    # does
    pool = SamplePool.build(2, 2_000, seed=9)
    params = NetworkParams(2, 64, power=10.0)
    grid = [0.25, 1.0, 4.0]
    cache = TableCache(pool)
    with no_full_table():
        cache.lower(params.snr)
        best_q, best, evals = _optimize_on_cache(params, cache, grid, mode)
    full = oracles.reference_scan(params, TableCache(pool), grid, mode)
    assert (best_q, best) == full[:2] == (grid[0], 0.0)
    assert cache._lower.keys() == {params.snr}
    assert set(grid) <= set(dict(evals)) and set(dict(evals).values()) == {0.0}


@pytest.mark.parametrize("mode", ["per_cut_exact", "split_bound"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_pruned_scan_on_a_sweep_filled_cache_equals_unpruned_scan_bitwise(
    K, mode, no_full_table
):
    # sweep fills the cache with the fixed_1 and depth_matched (K, K) means
    # before the optimized policy scans, so the best-first scan starts from
    # chord bounds between known means below and above most candidates
    N, seed = 1_000, 13
    pool = SamplePool.build(K, N, seed)
    depths = [2, 4, 8, 16, 32]
    skipped = 0
    for snr in PRUNE_SNRS:
        cache = TableCache(pool)
        with no_full_table():
            for policy in ("fixed_1", "depth_matched"):
                gap_trend(K, depths, snr, policy, N, seed, mode=mode, cache=cache)
        for D in depths:
            params = NetworkParams(K, D, power=snr)
            for grid in (default_q_grid(D), CUSTOM_GRID):
                full = oracles.reference_scan(params, TableCache(pool), grid, mode)
                with no_full_table():
                    pruned = _optimize_on_cache(params, cache, grid, mode)
                assert [v.hex() for v in pruned[:2]] == [v.hex() for v in full[:2]], (
                    snr, D, grid)
                assert set(pruned[2]) <= set(full[2])
                skipped += len(full[2]) - len(pruned[2])
                if (K, snr, D, grid) == (2, 10.0, 32, default_q_grid(32)):
                    assert full[:2] == (grid[0], 0.0)  # every candidate clamps
        _assert_exact_entries_match_built_tables(cache, mode)
    assert skipped > 0  # some candidates were decided on the bound alone


def test_unpruned_scan_evaluates_the_grid_in_ascending_order():
    # the oracle's reference scan, which the bounded scan is checked against
    params = NetworkParams(2, 6, power=10.0)
    grid = default_q_grid(6)
    evaluations = oracles.reference_scan(
        params, TableCache(SamplePool.build(2, 2_000, seed=1)), grid, "per_cut_exact")[2]
    assert [q for q, _ in evaluations[: len(grid)]] == grid
    assert len(evaluations) > len(grid)  # then the refinement


@pytest.fixture(scope="module")
def headline_cache(no_full_table):
    """The sweep-optimized shape at pool seed 0, all three policies run,
    with ``TableCache.at`` and ``CapacityTable.from_pool`` refusing."""
    cache = TableCache(SamplePool.build(2, 50_000, seed=0))
    with no_full_table():
        for policy in ("fixed_1", "depth_matched", "optimized"):
            gap_trend(2, [2, 4, 8, 16, 32], 10.0, policy, 50_000, 0, cache=cache)
    return cache


def test_headline_sweep_builds_at_most_17_tables(headline_cache):
    # 17 full tables before lower-bound certification, 77 without bounds; now
    # none: the sweep ran with full tables refused, and no table it left
    # has all three entries (1, 1), (2, 1) and (2, 2) exact
    assert headline_cache._lower
    assert all(len(_exact(t)) < 3 for t in headline_cache._lower.values())


def test_chord_on_a_sweep_filled_cache_equals_the_dict_formula_bitwise(headline_cache):
    # at every default-grid candidate's degraded snr the chord gives the
    # floats of the formula over a dict of every known mean, and computes
    # nothing
    known = set(headline_cache._lower)
    assert len(known) >= 5
    for D in range(2, 33):
        params = NetworkParams(2, D, power=10.0)
        for q in default_q_grid(D):
            s = degraded_snr(params, QuantizationScheme(q))
            want = oracles.chord_over_known_means(headline_cache, s)
            assert headline_cache.chord(s).hex() == want.hex(), (D, q)
    assert headline_cache._lower.keys() == known


@pytest.mark.parametrize("K", [2, 4])
def test_certified_sweep_decomposes_only_the_full_entry(K):
    # per_cut_exact min cuts read C(K, K) alone, so the pool never
    # decomposes another entry
    pool = SamplePool.build(K, 5_000, seed=K)
    cache = TableCache(pool)
    for policy in ("fixed_1", "depth_matched", "optimized"):
        gap_trend(K, [2, 4, 8, 16, 32], 10.0, policy, 5_000, K, cache=cache)
    assert pool.coefficients.keys() == {(K, K)}


def test_headline_sweep_skips_builds_on_exact_entries(headline_cache):
    # every snr the scan touched was decided on a lower-bound table whose
    # only computed entry is C(K, K), at 24 snr values (measured); 59
    # entries were computed before lower-bound certification
    lower = headline_cache._lower
    assert 5 <= len(lower) <= 24
    assert all(_exact(t) == {(2, 2)} for t in lower.values())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_optimized_raw_rate_is_at_least_each_fixed_policy_in_deep_networks():
    # on one shared cache the optimized row should never report a lower raw
    # rate than the fixed policies; where every candidate clamps to 0 the
    # scan keeps q_grid[0] (D = 32: -95.2 against -1.13 at depth_matched)
    cache = TableCache(SamplePool.build(2, 50_000, seed=0))
    depths = [32, 64, 128]
    rows = {
        policy: gap_trend(2, depths, 10.0, policy, 50_000, 0, cache=cache)
        for policy in ("fixed_1", "depth_matched", "optimized")
    }
    for i, D in enumerate(depths):
        fixed = max(rows["fixed_1"][i].lower, rows["depth_matched"][i].lower)
        assert rows["optimized"][i].lower >= fixed, (D, rows["optimized"][i].lower, fixed)


def test_sweep_shape_builds_at_most_45_tables(monkeypatch):
    # the sweep-optimized workload: K 2, depths 2..32, snr 10, three policies
    # on one cache; a scan without bounds built 77 tables here.  The sweep makes
    # every table through TableCache.lower and none through at
    full_snrs = []
    at = TableCache.at

    def counting(self, snr):
        full_snrs.append(snr)
        return at(self, snr)

    monkeypatch.setattr(TableCache, "at", counting)
    cache = TableCache(SamplePool.build(2, 5_000, seed=12345))
    for policy in ("fixed_1", "depth_matched", "optimized"):
        gap_trend(2, [2, 4, 8, 16, 32], 10.0, policy, 5_000, 12345, cache=cache)
    assert 0 < len(cache._lower) <= 45
    assert full_snrs == []


# ---------------------------------------------------------- gap error


def test_gap_error_under_a_large_penalty_shift_keeps_its_digits(monkeypatch):
    # `relaycap sweep --K 2 --D 474 --snr 1000 --q-policy optimized
    # --q-grid 0.01,0.02 --samples 50000`: the cut's penalty, about 4366
    # nats over a spread of about 4e-4, must not reach the error, which
    # squares taken about zero would miss by 1.4%; a shifted column's
    # digits are test_table.py::test_std_error_is_shift_invariant
    reduced = []
    stream_stats = rates._stream_stats

    def recording(values):
        stats = stream_stats(values)
        reduced.append((values.copy(), stats[1]))
        return stats

    monkeypatch.setattr(rates, "_stream_stats", recording)
    (row,) = gap_trend(2, [474], 1000.0, "optimized", 50_000, 0, q_grid=[0.01, 0.02])
    column = next(values for values, se in reduced if se == row.std_error)
    want = oracles.centred_std_error(column)
    assert math.isclose(row.std_error, want, rel_tol=1e-6), (row.std_error, want)


@pytest.mark.parametrize("policy", ["fixed_1", "depth_matched", "optimized"])
def test_constant_gap_has_an_exact_zero_error(policy):
    # at snr 0 every entry column is zero, so C(K, K) minus the cut's blocks
    # is the zero column and its error exactly 0.0: the penalty, a constant
    # of the cut, must not enter the column, where it leaves rounding noise
    for mode in _MODES:
        for p in gap_trend(2, [2, 3, 8], 0.0, policy, 2_000, 0, mode=mode):
            assert p.std_error == 0.0, (mode, p)


@pytest.mark.parametrize("N", [1, 4095, 4096, 4097, 50_000])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_streamed_gap_error_equals_the_column_difference_bitwise(K, N):
    # _gap_std_error reduces C(K, K) minus the cut's blocks, formed from
    # the pool's columns; its floats are those of the N-length difference
    # of entry_draws and the unpenalized cut_profile_draws, for the argmin
    # of either mode and for other profiles, with and without a final-hop
    # table, at every penalty
    snr = 10.0
    cache = TableCache(SamplePool.build(K, N, seed=70 + K))
    full = cache.lower(snr)
    full_column = cache.pool.column(snr, K, K)
    rng = random.Random(K * N)
    # at K = 4 and 50 000 draws, other profiles cross few entries (memory)
    counts = (K - 1, K) if (K, N) == (4, 50_000) else range(K + 1)
    for D, pen, dq in itertools.product((1, 2, 5, 64), (0.0, 1e-3, 0.4, 3.0), (True, False)):
        params = NetworkParams(K, D, power=snr)
        scheme = QuantizationScheme(1.0 / math.expm1(pen) if pen else 3.0, dq)
        table = cache.lower(degraded_snr(params, scheme))
        last = None if dq else full
        cuts = [(K,) * (D - 1), (0,) * (D - 1),
                tuple(rng.choice(counts) for _ in range(D - 1))]
        for mode in _MODES:
            if pen or mode == "split_bound":
                raw, profile = _penalized_min_cut(params, scheme, table, mode, last=last)
                cuts.append(profile.counts)
                got_raw, se = _scheme_bounds(params, scheme, cache, mode, full_column)
                assert (got_raw, se.hex()) == (raw, _gap_se(
                    params, table, full, profile, last).hex()), (D, pen, dq, mode)
        for c in cuts:
            profile = CutProfile(c)
            expected = _gap_se(params, table, full, profile, last)
            got = _gap_std_error(full_column, params, profile, table, last)
            assert got.hex() == expected.hex(), (D, pen, dq, c)


def test_headline_sweep_makes_one_entry_pass_per_snr(monkeypatch):
    # the sweep-optimized shape (K 2, depths 2..32, snr 10, 50 000 draws,
    # three policies on one cache) at the pool seed of the benchmark's
    # inputs for workload seed 0: each snr's C(K, K) is one log1p pass,
    # whose column the pool keeps for the gap errors; 24 passes in all,
    # where recomputing the columns for the gap errors made 35.  Each of the
    # 15 rows reduces one standard error, its gap's, and no table reduces
    # one: a table entry costs its pass and one sum
    seed, N = 1440633922, 50_000
    passes, held, errors = [], [], []
    pool = SamplePool.build(2, N, seed=seed)
    logdet_column, column = mimo._logdet_column, SamplePool.column
    stream_error = mimo._stream_error

    def counting(coefficients, snr):
        passes.append((next(e for e, c in pool.coefficients.items() if c is coefficients), snr))
        return logdet_column(coefficients, snr)

    def counting_errors(values, mean):
        errors.append(len(values))
        return stream_error(values, mean)

    def holding(self, snr, m, n):
        values = column(self, snr, m, n)
        held.append(len(self._columns))
        return values

    monkeypatch.setattr(mimo, "_logdet_column", counting)
    monkeypatch.setattr(SamplePool, "column", holding)
    monkeypatch.setattr(mimo, "_stream_error", counting_errors)
    cache = TableCache(pool)
    rows = []
    for policy in ("fixed_1", "depth_matched", "optimized"):
        rows += gap_trend(2, [2, 4, 8, 16, 32], 10.0, policy, N, seed, cache=cache)
    assert len(passes) == len(set(passes)) == len(cache._lower) == 24
    assert errors == [N] * len(rows) == [N] * 15
    assert all(
        np.argwhere(t._exact & np.isnan(t._errors)).tolist() == [[2, 2]]
        for t in cache._lower.values()
    )
    assert max(held) == len(pool._columns) == 3
    for table in cache._lower.values():
        assert not any(
            isinstance(v, np.ndarray) and v.shape == (N,) for v in vars(table).values()
        )
