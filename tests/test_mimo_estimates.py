"""Ergodic capacity estimates against quadrature oracles."""

import math

import numpy as np
import pytest

import oracles
from oracles import siso_capacity_oracle
from relaycap import CapacityEstimate, estimate_ergodic_capacity, mimo


def test_quadrature_oracle_frozen_values():
    assert siso_capacity_oracle(1.0) == pytest.approx(oracles.SISO_SNR1, abs=1e-9)
    assert siso_capacity_oracle(0.1) == pytest.approx(0.09156333393978805, abs=1e-9)
    assert siso_capacity_oracle(0.0) == 0.0
    with pytest.raises(ValueError):
        siso_capacity_oracle(-1.0)


def test_quadrature_matches_closed_form():
    for snr in (0.25, 1.0, 10.0, 100.0):
        assert siso_capacity_oracle(snr) == pytest.approx(
            oracles.siso_closed_form(snr), abs=1e-9
        )


def test_wishart_oracle_cross_checks():
    # the Laguerre expansion agrees with independent closed forms
    assert oracles.wishart_capacity(1, 1, 1.0) == pytest.approx(
        oracles.SISO_SNR1, abs=1e-10
    )
    assert oracles.wishart_capacity(2, 2, 10.0) == pytest.approx(
        oracles.two_by_two_closed_form(10.0), abs=1e-10
    )
    # E[log(1 + x)] for a 1x2 channel at snr 1 integrates to exactly 1
    assert oracles.wishart_capacity(1, 2, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert oracles.wishart_capacity(2, 1, 1.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "m,n,snr,expected",
    [
        (1, 1, 1.0, 0.5963473623231939),
        (2, 2, 10.0, 4.949431514863988),
        (2, 3, 10.0, 6.120276046479466),
        (3, 3, 1.0, 3.323518376843157),
        (3, 1, 10.0, 3.2732515029611466),
    ],
)
def test_estimates_match_wishart_oracle(m, n, snr, expected):
    est = estimate_ergodic_capacity(m, n, snr, 50_000, seed=2)
    assert est.std_error < 0.02
    assert abs(est.mean - expected) < 5 * est.std_error


def test_estimate_metadata():
    est = estimate_ergodic_capacity(2, 3, 1.5, 1000, seed=0)
    assert isinstance(est, CapacityEstimate)
    assert est.dims == (2, 3)
    assert est.num_samples == 1000
    assert est.snr == 1.5
    d = est.as_dict()
    assert d["dims"] == [2, 3] and d["num_samples"] == 1000


def test_degenerate_cases_exact_zero():
    assert estimate_ergodic_capacity(0, 3, 1.0, 100, seed=0).mean == 0.0
    assert estimate_ergodic_capacity(3, 0, 1.0, 100, seed=0).mean == 0.0
    assert estimate_ergodic_capacity(2, 2, 0.0, 100, seed=0).mean == 0.0


@pytest.mark.parametrize("bad", [0, -5])
def test_rejects_bad_sample_counts(bad):
    with pytest.raises(ValueError, match="num_samples"):
        estimate_ergodic_capacity(1, 1, 1.0, bad, seed=0)


def test_rejects_negative_snr():
    # non-finite snr values are refused too, not turned into nan or inf rates
    for snr in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="snr"):
            estimate_ergodic_capacity(1, 1, snr, 100, seed=0)


def test_worker_count_never_changes_the_answer():
    kw = dict(m=2, n=2, snr=10.0, num_samples=9_000, seed=3)
    e1 = estimate_ergodic_capacity(kw["m"], kw["n"], kw["snr"], kw["num_samples"], kw["seed"], workers=1)
    e4 = estimate_ergodic_capacity(kw["m"], kw["n"], kw["snr"], kw["num_samples"], kw["seed"], workers=4)
    assert e1.mean == e4.mean
    assert e1.std_error == e4.std_error


def test_doubling_draws_stays_consistent():
    # the first half of the draws is shared, so the two estimates must agree
    # statistically; 6 combined standard errors over 20 seeds is conservative
    for seed in range(20):
        a = estimate_ergodic_capacity(2, 2, 10.0, 5_000, seed=seed)
        b = estimate_ergodic_capacity(2, 2, 10.0, 10_000, seed=seed)
        tol = 6 * math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < tol


def test_std_error_shrinks_like_sqrt_n():
    a = estimate_ergodic_capacity(2, 2, 10.0, 4_000, seed=1)
    b = estimate_ergodic_capacity(2, 2, 10.0, 16_000, seed=1)
    assert 0.4 < b.std_error / a.std_error < 0.6


def test_mean_nonnegative_and_monotone_in_snr():
    lo = estimate_ergodic_capacity(3, 3, 1.0, 4_000, seed=7)
    hi = estimate_ergodic_capacity(3, 3, 10.0, 4_000, seed=7)
    assert 0.0 <= lo.mean < hi.mean


@pytest.mark.parametrize(
    "args, name",
    [
        ((2.0, 2, 100, 0, 1), "m"),
        ((2, True, 100, 0, 1), "n"),
        ((-1, 2, 100, 0, 1), "m"),
        ((2, 2, 100.0, 0, 1), "num_samples"),
        ((2, 2, True, 0, 1), "num_samples"),
        ((2, 2, 100, 1.5, 1), "seed"),
        ((2, 2, 100, -3, 1), "seed"),
        ((2, 2, 100, 0, 0), "workers"),
        ((2, 2, 100, 0, -3), "workers"),
        ((2, 2, 100, 0, 2.5), "workers"),
        ((2, 2, 100, 0, True), "workers"),
    ],
)
def test_estimator_refuses_bad_integers_before_any_work(monkeypatch, args, name):
    def no_sampling(*a, **kw):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(mimo, "sample_channel_block", no_sampling)
    m, n, N, seed, workers = args
    with pytest.raises(ValueError, match=f"^{name} "):
        estimate_ergodic_capacity(m, n, 1.0, N, seed, workers=workers)


def test_estimator_takes_numpy_integers():
    a = estimate_ergodic_capacity(np.int64(2), np.int8(1), 3.0, np.int32(500), np.uint16(4))
    b = estimate_ergodic_capacity(2, 1, 3.0, 500, 4)
    assert a == b
