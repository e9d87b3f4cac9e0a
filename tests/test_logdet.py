"""The logdet kernel: exact values, orientations, degenerate cases."""

import math

import numpy as np
import pytest

from oracles import ChannelSample, logdet_capacity
from relaycap import gram_logdet


def _rng(seed=0):
    return np.random.default_rng(seed)


def _complex(rng, *shape):
    z = rng.standard_normal((*shape, 2))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_zero_dimension_is_exact_zero(shape):
    H = np.zeros(shape, dtype=complex)
    assert gram_logdet(H, 5.0) == 0.0


def test_zero_snr_is_exact_zero():
    H = _complex(_rng(), 4, 4)
    assert gram_logdet(H, 0.0) == 0.0


def test_identity_channel():
    n, snr = 4, 3.0
    val = gram_logdet(np.eye(n, dtype=complex), snr)
    assert val == pytest.approx(n * math.log1p(snr), abs=1e-12)


def test_diagonal_channel():
    H = np.diag([1.0, 2.0]).astype(complex)
    snr = 7.0
    expected = math.log1p(snr) + math.log1p(4 * snr)
    assert gram_logdet(H, snr) == pytest.approx(expected, abs=1e-12)


def test_scalar_channel():
    h = 0.3 - 1.2j
    assert gram_logdet(np.array([[h]]), 2.0) == pytest.approx(
        math.log1p(2.0 * abs(h) ** 2), abs=1e-13
    )


def test_orientation_agreement():
    H = _complex(_rng(3), 3, 5)
    a = gram_logdet(H, 2.5, side="rows")
    b = gram_logdet(H, 2.5, side="cols")
    c = gram_logdet(H, 2.5)
    assert a == pytest.approx(b, abs=1e-10)
    assert c == pytest.approx(a, abs=1e-10)


def test_conjugate_transpose_agreement():
    H = _complex(_rng(4), 2, 6)
    assert logdet_capacity(H, 1.7) == pytest.approx(
        logdet_capacity(H.conj().T, 1.7), abs=1e-10
    )


def test_batched_matches_single():
    H = _complex(_rng(5), 7, 3, 4)
    batch = gram_logdet(H, 4.0)
    singles = np.array([gram_logdet(H[i], 4.0) for i in range(7)])
    assert np.allclose(batch, singles, atol=1e-12, rtol=0)


def test_values_are_nonnegative_and_monotone_in_snr():
    H = _complex(_rng(6), 50, 3, 3)
    low = gram_logdet(H, 0.5)
    high = gram_logdet(H, 5.0)
    assert np.all(low >= 0)
    assert np.all(high >= low)


def test_nonfinite_input_rejected():
    H = np.ones((2, 2), dtype=complex)
    H[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gram_logdet(H, 1.0)
    H[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        gram_logdet(H, 1.0)


def test_negative_snr_rejected():
    # non-finite snr values are refused too
    for snr in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="snr"):
            gram_logdet(np.eye(2, dtype=complex), snr)


def test_one_dimensional_input_rejected():
    with pytest.raises(ValueError, match="at least 2 dimensions"):
        gram_logdet(np.ones(3, dtype=complex), 1.0)


def test_bad_side_rejected():
    with pytest.raises(ValueError, match="side"):
        gram_logdet(np.eye(2, dtype=complex), 1.0, side="diag")


def test_cholesky_failure_retries_with_jitter(monkeypatch, caplog):
    H = _complex(_rng(7), 3, 3)
    reference = gram_logdet(H, 2.0)
    calls = {"n": 0}
    real = np.linalg.cholesky

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return real(x)

    monkeypatch.setattr(np.linalg, "cholesky", flaky)
    with caplog.at_level("WARNING", logger="relaycap.mimo"):
        val = gram_logdet(H, 2.0)
    assert calls["n"] == 2
    assert any("jitter" in r.message for r in caplog.records)
    # the 1e-12 diagonal jitter moves the value imperceptibly
    assert val == pytest.approx(reference, abs=1e-9)


def test_channel_sample_and_log_base():
    H = _complex(_rng(8), 2, 2)
    sample = ChannelSample(entries=H)
    nats = logdet_capacity(sample, 3.0)
    bits = logdet_capacity(sample, 3.0, log_base="bits")
    assert bits == pytest.approx(nats / math.log(2), rel=1e-15)
    with pytest.raises(ValueError, match="log_base"):
        logdet_capacity(sample, 3.0, log_base="dits")
