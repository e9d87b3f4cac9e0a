"""Line networks: closed-form capacities and quantized relay chains."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap import LineNetwork, line_capacity, line_nnc_rate


def test_gains_normalization():
    real = LineNetwork((1.0, 4.0), power=10.0)
    assert real.gains == (1.0, 4.0)
    cplx = LineNetwork((1 + 1j, 2j), power=10.0)
    assert cplx.gains == pytest.approx((2.0, 4.0), rel=1e-15)
    assert cplx.num_hops == 2


def test_validation():
    with pytest.raises(ValueError, match="at least one"):
        LineNetwork(())
    with pytest.raises(ValueError, match=">= 0"):
        LineNetwork((1.0, -2.0))
    with pytest.raises(ValueError, match="finite"):
        LineNetwork((1.0, math.inf))
    with pytest.raises(ValueError, match="noise_var"):
        LineNetwork((1.0,), noise_var=0.0)
    with pytest.raises(ValueError, match="power"):
        LineNetwork((1.0,), power=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="power"):
            LineNetwork((1.0,), power=bad)
        with pytest.raises(ValueError, match="noise_var"):
            LineNetwork((1.0,), noise_var=bad)
    # reals are finite Python floats, not bools or strings, as in NetworkParams
    for gains, kw, key in (
        ((np.float32(1.0), True), {}, "gains"),
        (("2",), {}, "gains"),
        ((1.0,), {"power": True}, "power"),
        ((1.0,), {"power": "3"}, "power"),
        ((1.0,), {"noise_var": True}, "noise_var"),
    ):
        with pytest.raises(ValueError, match=key):
            LineNetwork(gains, **kw)
    line = LineNetwork((np.float32(2.0), 1), power=np.float32(10), noise_var=np.int64(2))
    assert line == LineNetwork((2.0, 1.0), power=10.0, noise_var=2.0)
    assert all(type(v) is float for v in (*line.gains, line.power, line.noise_var))
    with pytest.raises(ValueError, match="noise_ratio"):
        line_nnc_rate(LineNetwork((1.0,)), 0.0)
    with pytest.raises(ValueError, match="mode"):
        line_nnc_rate(LineNetwork((1.0,)), 1.0, mode="prefix")


def test_capacity_is_weakest_link():
    line = LineNetwork((1.0, 4.0, 0.25), power=10.0)
    assert line_capacity(line) == pytest.approx(math.log1p(2.5), rel=1e-15)


def test_prefix_cut_values_by_hand():
    # equal gains, q = 2, snr = 10: term i is log(1 + 10/3) - i log(3/2)
    line = LineNetwork((1.0,) * 3, power=10.0)
    base = math.log1p(10.0 / 3.0)
    pen = math.log(1.5)
    terms = [base - i * pen for i in range(3)]
    assert line_nnc_rate(line, 2.0) == pytest.approx(min(terms), rel=1e-14)
    assert min(terms) == terms[2]  # the deepest prefix pays the most penalty


def test_unquantized_destination_spares_the_last_link():
    line = LineNetwork((1.0,) * 2, power=10.0)
    quantized = line_nnc_rate(line, 1.0)
    clean_last = line_nnc_rate(line, 1.0, destination_quantizes=False)
    expected = min(math.log1p(5.0), math.log1p(10.0) - math.log(2.0))
    assert clean_last == pytest.approx(expected, rel=1e-14)
    assert clean_last >= quantized


def _subset_rate(line, q, destination_quantizes):
    """Brute force over every cut = node subset containing 0 but not D."""
    D = line.num_hops
    pen = math.log1p(1.0 / q)
    best = math.inf
    for bits in itertools.product((0, 1), repeat=D - 1):
        inside = {0} | {i + 1 for i, b in enumerate(bits) if b}
        val = -pen * (len(inside) - 1)
        for hop in range(D):
            if hop in inside and (hop + 1) not in inside:
                recv_quant = hop + 1 < D or destination_quantizes
                snr = line.snr / (1.0 + q) if recv_quant else line.snr
                val += math.log1p(line.gains[hop] * snr)
        best = min(best, val)
    return best


@settings(max_examples=60, deadline=None)
@given(
    gains=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6),
    q=st.floats(0.1, 10.0),
    power=st.sampled_from([1.0, 10.0]),
    dq=st.booleans(),
)
def test_all_cuts_equals_prefix_cuts(gains, q, power, dq):
    # the prefix up to a cut's last in-cut node never costs more than the
    # cut itself, so the exhaustive minimum coincides with the prefix one
    line = LineNetwork(tuple(gains), power=power)
    simple = line_nnc_rate(line, q, destination_quantizes=dq)
    full = line_nnc_rate(line, q, mode="all_cuts", destination_quantizes=dq)
    assert full <= simple + 1e-12
    assert full == pytest.approx(simple, abs=1e-12)
    assert full == pytest.approx(_subset_rate(line, q, dq), abs=1e-12)


def test_equal_gains_gap_closed_form():
    # q = D - 1: gap = log(1+g) - log(1+g/D) + (D-1) log(1 + 1/(D-1))
    for D in (2, 3, 4, 8, 16):
        for gamma in (0.5, 10.0, 1000.0):
            line = LineNetwork((1.0,) * D, power=gamma, noise_var=1.0)
            q = float(D - 1)
            gap = line_capacity(line) - line_nnc_rate(line, q)
            expected = (
                math.log1p(gamma)
                - math.log1p(gamma / D)
                + (D - 1) * math.log1p(1.0 / (D - 1))
            )
            assert gap == pytest.approx(expected, rel=1e-12)
            assert gap <= math.log(D) + 1.0


def test_gap_bound_exact_for_random_instances():
    rng = np.random.default_rng(20240817)
    for D in (2, 4, 8, 16, 32, 64):
        for _ in range(25):
            gains = rng.exponential(1.0, size=D) * 10.0 ** rng.uniform(-2, 2)
            snr = 10.0 ** rng.uniform(-1, 2)
            line = LineNetwork(tuple(gains), power=snr)
            gap = line_capacity(line) - line_nnc_rate(line, float(D - 1))
            assert gap <= math.log(D) + 1.0  # exact, no tolerance
