"""Layered-network cuts: values, minimization, draw-level properties."""

import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import node_cut_value_mc
from relaycap import (
    CapacityTable,
    CutProfile,
    NetworkParams,
    QuantizationScheme,
    SamplePool,
    TableCache,
    brute_force_min_cut,
    check_capacity_properties,
    cut_value,
    mimo,
    min_cut_dp,
    nnc_lower_bound,
)
from relaycap.mimo import _stream_stats, gram_logdet
from relaycap.network import _block_dims, _cut_column, _cut_sum, _cut_terms, cut_profile_draws


def params_for(table, K, D):
    return NetworkParams(K, D, power=table.snr, noise_var=1.0)


# ---------------------------------------------------------------- validation


def test_network_params_validation():
    for bad in (
        dict(relays_per_layer=0, num_hops=2),
        dict(relays_per_layer=2, num_hops=0),
        dict(relays_per_layer=2, num_hops=2, power=-1.0),
        dict(relays_per_layer=2, num_hops=2, noise_var=0.0),
        dict(relays_per_layer=2, num_hops=2, power=True),
        dict(relays_per_layer=2.0, num_hops=2),
        dict(relays_per_layer=2, num_hops=3.5),
        dict(relays_per_layer=True, num_hops=2),
    ):
        with pytest.raises(ValueError):
            NetworkParams(**bad)
    assert NetworkParams(2, 3, power=5.0, noise_var=2.0).snr == 2.5
    # rates are nats throughout the library: no output base to set
    with pytest.raises(TypeError):
        NetworkParams(2, 2, log_base="bits")
    # a non-integral or bool count is refused at construction, naming the field
    for args, field in (((2.0, 3), "relays_per_layer"), ((2, 3.5), "num_hops"),
                        ((True, 3), "relays_per_layer"), ((2, False), "num_hops")):
        with pytest.raises(ValueError, match=field):
            NetworkParams(*args)
    params = NetworkParams(np.int64(2), np.int32(3))
    assert (params.relays_per_layer, params.num_hops) == (2, 3)
    assert type(params.relays_per_layer) is int and type(params.num_hops) is int


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["power", "noise_var"])
def test_network_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        NetworkParams(2, 3, **{field: value})


def test_cut_profile_validation(table3_10):
    with pytest.raises(ValueError, match="nonnegative"):
        CutProfile((1, -1))
    params = params_for(table3_10, 3, 3)
    with pytest.raises(ValueError, match="length"):
        cut_value(CutProfile((1,)), params, table3_10)
    with pytest.raises(ValueError, match="exceed"):
        cut_value(CutProfile((4, 0)), params, table3_10)
    # per-draw cut values check the profile as cut_value does
    for counts, match in (((1,), "length"), ((2, 2, 2, 2), "length"), ((4, 0), "exceed")):
        with pytest.raises(ValueError, match=match):
            cut_profile_draws(CutProfile(counts), params, table3_10)
    # non-integral counts are refused, not truncated
    with pytest.raises(ValueError, match="integers"):
        CutProfile((1.7, 0.2))
    assert CutProfile((1.0, 2.0)).counts == (1, 2)


def test_cut_profile_takes_an_empty_profile_and_numpy_integers():
    # D = 1 has no relay layer: the one profile is empty
    assert CutProfile(()).counts == () == CutProfile((3,) * (1 - 1)).counts
    for counts in (np.array([2, 0, 1]), (np.int64(2), np.uint8(0), np.int32(1))):
        profile = CutProfile(counts)
        assert profile.counts == (2, 0, 1)
        assert all(type(c) is int for c in profile.counts)


@pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf, True])
def test_node_penalty_must_be_finite(table3_10, penalty):
    params = params_for(table3_10, 2, 3)
    profile = CutProfile((1, 1))
    for call in (
        lambda: cut_value(profile, params, table3_10, node_penalty=penalty),
        lambda: cut_profile_draws(profile, params, table3_10, node_penalty=penalty),
        lambda: min_cut_dp(params, table3_10, node_penalty=penalty),
        lambda: brute_force_min_cut(params, table3_10, node_penalty=penalty),
    ):
        with pytest.raises(ValueError, match="node_penalty"):
            call()


def test_numpy_penalty_gives_python_floats(table3_10):
    # a float32 penalty is read as the float it holds: every cut function
    # returns the Python float's result bitwise, not float32 arithmetic
    params = params_for(table3_10, 2, 4)
    profile = CutProfile((1, 2, 0))
    pen = np.float32(0.5)
    for call in (
        lambda p: cut_value(profile, params, table3_10, node_penalty=p).value,
        lambda p: min_cut_dp(params, table3_10, node_penalty=p)[0],
        lambda p: brute_force_min_cut(params, table3_10, node_penalty=p)[0],
    ):
        got, want = call(pen), call(float(pen))
        assert type(got) is float and got.hex() == want.hex()
    draws = cut_profile_draws(profile, params, table3_10, node_penalty=pen)
    assert np.array_equal(
        draws, cut_profile_draws(profile, params, table3_10, node_penalty=float(pen)))
    json.dumps(cut_value(profile, params, table3_10, node_penalty=pen).as_dict())


def test_profile_helpers():
    assert CutProfile((2,) * 3).counts == (2, 2, 2)
    assert CutProfile((0,) * 3).counts == (0, 0, 0)
    assert len(CutProfile((1, 2))) == 2 and list(CutProfile((1, 2))) == [1, 2]


def test_table_too_small_rejected(table3_10):
    params = NetworkParams(4, 2, power=10.0)
    with pytest.raises(ValueError, match="max_dim"):
        min_cut_dp(params, table3_10)


# ---------------------------------------------------------------- cut values


def test_cut_value_blocks_and_sum(table3_10):
    params = params_for(table3_10, 3, 3)
    cv = cut_value(CutProfile((1, 2)), params, table3_10)
    # crossing blocks: (K - M1, K), (K - M2, M1), (K, M2)
    assert [d for d, _ in cv.per_block] == [(2, 3), (1, 1), (3, 2)]
    expected = (
        table3_10.mean(2, 3) + (table3_10.mean(1, 1) + (table3_10.mean(3, 2) + 0.0))
    )
    assert cv.value == expected
    assert cv.std_error > 0


def test_cut_value_penalty_lowers_value(table3_10):
    params = params_for(table3_10, 3, 3)
    prof = CutProfile((2, 1))
    plain = cut_value(prof, params, table3_10)
    pen = cut_value(prof, params, table3_10, node_penalty=0.25)
    assert pen.value == pytest.approx(plain.value - 0.25 * 3, abs=1e-12)


def test_cut_value_matches_block_diagonal_oracle(table3_10):
    # whole-matrix Monte Carlo with independent draws agrees with the summed
    # table entries: the cut value really is a block-diagonal logdet
    params = params_for(table3_10, 3, 3)
    prof = CutProfile((1, 2))
    cv = cut_value(prof, params, table3_10)
    mc, mc_se = oracles.block_diag_cut_mc(3, 3, (1, 2), 10.0, 6_000, seed=321)
    assert abs(cv.value - mc) < 4 * math.hypot(cv.std_error, mc_se)


def test_cut_value_as_dict(table3_10):
    params = params_for(table3_10, 3, 2)
    d = cut_value(CutProfile((1,)), params, table3_10).as_dict()
    assert d["profile"] == [1]
    assert {"value", "std_error", "per_block"} <= set(d)
    assert d["per_block"][0] == {
        "dims": [2, 3], "capacity": table3_10.mean(2, 3)
    }


def test_every_profile_at_least_full_capacity(table3_10, table3_1):
    # the shared-draw chain: any cut's value dominates C(K, K) draw by draw
    for table in (table3_10, table3_1):
        for K in (1, 2, 3):
            for D in (2, 3, 4):
                params = params_for(table, K, D)
                full = table.mean(K, K)
                for counts in itertools.product(range(K + 1), repeat=D - 1):
                    cv = cut_value(CutProfile(counts), params, table)
                    assert cv.value >= full - 1e-12


def test_per_hop_tables_change_the_final_hop(table3_10, table3_1):
    params = params_for(table3_10, 2, 3)
    prof = CutProfile((1, 2))
    mixed = cut_value(prof, params, table3_10, last=table3_1)
    expected = (
        table3_10.mean(1, 2) + (table3_10.mean(0, 1) + (table3_1.mean(2, 2) + 0.0))
    )
    assert mixed.value == expected


def test_snr_negative_zero_reads_the_positive_zero_columns():
    # snr -0.0 passes _check_snr; every column it reaches, entries and cuts
    # alike, is bitwise the +0.0 one, with no sign bit set
    for K in (1, 2):
        pools = [SamplePool(K, 100, seed=3) for _ in range(2)]
        neg, pos = (CapacityTable(s, np.zeros((K + 1, K + 1)), pool)
                    for s, pool in zip((-0.0, 0.0), pools))
        for m, n in itertools.product(range(K + 1), repeat=2):
            got = neg.entry_draws(m, n)
            assert got.tobytes() == pos.entry_draws(m, n).tobytes()
            assert not np.signbit(got).any(), (K, m, n)
        params = NetworkParams(K, 3, power=0.0)
        profile = CutProfile((K, K - 1))
        got = cut_profile_draws(profile, params, neg)
        assert got.tobytes() == cut_profile_draws(profile, params, pos).tobytes()
        assert not np.signbit(got).any()
        # the cache keys and stores its table at +0.0
        cache = TableCache(pools[0])
        table = cache.lower(-0.0)
        assert cache.lower(0.0) is table and not math.copysign(1.0, table.snr) < 0
        assert not np.signbit(table.entry_draws(K, K)).any()


# ------------------------------------------------------------- minimization


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("penalty", [0.0, 0.2, math.log(2), 5.0])
def test_dp_equals_brute_force_bitwise(table3_10, K, D, penalty):
    params = params_for(table3_10, K, D)
    v_dp, p_dp = min_cut_dp(params, table3_10, node_penalty=penalty)
    v_bf, p_bf = brute_force_min_cut(params, table3_10, node_penalty=penalty)
    assert v_dp == v_bf
    assert p_dp == p_bf
    # the reported cut value is the minimum itself, bit for bit
    assert cut_value(p_dp, params, table3_10, node_penalty=penalty).value == v_dp


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("penalty", [0.0, 0.2, math.log(2), 5.0])
def test_dp_equals_brute_force_bitwise_with_distinct_last_hop(
    table3_10, table3_1, K, D, penalty
):
    params = params_for(table3_10, K, D)
    v_dp, p_dp = min_cut_dp(params, table3_10, node_penalty=penalty, last=table3_1)
    v_bf, p_bf = brute_force_min_cut(
        params, table3_10, node_penalty=penalty, last=table3_1
    )
    assert v_dp == v_bf
    assert p_dp == p_bf
    cut = cut_value(p_dp, params, table3_10, node_penalty=penalty, last=table3_1)
    assert cut.value == v_dp


def test_all_source_side_profile_is_the_penalized_argmin():
    # Han's inequality makes (K, ..., K) the unique argmin of a penalized
    # pool-built cut once the penalty clears the rounding margin; the DP
    # finds it on a lower-bound table without computing any entry but
    # C(K, K), and its value is that profile's _cut_sum bit for bit
    penalties = (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0)
    for K in (1, 2, 3, 4):
        cache = TableCache(SamplePool.build(K, 2_000, seed=K))
        for snr in (0.1, 10.0, 1e3):
            lower = cache.lower(snr)
            margin = 1e-9 * max(1.0, abs(lower.means[K, K]))
            cases = [(D, pen) for D in (1, 2, 3, 5, 8, 16, 33, 64) for pen in penalties
                     if pen > 4 * (D + 2) * margin]
            assert cases
            want = {}
            for D, pen in cases:
                params = NetworkParams(K, D, power=snr)
                value, profile = min_cut_dp(params, lower, node_penalty=pen)
                assert profile.counts == (K,) * (D - 1), (K, snr, D, pen)
                counts = profile.counts
                assert value.hex() == _cut_sum(counts, params, lower, lower, pen)[0].hex()
                want[D, pen] = value
            exact = {(m, n) for m in range(1, K + 1) for n in range(1, K + 1)
                     if not math.isnan(lower.std_errors[m, n])}
            assert exact == {(K, K)}, (K, snr)
            full = cache.at(snr)
            for D, pen in cases:
                value, profile = min_cut_dp(
                    NetworkParams(K, D, power=snr), full, node_penalty=pen
                )
                assert profile.counts == (K,) * (D - 1), (K, snr, D, pen)
                assert value.hex() == want[D, pen].hex(), (K, snr, D, pen)


def _assert_list_refused(params, tables):
    profile = CutProfile((1,) * (params.num_hops - 1))
    for call in (
        lambda: cut_value(profile, params, tables),
        lambda: cut_profile_draws(profile, params, tables),
        lambda: min_cut_dp(params, tables),
        lambda: brute_force_min_cut(params, tables),
    ):
        with pytest.raises(TypeError, match="last="):
            call()


def test_per_hop_table_count_checked(table3_10):
    # a per-hop list is refused whatever its length: one per hop, or too few
    params = params_for(table3_10, 2, 3)
    for tables in ((table3_10,) * 3, [table3_10, table3_10]):
        _assert_list_refused(params, tables)


def test_per_hop_tables_must_share_the_body(table3_10, table3_1):
    # two body tables cannot be passed at all; a distinct final hop goes in last=
    params = params_for(table3_10, 2, 3)
    for tables in ([table3_10, table3_1, table3_10], [table3_10, table3_10, table3_1]):
        _assert_list_refused(params, tables)


@pytest.mark.parametrize("last", ["shared", "mixed"])
@pytest.mark.parametrize("penalty", [0.0, 0.3])
def test_cut_draws_equal_per_hop_column_sum(table3_10, table3_1, last, penalty):
    K = 2
    last_table = table3_10 if last == "shared" else table3_1
    for D in range(1, 6):
        params = params_for(table3_10, K, D)
        for counts in itertools.product(range(K + 1), repeat=D - 1):
            profile = CutProfile(counts)
            bounds = [K, *counts, 0]
            naive = np.zeros(table3_10.num_samples)
            for hop in range(D):
                hop_table = last_table if hop == D - 1 else table3_10
                naive += hop_table.entry_draws(K - bounds[hop + 1], bounds[hop])
            naive -= penalty * sum(counts)
            got = cut_profile_draws(
                profile, params, table3_10, node_penalty=penalty, last=last_table
            )
            np.testing.assert_allclose(got, naive, rtol=1e-12, atol=0)


@pytest.mark.parametrize("last", ["shared", "mixed"])
def test_cut_draws_equal_the_whole_column_sum_bitwise(table3_10, table3_1, last):
    # cut_profile_draws adds whole columns from zero, bitwise as here: each
    # distinct nonzero body block in order of first crossing times its
    # multiplicity (hop D among them when it reads the body table), then
    # hop D's column on a distinct table, then minus the penalty
    last_table = table3_10 if last == "shared" else table3_1
    rng = random.Random(5)
    for K, D in itertools.product((1, 2, 3), (1, 2, 3, 9, 40)):
        params = params_for(table3_10, K, D)
        # all relays on the source side: hop D's block alone, the one-term cut
        randoms = [tuple(rng.randrange(K + 1) for _ in range(D - 1)) for _ in range(4)]
        for counts in [(K,) * (D - 1), *randoms]:
            dims = _block_dims(counts, params)
            body_dims = dims if last_table is table3_10 else dims[:-1]
            acc = np.zeros(table3_10.num_samples)
            for (m, n), mult in Counter(d for d in body_dims if d[0] and d[1]).items():
                acc += mult * table3_10.entry_draws(m, n)
            if last_table is not table3_10 and dims[-1][1]:
                acc += last_table.entry_draws(*dims[-1])
            # _cut_column starts from its first term, bitwise as from zeros,
            # and returns a new writable array, never a pool column
            terms = _cut_terms(counts, params, table3_10, last_table)
            column = _cut_column(terms)
            assert column.tobytes() == acc.tobytes() and column.flags.writeable
            assert not any(np.shares_memory(column, t.entry_draws(*d)) for t, d, _ in terms)
            got = cut_profile_draws(
                CutProfile(counts), params, table3_10, node_penalty=0.3, last=last_table
            )
            assert np.array_equal(got, acc - 0.3 * sum(counts)), (K, D, counts)


def test_cut_terms_count_every_hop_in_order():
    # the distinct blocks of hops 1..D-1 with their multiplicities, in order
    # of first crossing, and hop D's block: Counter of the per-hop list, hop
    # D's block on its own table or counted among the body's
    body, last = (
        CapacityTable(s, np.zeros((5, 5)), SamplePool(4, 10, 0)) for s in (1, 2)
    )
    rng = random.Random(3)
    for K, D in itertools.product((1, 2, 3, 4), (1, 2, 3, 7, 64, 474)):
        params = NetworkParams(K, D)
        profiles = [(K,) * (D - 1), (0,) * (D - 1)] + [
            tuple(sorted(rng.randrange(K + 1) for _ in range(D - 1)))
            for _ in range(3)
        ] + [tuple(rng.randrange(K + 1) for _ in range(D - 1)) for _ in range(5)]
        for counts in profiles:
            dims = _block_dims(counts, params)
            *terms, final = _cut_terms(counts, params, body, last)
            assert terms == [(body, b, k) for b, k in Counter(dims[:-1]).items()], counts
            assert final == (last, dims[-1], 1), counts
            assert _cut_terms(counts, params, body, body) == [
                (body, b, k) for b, k in Counter(dims).items()], counts
    # the all-source-side profile crosses two distinct blocks
    terms = _cut_terms((2,) * 473, NetworkParams(2, 474), body, last)
    assert terms == [(body, (0, 2), 473), (last, (2, 2), 1)]
    assert _cut_terms((2,) * 473, NetworkParams(2, 474), body, body) == [
        (body, (0, 2), 473), (body, (2, 2), 1)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_cut_terms_equal_the_per_hop_enumeration(data):
    # random profiles built from runs of equal counts, so long runs occur:
    # hop i + 1 crosses (K - M_{i+1}, M_i) with M_0 = K and M_D = 0, on the
    # body table but hop D on ``last``; the terms are the per-hop blocks
    # grouped by (table, block) in order of first crossing.  _cut_terms
    # reads only the tables' identities, so sentinels stand in for them
    K = data.draw(st.integers(1, 4))
    runs = data.draw(st.lists(st.tuples(st.integers(0, K), st.integers(1, 40)), max_size=12))
    counts = tuple(c for c, length in runs for _ in range(length))
    body = object()
    last = data.draw(st.sampled_from([body, object()]))
    states = [K, *counts, 0]
    want: dict = {}
    for i in range(len(counts) + 1):
        key = (last if i == len(counts) else body, (K - states[i + 1], states[i]))
        want[key] = want.get(key, 0) + 1
    got = _cut_terms(counts, NetworkParams(K, len(counts) + 1), body, last)
    assert got == [(t, dims, mult) for (t, dims), mult in want.items()]


def test_tables_over_different_pools_are_refused():
    # a network's tables share one pool of draws, so every cut error is a
    # common-random-number error; a final-hop table over a pool whose key
    # differs in K, sample count or seed is refused, naming both keys
    t2 = CapacityTable.from_pool(SamplePool.build(2, 3_000, seed=8), 10.0)
    params = NetworkParams(2, 2, power=10.0)
    profile = CutProfile((1,))
    for other in (SamplePool.build(3, 3_000, seed=8), SamplePool.build(2, 2_000, seed=8),
                  SamplePool.build(2, 3_000, seed=9)):
        t3 = CapacityTable.from_pool(other, 10.0)
        keys = rf"{re.escape(str(other.key))}.*{re.escape(str(t2.pool.key))}"
        for call in (
            lambda: cut_value(profile, params, t2, last=t3),
            lambda: cut_profile_draws(profile, params, t2, last=t3),
            lambda: min_cut_dp(params, t2, last=t3),
            lambda: brute_force_min_cut(params, t2, last=t3),
            lambda: nnc_lower_bound(
                params, QuantizationScheme(1.0, destination_quantizes=False), t2,
                table_full=t3,
            ),
        ):
            with pytest.raises(ValueError, match=keys):
                call()


def test_tables_over_equal_pools_use_shared_draws():
    # two builds with one key hold the same draws: the error is per draw
    t2 = CapacityTable.from_pool(SamplePool.build(2, 3_000, seed=8), 10.0)
    u2 = CapacityTable.from_pool(SamplePool.build(2, 3_000, seed=8), 1.0)
    params = NetworkParams(2, 2, power=10.0)
    profile = CutProfile((1,))
    cut = cut_value(profile, params, t2, last=u2)
    draws = cut_profile_draws(profile, params, t2, last=u2)
    assert cut.std_error == _stream_stats(draws)[1]


def test_min_cut_without_penalty_is_full_capacity(table3_10):
    for K in (1, 2, 3):
        for D in (2, 3, 4):
            params = params_for(table3_10, K, D)
            value, _ = min_cut_dp(params, table3_10)
            assert value == table3_10.mean(K, K)


def test_single_hop_network(table3_10):
    params = params_for(table3_10, 2, 1)
    value, profile = min_cut_dp(params, table3_10, node_penalty=3.0)
    assert profile.counts == ()
    assert value == table3_10.mean(2, 2)


def test_large_penalty_prefers_all_relays_in_cut(table3_10):
    # the objective subtracts penalty * (relays on the source side), so a
    # penalty above any capacity difference drives the argmin to all-K
    params = params_for(table3_10, 2, 4)
    big = table3_10.mean(2, 2) + 1.0
    _, profile = min_cut_dp(params, table3_10, node_penalty=big)
    assert profile.counts == (2, 2, 2)


def _synthetic_table(K, entries=1.0):
    """A table over an undecomposed pool whose nonzero entries are
    ``entries`` (a number or K x K rows), every one exact."""
    means = np.zeros((K + 1, K + 1))
    means[1:, 1:] = entries
    return CapacityTable(1.0, means, SamplePool(K, 10, 0))


def test_ties_resolve_to_lexicographically_smallest_profile():
    table = _synthetic_table(1)
    params = NetworkParams(1, 3, power=1.0)
    v_dp, p_dp = min_cut_dp(params, table)
    v_bf, p_bf = brute_force_min_cut(params, table)
    # profiles (0,0), (1,0) and (1,1) all cost exactly one crossing block
    assert v_dp == v_bf == 1.0
    assert p_dp.counts == p_bf.counts == (0, 0)


def test_dp_and_brute_force_tie_in_float_on_different_profiles():
    # (3, 3) is worth exactly -3 and (3, 0) -3 + 8.823e-163, which rounds
    # to -3.0: the DP follows suffix minima to the exact minimizer, brute
    # force takes the smaller of the profiles tied in float, and the values
    # agree bitwise
    K, D, pen = 3, 3, 1.0
    body = _synthetic_table(K, [[0, 0, 0.1], [0, -0.0, 3.0], [0.1, 3.0, 8.823e-163]])
    last = _synthetic_table(K, [[9.006, 0.1, 0.5], [0.1, 3.0, 3.935], [0.5, 3.935, 3.0]])
    params = NetworkParams(K, D)
    v_dp, p_dp = min_cut_dp(params, body, pen, last=last)
    v_bf, p_bf = brute_force_min_cut(params, body, pen, last=last)
    assert v_dp.hex() == v_bf.hex() == (-3.0).hex()
    assert (p_dp.counts, p_bf.counts) == ((3, 3), (3, 0))
    exact = {}
    for counts in itertools.product(range(K + 1), repeat=D - 1):
        blocks = _block_dims(counts, params)
        exact[counts] = sum(
            Fraction((last if i == D - 1 else body).means[dims]) for i, dims in enumerate(blocks)
        ) - Fraction(pen) * sum(counts)
    first, second = sorted(exact.values())[:2]
    assert exact[3, 3] == first == -3 and second > first


_ENTRY = st.floats(0.0, 1e16)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_dp_value_is_brute_force_value_bitwise(data):
    # synthetic tables, with and without a distinct final-hop table; the
    # profiles must agree where one profile alone attains the float minimum
    K, D = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))

    def table():
        entries = data.draw(st.lists(_ENTRY, min_size=K * K, max_size=K * K))
        return _synthetic_table(K, np.reshape(entries, (K, K)))

    body = table()
    last = table() if data.draw(st.booleans()) else body
    pen = data.draw(st.floats(0.0, 10.0))
    params = NetworkParams(K, D)
    v_dp, p_dp = min_cut_dp(params, body, pen, last=last)
    v_bf, p_bf = brute_force_min_cut(params, body, pen, last=last)
    assert v_dp.hex() == v_bf.hex()
    values = [
        _cut_sum(counts, params, body, last, pen)[0]
        for counts in itertools.product(range(K + 1), repeat=D - 1)
    ]
    if values.count(v_bf) == 1:
        assert p_dp == p_bf


def test_brute_force_guard():
    table = _synthetic_table(3)
    params = NetworkParams(3, 14, power=1.0)
    with pytest.raises(ValueError, match="limit"):
        brute_force_min_cut(params, table)


# -------------------------------------------------------- property checking


def test_property_report_passes_on_fresh_tables(pool3):
    for snr in (10.0, 1.0):
        rep = check_capacity_properties(pool3, snr)
        assert rep.passed
        assert rep.symmetry_error <= 1e-9
        assert rep.monotonicity_violation <= 1e-9
        assert rep.split_violation <= 1e-9
        assert rep.num_draws == 20_000 and rep.max_dim == 3
        assert set(rep.as_dict()) >= {"symmetry_error", "passed", "tolerance"}


def test_property_report_reads_only_the_pool_draws(monkeypatch):
    # the symmetry check computes the other Gram side of each corner against
    # the one gram_logdet picks: the worst case of both sides computed anew;
    # nothing is decomposed
    pool = SamplePool(3, 300, seed=2)
    rep = check_capacity_properties(pool, 2.0)
    P = pool.draws
    want = max(
        float(np.max(np.abs(gram_logdet(P[:, :x, :y], 2.0, side="rows")
                            - gram_logdet(P[:, :x, :y], 2.0, side="cols"))))
        for x, y in itertools.product(range(1, 4), repeat=2)
    )
    assert rep.symmetry_error.hex() == want.hex()
    assert rep.passed and rep.snr == 2.0 and type(rep.snr) is float
    assert pool.coefficients == {}
    # snr is refused before any draw is made
    def refuse(*args):
        raise AssertionError("draws were made")

    monkeypatch.setattr(mimo, "_draw_rows", refuse)
    for bad in (-1.0, math.nan, math.inf, True, "1"):
        with pytest.raises(ValueError, match="snr"):
            check_capacity_properties(pool, bad)


# ----------------------------------------------------------- node-level cuts


def test_node_cut_matches_profile_cut(table3_10):
    # an explicit relay-subset cut is statistically the same as its profile
    params = params_for(table3_10, 3, 3)
    est = node_cut_value_mc(params, [{0}, {0, 2}], 6_000, seed=777)
    cv = cut_value(CutProfile((1, 2)), params, table3_10)
    assert abs(est.mean - cv.value) < 4 * math.hypot(est.std_error, cv.std_error)


def test_node_cut_degenerate_subsets(table3_10):
    params = params_for(table3_10, 2, 3)
    est = node_cut_value_mc(params, [set(), set()], 2_000, seed=5)
    # with every relay on the destination side only the first hop crosses
    direct = oracles.wishart_capacity(2, 2, 10.0)
    assert abs(est.mean - direct) < 5 * est.std_error


def test_node_cut_validation(table3_10):
    params = params_for(table3_10, 2, 3)
    with pytest.raises(ValueError, match="subsets"):
        node_cut_value_mc(params, [{0}], 100, seed=0)
    with pytest.raises(ValueError, match="indices"):
        node_cut_value_mc(params, [{0}, {5}], 100, seed=0)
    for bad in (0, 100.0, True):
        with pytest.raises(ValueError, match="num_samples"):
            node_cut_value_mc(params, [{0}, {1}], bad, seed=0)
    with pytest.raises(ValueError, match="seed"):
        node_cut_value_mc(params, [{0}, {1}], 100, seed=1.5)
