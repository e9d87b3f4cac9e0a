"""Capacity tables over shared draws: exact structure, oracle agreement."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from relaycap import (
    CapacityTable,
    SamplePool,
    TableCache,
    default_q_grid,
    estimate_ergodic_capacity,
    gram_logdet,
    mimo,
    sample_channel_block,
)
from relaycap.mimo import _stream_stats


def test_full_entry_bitwise_matches_direct_estimator(table3_10):
    est = estimate_ergodic_capacity(3, 3, 10.0, 20_000, seed=11)
    assert table3_10.mean(3, 3) == est.mean
    assert table3_10.std_error(3, 3) == est.std_error


def test_symmetry_is_exact(table3_10):
    K = table3_10.max_dim
    for m in range(K + 1):
        for n in range(K + 1):
            assert table3_10.means[m, n] == table3_10.means[n, m]
            assert np.array_equal(
                table3_10.entry_draws(m, n), table3_10.entry_draws(n, m)
            )


def test_zero_index_rows_and_columns_are_zero(table3_10):
    assert np.all(table3_10.means[0, :] == 0.0)
    assert np.all(table3_10.means[:, 0] == 0.0)
    for n in range(table3_10.max_dim + 1):
        assert np.all(table3_10.entry_draws(0, n) == 0.0)


@pytest.mark.parametrize(
    "m,n,snr",
    [(1, 1, 10.0), (2, 2, 10.0), (3, 3, 10.0), (2, 3, 10.0), (1, 3, 10.0),
     (2, 2, 1.0), (3, 3, 1.0)],
)
def test_entries_match_wishart_oracle(table3_10, table3_1, m, n, snr):
    table = table3_10 if snr == 10.0 else table3_1
    expected = oracles.wishart_capacity(m, n, snr)
    est = table.estimate(m, n)
    assert est.std_error < 0.02
    assert abs(est.mean - expected) < 5 * est.std_error


def test_monotone_in_each_dimension_on_every_draw(table3_10):
    pd = table3_10.entry_draws
    K = table3_10.max_dim
    for m in range(K):
        for n in range(K + 1):
            assert np.all(pd(m + 1, n) >= pd(m, n) - 1e-12)
            assert np.all(pd(n, m + 1) >= pd(n, m) - 1e-12)


def test_row_split_superadditive_on_every_draw(table3_10):
    # C_draw(x, y) + C_draw(K - x, y) >= C_draw(K, y): the ingredient that
    # makes every cut profile at least as big as the full-dimension entry
    pd = table3_10.entry_draws
    K = table3_10.max_dim
    for y in range(1, K + 1):
        for x in range(K + 1):
            lhs = pd(x, y) + pd(K - x, y)
            assert np.all(lhs >= pd(K, y) - 1e-12)


def test_entry_bounds_checked(table3_10):
    with pytest.raises(ValueError, match="outside table"):
        table3_10.mean(4, 1)
    with pytest.raises(ValueError, match="outside table"):
        table3_10.estimate(1, -1)
    with pytest.raises(ValueError, match="outside table"):
        table3_10.entry_draws(4, 1)


def test_full_table_over_an_every_entry_pool():
    t = CapacityTable.from_pool(SamplePool(2, 3_000, 1), 5.0)
    assert t.max_dim == 2 and t.pool is not None
    assert t.mean(2, 2) > t.mean(1, 1) > 0


def test_table_is_an_snr_over_its_pool():
    # the constructor takes (snr, means, pool); the shape is the
    # pool's, read through properties that cannot disagree with it
    assert [f.name for f in dataclasses.fields(CapacityTable) if f.init] == [
        "snr", "means", "pool"]
    # a pool's coefficients are filled by decompose alone
    assert [f.name for f in dataclasses.fields(SamplePool) if f.init] == [
        "max_dim", "num_samples", "seed", "workers"]
    pool = SamplePool(3, 10, 0)
    table = CapacityTable(1.0, np.zeros((4, 4)), pool)
    assert (table.max_dim, table.num_samples) == (3, 10) and table.per_draw is None
    with pytest.raises(TypeError):
        CapacityTable(1.0, np.zeros((4, 4)))


@pytest.mark.parametrize("read", ["mean", "std_error", "estimate", "entry_draws"])
@pytest.mark.parametrize("m, n, name", [(1.5, 1, "m"), (True, 1, "m"), (1, 2.0, "n"), (1, False, "n")])
def test_entry_readers_refuse_non_integer_dimensions(table3_10, read, m, n, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        getattr(table3_10, read)(m, n)
    # numpy integers are read as the ints they hold
    got, want = getattr(table3_10, read)(np.int64(2), np.uint8(1)), getattr(table3_10, read)(2, 1)
    assert np.array_equal(got, want) if read == "entry_draws" else got == want
    if read == "estimate":
        assert [type(d) for d in got.dims] == [int, int]


def test_full_table_pool_samples_every_block_once(monkeypatch):
    # the full table of a fresh pool decomposes every entry in one pass, so
    # no block is sampled again when it reads the other entries
    K, N = 3, 20_000
    calls = collections.Counter()
    sample = mimo._draw_rows

    def counting(m, n, seed, block_index, rows):
        calls[block_index] += 1
        return sample(m, n, seed, block_index, rows)

    monkeypatch.setattr(mimo, "_draw_rows", counting)
    table = CapacityTable.from_pool(SamplePool(K, N, 4), 10.0)
    assert calls == {b: 1 for b in range(mimo._num_blocks(N))}
    assert table.pool.coefficients.keys() == set(_entries(K))
    monkeypatch.undo()
    twice = CapacityTable.from_pool(SamplePool.build(K, N, seed=4), 10.0)
    assert _bits(*table.means.ravel(), *table.std_errors.ravel()) == _bits(
        *twice.means.ravel(), *twice.std_errors.ravel())


def test_table_cache_reuses_tables(pool3):
    cache = TableCache(pool3)
    a = cache.at(2.0)
    b = cache.at(2.0)
    c = cache.at(4.0)
    assert a is b and a is not c
    assert c.mean(3, 3) > a.mean(3, 3)


def test_negative_snr_rejected(pool3):
    with pytest.raises(ValueError, match="snr"):
        CapacityTable.from_pool(pool3, -1.0)


@pytest.mark.parametrize("snr", [math.nan, math.inf])
def test_non_finite_snr_rejected(pool3, snr):
    with pytest.raises(ValueError, match="snr"):
        CapacityTable.from_pool(pool3, snr)


def test_keep_per_draw_false_drops_draw_storage(pool3):
    t = CapacityTable.from_pool(pool3, 1.0, keep_per_draw=False)
    assert t.per_draw is None
    # means must be identical to the draw-keeping construction
    full = CapacityTable.from_pool(pool3, 1.0)
    assert np.array_equal(t.means, full.means)
    assert full.per_draw is None  # no table stores a per-draw copy


# ------------------------------------------------ per-draw values on demand


def test_entry_draws_reproduce_means_and_errors_bitwise(table3_1):
    K = table3_1.max_dim
    for m in range(K + 1):
        for n in range(K + 1):
            mean, se = _stream_stats(table3_1.entry_draws(m, n))
            assert (mean, se) == (table3_1.means[m, n], table3_1.std_errors[m, n])


def test_entry_draws_are_memoized_read_only_columns():
    # no table keeps a column: entry_draws hands out the pool's read-only
    # one, and the pool memoizes the columns it computes, at most three; the
    # pool is this test's own, since tables over one pool share its columns
    pool = SamplePool.build(3, 20_000, seed=11)
    cache = TableCache(pool)
    table = cache.lower(3.0)
    col = pool.column(3.0, 2, 3)
    assert pool.column(3.0, 2, 3) is col
    assert pool.column(3.0, 3, 2) is col  # mirrored entries share one column
    assert not col.flags.writeable
    with pytest.raises(ValueError):
        col[0] = 0.0
    fresh = table.entry_draws(3, 2)
    assert fresh is col and np.array_equal(fresh, col)
    assert not fresh.flags.writeable
    with pytest.raises(ValueError):
        fresh[0] = 0.0
    assert not table.entry_draws(0, 2).flags.writeable
    for m in range(4):
        for n in range(4):
            if m and n:
                column = pool.column(3.0, m, n)
                assert np.array_equal(column, table.entry_draws(m, n)), (m, n)
    # the first column (lower's (3, 3)) and the two most recently used
    assert list(pool._columns) == [(3.0, 3, 3), (3.0, 3, 1), (3.0, 3, 2)]
    N = pool.num_samples
    assert not any(
        isinstance(v, np.ndarray) and v.shape == (N,) for v in vars(table).values()
    )


def _count_passes(mp, pool, calls):
    """Record in ``calls`` the (m, n, snr) of every log1p pass over an entry
    of ``pool``: every ``mimo._logdet_column`` call."""
    logdet_column = mimo._logdet_column

    def counting(coefficients, snr):
        calls.append((*next(e for e, c in pool.coefficients.items() if c is coefficients), snr))
        return logdet_column(coefficients, snr)

    mp.setattr(mimo, "_logdet_column", counting)


def test_table_cache_keeps_the_first_and_the_two_most_recent_columns():
    # the pool holds the columns of every table over it, the cache's too
    pool = SamplePool.build(2, 5_000, seed=9)
    cache = TableCache(pool)
    calls = []

    with pytest.MonkeyPatch.context() as mp:
        _count_passes(mp, pool, calls)
        for s in (1.0, 2.0, 3.0, 4.0):
            cache.lower(s)  # one pass each, which the pool keeps as a column
        assert list(pool._columns) == [(1.0, 2, 2), (3.0, 2, 2), (4.0, 2, 2)]
        assert len(calls) == 4
        first, third = pool.column(1.0, 2, 2), pool.column(3.0, 2, 2)
        assert len(calls) == 4  # both still held: no pass
        again = pool.column(2.0, 2, 2)  # dropped: computed again
        assert calls[4:] == [(2, 2, 2.0)]
        assert list(pool._columns) == [(1.0, 2, 2), (3.0, 2, 2), (2.0, 2, 2)]
        pool.column(2.0, 1, 1)  # an entry lower never computed
        assert calls[5:] == [(1, 1, 2.0)]
        assert list(pool._columns) == [(1.0, 2, 2), (2.0, 2, 2), (2.0, 1, 1)]
    for (s, m, n), col in [((1.0, 2, 2), first), ((3.0, 2, 2), third), ((2.0, 2, 2), again)]:
        assert np.array_equal(col, cache.lower(s).entry_draws(m, n)), s
    assert math.isnan(cache.lower(2.0).std_errors[1, 1])  # columns leave the means alone


# ------------------------------------------------- coefficient table kernel


def _cholesky_window_average(draws, m, n, snr):
    """Average of gram_logdet over every m x n and n x m cyclic window,
    enumerated without the rotation-class shortcut of the table."""
    K = draws.shape[-1]
    vals = []
    for a, b in sorted({(m, n), (n, m)}):
        for r in range(K):
            for c in range(K):
                rows = (r + np.arange(a)) % K
                cols = (c + np.arange(b)) % K
                vals.append(gram_logdet(draws[:, rows[:, None], cols[None, :]], snr))
    return np.mean(vals, axis=0)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_per_draw_values_match_cholesky_reference(K):
    pool = SamplePool.build(K, 1_500, seed=23)
    for snr in (0.0, 0.1, 1.0, 10.0, 1000.0):
        table = CapacityTable.from_pool(pool, snr)
        for m in range(1, K + 1):
            for n in range(1, K + 1):
                ref = _cholesky_window_average(pool.draws, m, n, snr)
                err = np.max(np.abs(table.entry_draws(m, n) - ref))
                assert err <= 1e-12, (m, n, snr, err)


#: Largest per-draw difference between the eigenvalue route
#: (``oracles.spectral_logdet``) and the Cholesky ``gram_logdet`` on the
#: (K, K) window over 50 000 draws at snr 1e5: the Cholesky route's own
#: rounding, which the coefficient kernel may not exceed.
SPECTRAL_ERROR = {1: 2.9e-12, 2: 2.9e-12, 3: 1.3e-11, 4: 2.9e-11}


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_coefficient_kernel_matches_cholesky_on_every_window(K):
    # each window's log1p(snr * (e_1 + snr * (e_2 + ...))) against
    # gram_logdet of the window itself, for every window shape of every
    # entry, from snr 1e-3 to 1e5: no further from it than the eigenvalue
    # route, from which it differs by at most 1.4e-15 relative, and on the
    # (K, K) window within that route's largest difference
    N = 4_097
    pool = SamplePool(K, N, seed=60 + K)
    pool.decompose(itertools.combinations_with_replacement(range(K, 0, -1), 2))
    draws = pool.draws
    for (m, n), coefficients in pool.coefficients.items():
        windows = [w for rows, cols in mimo._window_groups(K, m, n) for w in zip(rows, cols)]
        assert coefficients.shape == (n, len(windows), N)
        for j, (rows, cols) in enumerate(windows):
            W = np.ascontiguousarray(draws[:, rows[:, None], cols[None, :]])
            for snr in np.geomspace(1e-3, 1e5, 9):
                got = mimo._logdet_column(coefficients[:, j : j + 1], snr)
                spectral, cholesky = oracles.spectral_logdet(W, snr), gram_logdet(W, snr)
                assert np.all(np.abs(got - spectral) <= 1.4e-15 * spectral), (m, n, j, snr)
                err = np.max(np.abs(got - cholesky))
                assert err <= np.max(np.abs(spectral - cholesky)) + 1.4e-15 * np.max(spectral)
                if (m, n) == (K, K):
                    assert err <= SPECTRAL_ERROR[K], (snr, err)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
def test_gram_coefficients_do_not_depend_on_the_batch_length(shape):
    # a draw's coefficients are the same floats whatever else shares its
    # call: batches of 1 to 9000 draws, taken at the start and at the end
    # of one 20 000-draw call (across the 8192-row mark where numpy's
    # complex multiply changes route), and draws spread over it one by one
    N = 20_000
    z = np.random.default_rng(sum(shape)).standard_normal((N, *shape, 2))
    draws = z.view(complex)[..., 0] * np.sqrt(0.5)
    whole = mimo._gram_coefficients(draws)
    for size in (1, 7, 4096, 8191, 8192, 9000):
        for lo in (0, N - size):
            part = mimo._gram_coefficients(draws[lo : lo + size])
            assert np.array_equal(part, whole[:, lo : lo + size]), (shape, size, lo)
    for i in range(0, N, 97):
        one = mimo._gram_coefficients(draws[i : i + 1])
        assert np.array_equal(one, whole[:, i : i + 1]), (shape, i)


def test_tables_reuse_the_pool_decomposition(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    pool = SamplePool.build(3, 5_000, seed=2)
    decompositions = len(calls)
    assert decompositions > 0  # the 3 x 3 window goes through eigvalsh
    cache = TableCache(pool)
    for snr in np.geomspace(0.01, 100.0, 12):
        cache.at(snr)
    assert len(calls) == decompositions


def _entries(K: int) -> list[tuple[int, int]]:
    """Every table entry (m, n) with K >= m >= n >= 1."""
    return [(m, n) for m in range(1, K + 1) for n in range(1, m + 1)]


def test_pool_is_identical_for_any_worker_count():
    # entries are decomposed on first read, under the pool's threads
    a = SamplePool.build(3, 9_000, seed=4, workers=1)
    b = SamplePool.build(3, 9_000, seed=4, workers=3)
    assert np.array_equal(a.draws, b.draws)
    for pool in (a, b):
        CapacityTable.from_pool(pool, 1.0)
    assert a.coefficients.keys() == set(_entries(3))
    assert a.coefficients.keys() == b.coefficients.keys()
    for key, coefficients in a.coefficients.items():
        assert np.array_equal(coefficients, b.coefficients[key]), key


def _monotonicity_snrs():
    """Dense snr grid with close pairs: 0, a geometric spread, and each of
    1, 10 and the degraded snrs 10 / (1 + q) of default_q_grid(32) next to
    the float just above it."""
    anchors = [1.0, 10.0] + [10.0 / (1.0 + q) for q in default_q_grid(32)]
    close = [np.nextafter(s, np.inf) for s in anchors]
    spread = np.geomspace(1e-3, 1e3, 48)
    return sorted({0.0, 1.0 + 2e-16, *anchors, *close, *map(float, spread)})


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_tables_nondecreasing_in_snr_on_every_draw(K):
    # the exact (no tolerance) property the optimizer's pruning bound rests on
    snrs = _monotonicity_snrs()
    assert len(snrs) >= 70
    cache = TableCache(SamplePool.build(K, 2_000, seed=20 + K))
    tables = [cache.at(s) for s in snrs]
    for lo, hi in zip(tables, tables[1:]):
        assert lo.snr < hi.snr
        assert np.all(hi.means >= lo.means), (K, lo.snr, hi.snr)
        for m in range(1, K + 1):
            for n in range(1, m + 1):
                assert np.all(hi.entry_draws(m, n) >= lo.entry_draws(m, n)), (
                    K, m, n, lo.snr, hi.snr
                )


def test_pool_draws_are_regenerated_not_stored():
    pool = SamplePool.build(2, 5_000, seed=6)
    assert "draws" not in {f.name for f in dataclasses.fields(pool)}
    blocks = [sample_channel_block(2, 2, 6, b) for b in range(2)]
    expected = np.concatenate(blocks)[:5_000]
    draws = pool.draws
    assert np.array_equal(draws, expected)
    assert not draws.flags.writeable
    assert draws is not pool.draws


def _bits(*values) -> list[str]:
    return [float(v).hex() for v in values]


# K = 4 stops at 4097 draws: its coefficients at 50 000 draws take about 100 MB
@pytest.mark.parametrize(
    "K, N",
    [(K, N) for K in (1, 2, 3, 4) for N in (1, 4095, 4096, 4097, 50_000)
     if (K, N) != (4, 50_000)],
)
def test_one_pass_kernel_equals_per_block_column_bitwise(K, N):
    # from_pool evaluates each entry over all N draws at once, and
    # _stream_stats sums every full block in one call; both must give the
    # floats of the per-block column and the per-chunk reduction
    pool = SamplePool.build(K, N, seed=30 + K)
    pool.decompose(_entries(K))
    kinds = {c.shape[1] == 1 for c in pool.coefficients.values()}
    assert kinds == ({True} if K == 1 else {True, False})  # single-window, averaged
    for snr in (0.0, 1e-3, 10.0, 1e5):
        table = CapacityTable.from_pool(pool, snr)
        for m, n in pool.coefficients:
            column = oracles.entry_column_per_block(pool, m, n, snr)
            expected = oracles.stream_stats_per_chunk(column)
            assert np.array_equal(table.entry_draws(m, n), column), (m, n, snr)
            assert _bits(*_stream_stats(column)) == _bits(*expected), (m, n, snr)
            assert _bits(table.means[m, n], table.std_errors[m, n]) == _bits(*expected)


@pytest.mark.parametrize(
    "K, N",
    [(K, N) for K in (1, 2, 3, 4) for N in (1, 4095, 4096, 4097, 50_000)
     if (K, N) != (4, 50_000)],
)
def test_streamed_entry_kernel_equals_its_column_and_the_per_block_kernel_bitwise(K, N):
    # SamplePool.column evaluates the entry over all N draws, and an entry's
    # statistics reduce that column; they are those of the kernel evaluated
    # on each block as a new array, reduced chunk by chunk, for
    # single-window and averaged entries alike
    pool = SamplePool.build(K, N, seed=50 + K)
    pool.decompose(_entries(K))
    cache = TableCache(pool)
    for snr in (0.0, 1e-3, 10.0, 1e5):
        table = cache.lower(snr)
        for m, n in pool.coefficients:
            table.make_exact([(m, n)])
            stats = table.means[m, n], table.std_errors[m, n]
            column = pool.column(snr, m, n)
            assert table.entry_draws(m, n) is column  # the one the stats reduced
            expected_column = oracles.entry_column_per_block(pool, m, n, snr)
            assert np.array_equal(column, expected_column)
            assert _bits(*_stream_stats(column)) == _bits(*stats), (m, n, snr)
            expected = oracles.stream_stats_per_chunk(expected_column)
            assert _bits(*stats) == _bits(*expected), (m, n, snr)


@pytest.mark.parametrize("N", [2, 4095, 4097, 50_000])
def test_std_error_is_shift_invariant(N):
    # squares are taken about the first block's mean, so a constant added
    # to a column moves its standard error only by the rounding of the
    # shifted values; squares about zero lost eps * (c / spread)^2
    column = CapacityTable.from_pool(SamplePool.build(2, N, seed=80), 10.0).entry_draws(2, 2)
    _, se = _stream_stats(column)
    for c in (-1e5, -4366.0, -1.0, 1e-3, 1.0, 1e3, 1e5):
        shifted = _stream_stats(column + c)[1]
        assert abs(shifted - se) <= 1e-9 * se, (c, shifted, se)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4095, 4096, 4097]),
    seed=st.integers(0, 2**32 - 1),
    loc=st.floats(-1e4, 1e4),
    scale=st.floats(0.0, 1e3),
    law=st.sampled_from(["normal", "exponential", "two-valued"]),
)
def test_stream_stats_match_the_fsum_oracle(n, seed, loc, scale, law):
    # around the block boundary, and on one or two draws, the streamed mean
    # is the fsum mean to the rounding of its chunk sums, and the error the
    # oracle's centred one; one draw has no spread and reads 0.0
    rng = np.random.default_rng(seed)
    draws = {"normal": rng.standard_normal, "exponential": rng.standard_exponential,
             "two-valued": lambda size: rng.integers(0, 2, size).astype(float)}[law](n)
    column = loc + scale * draws
    mean, se = _stream_stats(column)
    top = float(np.max(np.abs(column)))
    assert abs(mean - math.fsum(column.tolist()) / n) <= 1e-14 * top, (mean, top)
    if n == 1:
        assert se == 0.0
    else:
        want = oracles.centred_std_error(column)
        assert math.isclose(se, want, rel_tol=1e-9, abs_tol=1e-14 * top), (se, want)


UPPER_SNRS = [float(s) for s in np.geomspace(1e-3, 1e5, 9)]


@pytest.mark.parametrize("N", [1, 5_000])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_table_cache_upper_bounds_every_entry_mean(K, N, no_full_table):
    # the chord over the known C(K, K) means bounds C(K, K), and so every
    # entry mean (entries grow with each dimension), at every snr between
    pool = SamplePool.build(K, N, seed=40 + K)
    exact = TableCache(pool)
    for s0, s1 in itertools.combinations(UPPER_SNRS, 2):
        snrs = [s0 * (s1 / s0) ** t for t in (0.1, 0.5, 0.9)]
        exact_means = [exact.at(s).means for s in snrs]
        cache = TableCache(pool)
        with no_full_table():
            low, high = cache.lower(s0).means[K, K], cache.lower(s1).means[K, K]
            for s, means in zip(snrs, exact_means):
                bound = cache.chord(s)
                assert np.all(bound >= means), (s0, s1, s)
                # no looser than the mean above or the per-eigenvalue shift bound
                tighter = min(high, low + K * math.log(s / s0))
                assert bound <= tighter * (1 + 1e-12), (s0, s1, s)
            assert cache.chord(s0) == low and cache.chord(s1) == high
            assert cache.chord(s0 / 2) == low  # no known mean below
            assert cache.chord(2 * s1) == math.inf  # none above
        assert cache._lower.keys() == {s0, s1}  # the chord computes nothing


@pytest.mark.parametrize("N", [1, 4097, 20_000])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_lower_table_bounds_every_entry_from_below(K, N):
    # the certificate's premise: on pool-built tables,
    # C(m, n) >= (mn / K^2) C(K, K) - 1e-9 max(1, C(K, K)) for every entry
    # mean, and for every entry on every draw
    for seed in (1, 2, 3):
        pool = SamplePool.build(K, N, seed=seed)
        cache = TableCache(pool)
        for snr in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
            full = CapacityTable.from_pool(pool, snr)
            assert np.all(cache.lower(snr).means <= full.means), (seed, snr)
            kk = full.entry_draws(K, K)
            for m, n in itertools.product(range(1, K + 1), repeat=2):
                floor = mimo._entry_floor(m * n, K, kk)
                assert np.all(full.entry_draws(m, n) >= floor), (seed, snr, m, n)


def test_lower_computes_each_entry_once(no_full_table):
    pool = SamplePool.build(2, 3_000, seed=7)
    cache = TableCache(pool)
    calls = []

    with no_full_table(), pytest.MonkeyPatch.context() as mp:
        _count_passes(mp, pool, calls)
        table = cache.lower(4.0)
        assert cache.lower(4.0) is table and calls == [(2, 2, 4.0)]
        # the one pass is the (2, 2) column, which the pool keeps
        kk = pool.column(4.0, 2, 2)
        assert calls == [(2, 2, 4.0)]
        assert cache.lower(4.0).make_exact([(2, 2), (0, 2), (2, 0)]) == 0
        assert cache.lower(4.0).make_exact([(1, 2), (2, 1)]) == 1
        assert cache.lower(4.0).make_exact([(2, 1)]) == 0
        assert calls[1:] == [(2, 1, 4.0)]
    built = CapacityTable.from_pool(pool, 4.0)
    for dims in ((2, 2), (2, 1), (1, 2)):
        assert _bits(table.means[dims], table.std_errors[dims]) == _bits(
            built.means[dims], built.std_errors[dims])
    assert table.means[1, 1] < built.means[1, 1] and math.isnan(table.std_errors[1, 1])
    assert not table.means[0].any() and not table.means[:, 0].any()
    # per-draw columns come from the pool whatever the table's means
    assert np.array_equal(table.entry_draws(1, 1), built.entry_draws(1, 1))
    assert np.array_equal(kk, built.entry_draws(2, 2))
    with pytest.raises(ValueError, match="snr"):
        cache.lower(math.nan)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("read", ["std_error", "estimate", "at", "std_errors"])
def test_a_lazily_reduced_kk_error_is_the_eager_one_bitwise(K, read):
    # lower reduces only C(K, K)'s mean; its standard error is reduced on
    # the first read, from the column the pool keeps or, for the snr whose
    # column it dropped (10), from a new one that it does not keep, and is
    # bitwise the direct estimator's, which reduces both from one column
    N, seed, snrs = 5_000, 70 + K, (0.1, 10.0, 1e3, 1e5)
    pool = SamplePool.build(K, N, seed)
    cache = TableCache(pool)
    tables = {s: cache.lower(s) for s in snrs}
    kept = list(pool._columns)
    assert kept == [(s, K, K) for s in (0.1, 1e3, 1e5)]
    for s, table in tables.items():
        assert np.argwhere(table._exact & np.isnan(table._errors)).tolist() == [[K, K]], s
        if read == "at":
            assert cache.at(s) is table and not np.isnan(table._errors).any()
            got = table.means[K, K], table._errors[K, K]
        elif read == "std_errors":
            got = table.means[K, K], table.std_errors[K, K]
        elif read == "estimate":
            est = table.estimate(K, K)
            got = est.mean, est.std_error
        else:
            got = table.mean(K, K), table.std_error(K, K)
        want = estimate_ergodic_capacity(K, K, s, N, seed)
        assert _bits(*got) == _bits(want.mean, want.std_error), (s, read)
        assert _bits(*got) == _bits(*_stream_stats(pool._read_column(s, K, K)))
        if read == "at":
            for m, n in _entries(K):
                stats = _stream_stats(pool._read_column(s, m, n))
                assert _bits(table.means[m, n], table.std_errors[m, n]) == _bits(*stats)
    assert list(pool._columns) == kept  # reading an error keeps no column


def test_each_entry_is_decomposed_once(monkeypatch):
    # a build decomposes (K, K) alone; every other entry is decomposed when
    # a table first reads it, by one _gram_coefficients call per window
    # shape and block, whichever reader comes first and however many follow
    K, N = 3, 5_000
    calls = collections.Counter()
    gram_coefficients = mimo._gram_coefficients

    def counting(channels):
        calls[channels.shape[-2:]] += 1
        return gram_coefficients(channels)

    monkeypatch.setattr(mimo, "_gram_coefficients", counting)
    pool = SamplePool.build(K, N, seed=5)
    blocks = mimo._num_blocks(N)
    assert calls == {(K, K): blocks} and pool.coefficients.keys() == {(K, K)}
    cache = TableCache(pool)
    cache.lower(1.0)
    cache.lower(2.0)
    assert calls == {(K, K): blocks}
    cache.lower(1.0).make_exact([(2, 1)])
    cache.lower(2.0).make_exact([(1, 2), (2, 2)])
    assert calls == {(2, 1): blocks, (1, 2): blocks, (2, 2): blocks, (K, K): blocks}
    cache.lower(4.0).entry_draws(1, 3)
    cache.at(1.0)
    cache.at(2.0).entry_draws(1, 1)
    CapacityTable.from_pool(pool, 3.0)
    assert calls == {shape: blocks for shape in itertools.product(range(1, K + 1), repeat=2)}
    assert pool.coefficients.keys() == set(_entries(K))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_pool_spectra_equal_the_per_window_loop(K):
    # each window shape's windows go through one _gram_coefficients call;
    # the minors of two-row windows then round differently in a few
    # determinants, by at most 1e-15 relative, where a call stacks more than
    # 8191 of them (numpy's complex multiply changes route)
    N, seed = 9_000, 50 + K
    pool = SamplePool.build(K, N, seed, workers=2)
    pool.decompose(_entries(K))
    reference = oracles.pool_coefficients_per_window(K, N, seed)
    assert pool.coefficients.keys() == reference.keys()
    for (m, n), coefficients in pool.coefficients.items():
        expected = reference[(m, n)]
        assert coefficients.shape == expected.shape, (m, n)
        if n != 2 or K <= 2:
            assert np.array_equal(coefficients, expected), (m, n)
        else:
            assert np.all(np.abs(coefficients - expected) <= 1e-15 * expected), (m, n)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_sample_channel_block_scales_the_normals_in_place(K):
    for m, n, block in ((K, K, 0), (K, 1, 1), (1, K, 2)):
        z = mimo._block_rng(3, block).standard_normal((mimo.BLOCK_SIZE, m, n, 2))
        expected = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
        got = sample_channel_block(m, n, 3, block)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.array_equal(got.view(float), expected.view(float))


@pytest.mark.parametrize("dtype", [float, complex])
def test_row_sum_is_np_sum_bitwise(dtype):
    rng = np.random.default_rng(8)
    for k in range(1, 10):
        x = rng.standard_normal((3_000, 3, k, 2)).view(complex)[..., 0]
        x = x if dtype is complex else x.real.copy()
        strided = np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
        for layout in (x, strided):
            assert np.array_equal(mimo._row_sum(layout), np.sum(layout, axis=-1)), (k, dtype)


BAD_POOL_ARGS = [
    ((2.0, 100, 0, 1), "max_dim"),
    ((True, 100, 0, 1), "max_dim"),
    ((0, 100, 0, 1), "max_dim"),
    ((2, True, 0, 1), "num_samples"),
    ((2, 100.0, 0, 1), "num_samples"),
    ((2, 0, 0, 1), "num_samples"),
    ((2, 100, 1.5, 1), "seed"),
    ((2, 100, False, 1), "seed"),
    ((2, 100, -1, 1), "seed"),
    ((2, 100, 0, 0), "workers"),
    ((2, 100, 0, -3), "workers"),
    ((2, 100, 0, 2.5), "workers"),
    ((2, 100, 0, True), "workers"),
]


@pytest.mark.parametrize("args, name", BAD_POOL_ARGS)
def test_pool_builders_refuse_bad_integers_before_any_work(monkeypatch, args, name):
    def no_sampling(*a, **kw):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(mimo, "_draw_rows", no_sampling)
    K, N, seed, workers = args
    with pytest.raises(ValueError, match=name):
        SamplePool.build(K, N, seed, workers=workers)
    # so is a pool constructed directly, before a table reads a draw (a zero
    # sample count would divide by zero in the reduction)
    with pytest.raises(ValueError, match=name):
        TableCache(SamplePool(K, N, seed, workers)).lower(10.0)


def test_pool_builders_take_numpy_integers():
    a = SamplePool.build(np.int64(2), np.int32(300), np.uint8(3))
    b = SamplePool.build(2, 300, 3)
    assert a.key == b.key and all(type(v) is int for v in a.key)
    assert all(np.array_equal(a.coefficients[e], b.coefficients[e]) for e in b.coefficients)
