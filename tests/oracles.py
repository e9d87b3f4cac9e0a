"""Independent oracles the test suite checks the package against.

The analytic oracles are derived from classical results about complex
Wishart matrices, not from the package's own Monte Carlo machinery, so
agreement is evidence and not circularity.  The per-block oracles at the end
are earlier forms of package kernels, kept as bitwise references for the
faster forms that replaced them.  The single-draw helpers and the node-level
cut estimator in between read the package's own streams; they check its
indexing and cut bookkeeping from another direction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, linalg, special

from relaycap import BLOCK_SIZE, CapacityEstimate, NetworkParams, gram_logdet, rate_scale
from relaycap.mimo import _block_bounds, _num_blocks, _positive_int, _stream_stats
from relaycap.rates import (
    _REFINE_ROUNDS,
    QuantizationScheme,
    _clamped_rate,
    _penalized_min_cut,
    degraded_snr,
)

logger = logging.getLogger(__name__)

#: e * E1(1): the exact 1x1 ergodic capacity at snr = 1, in nats.
SISO_SNR1 = 0.5963473623231946


def siso_capacity_oracle(snr: float) -> float:
    """Ergodic 1 x 1 capacity by quadrature, in nats.

    Integrates log(1 + snr*x) exp(-x) over x >= 0, the exact expectation for
    an exponentially distributed channel power.
    """
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if snr == 0.0:
        return 0.0
    val, err = integrate.quad(
        lambda x: math.log1p(snr * x) * math.exp(-x), 0.0, np.inf,
        epsabs=1e-10, limit=200,
    )
    if err > 1e-8:
        logger.warning("siso_capacity_oracle quadrature error %g at snr=%g", err, snr)
    return val


def siso_closed_form(snr: float) -> float:
    """1x1 ergodic capacity e^(1/snr) E1(1/snr), in nats."""
    a = 1.0 / snr
    return float(math.exp(a) * special.exp1(a))


def two_by_two_closed_form(snr: float) -> float:
    """2x2 ergodic capacity, in nats.

    Integrating the Laguerre eigenvalue density of a 2x2 complex Wishart
    matrix gives 1 - a + e^a E1(a) (2 + a^2) with a = 1/snr.
    """
    a = 1.0 / snr
    return float(1.0 - a + math.exp(a) * special.exp1(a) * (2.0 + a * a))


def wishart_capacity(m: int, n: int, snr: float) -> float:
    """Ergodic capacity of an m x n i.i.d. complex Gaussian channel, nats.

    Uses the Laguerre-polynomial expansion of the Wishart eigenvalue
    density: with p = min(m, n), d = |m - n|,

        C = sum_{k<p} k!/(k+d)! Int log(1+snr l) l^d e^-l L_k^d(l)^2 dl.
    """
    if m == 0 or n == 0 or snr == 0:
        return 0.0
    p, d = min(m, n), abs(m - n)
    total = 0.0
    for k in range(p):
        L = special.genlaguerre(k, d)
        w = math.factorial(k) / math.factorial(k + d)
        val, _ = integrate.quad(
            lambda lam: math.log1p(snr * lam)
            * lam**d
            * math.exp(-lam)
            * float(L(lam)) ** 2,
            0.0,
            np.inf,
            limit=200,
            epsabs=1e-11,
        )
        total += w * val
    return total


def block_diag_cut_mc(
    relays_per_layer: int,
    num_hops: int,
    profile: tuple[int, ...],
    snr: float,
    num_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo cut value via one whole block-diagonal matrix per draw.

    Draws independent per-hop channels with a plain numpy generator, stacks
    the crossing blocks into a single block-diagonal matrix, and evaluates
    logdet(I + snr B B^dagger) with slogdet.  Returns (mean, std_error).
    Completely independent of the package's streams, kernels and tables.
    """
    K, D = relays_per_layer, num_hops
    bounds = [K, *profile, 0]
    dims = [(K - bounds[i + 1], bounds[i]) for i in range(D)]
    rng = np.random.default_rng(seed)
    vals = np.empty(num_samples)
    for t in range(num_samples):
        blocks = []
        for m, n in dims:
            if m == 0 or n == 0:
                continue
            z = rng.standard_normal((m, n, 2))
            blocks.append((z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5))
        if not blocks:
            vals[t] = 0.0
            continue
        B = linalg.block_diag(*blocks)
        G = np.eye(B.shape[0]) + snr * (B @ B.conj().T)
        sign, ld = np.linalg.slogdet(G)
        assert sign.real > 0
        vals[t] = ld.real
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(num_samples))
    return mean, se


@dataclass(frozen=True)
class ChannelSample:
    """One channel realization.

    Attributes:
        entries: Complex matrix of fading coefficients, shape (m, n).
        hop_index: Which hop's stream the draw came from.
        draw_index: Position of the draw within that stream.
    """

    entries: np.ndarray
    hop_index: int = 0
    draw_index: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def hop_channel_block(
    m: int, n: int, seed: int, block_index: int, hop_index: int = 0
) -> np.ndarray:
    """Block ``block_index`` of hop ``hop_index``'s stream: Philox keyed by
    the SeedSequence spawn key (hop_index, block_index), its normal pairs
    taken as (re + 1j im) sqrt(1/2).  Distinct hops are independent, and
    hop 0 is the package's one stream, ``sample_channel_block``."""
    m, n = _positive_int("m", m, minimum=0), _positive_int("n", n, minimum=0)
    seed = _positive_int("seed", seed, minimum=0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(hop_index, block_index))
    z = np.random.Generator(np.random.Philox(ss)).standard_normal((BLOCK_SIZE, m, n, 2))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)


def sample_channel(
    m: int, n: int, seed: int, draw_index: int = 0, hop_index: int = 0
) -> ChannelSample:
    """Return the draw at a given index of a stream.

    The draw is located inside its enclosing block, so
    ``sample_channel(m, n, s, i)`` agrees with the i-th matrix seen by any
    block-based consumer with the same seed and hop.
    """
    if draw_index < 0:
        raise ValueError(f"draw_index must be nonnegative, got {draw_index}")
    block, offset = divmod(draw_index, BLOCK_SIZE)
    entries = hop_channel_block(m, n, seed, block, hop_index)[offset]
    return ChannelSample(entries=entries, hop_index=hop_index, draw_index=draw_index)


def logdet_capacity(
    channel: ChannelSample | np.ndarray, snr: float, log_base: str = "nats"
) -> float:
    """Instantaneous capacity of a single channel realization."""
    H = channel.entries if isinstance(channel, ChannelSample) else np.asarray(channel)
    return float(gram_logdet(H, snr)) * rate_scale(log_base)


def node_cut_value_mc(
    params: NetworkParams,
    layer_subsets: list[set[int] | frozenset[int]],
    num_samples: int,
    seed: int,
) -> CapacityEstimate:
    """Monte Carlo value of an explicit node-level cut.

    Args:
        params: Network shape; relays are indexed 0..K-1 within each layer.
        layer_subsets: For each relay layer 1..D-1, the indices of relays on
            the source side of the cut.  The source's antennas are always on
            the source side and the destination's on the other.
        num_samples: Channel draws per hop.
        seed: Seed; hop i uses stream hop_index = i, independent across hops.

    Returns:
        CapacityEstimate of the crossing-block capacity sum.  ``dims`` holds
        the total (receive, transmit) sizes across hops.
    """
    K, D = params.relays_per_layer, params.num_hops
    if len(layer_subsets) != D - 1:
        raise ValueError(
            f"expected {D - 1} relay-layer subsets, got {len(layer_subsets)}"
        )
    subsets = [frozenset(range(K))]  # source side of layer 0: all antennas
    for s in layer_subsets:
        s = frozenset(int(i) for i in s)
        if any(i < 0 or i >= K for i in s):
            raise ValueError(f"relay indices must be in 0..{K - 1}, got {sorted(s)}")
        subsets.append(s)
    subsets.append(frozenset())  # destination contributes no source-side nodes

    cols = [sorted(subsets[i]) for i in range(D)]
    rows = [sorted(set(range(K)) - subsets[i + 1]) for i in range(D)]
    num_samples = _positive_int("num_samples", num_samples)

    column = np.zeros(num_samples)
    for b in range(_num_blocks(num_samples)):
        lo, hi = _block_bounds(b, num_samples)
        for hop in range(D):
            if not rows[hop] or not cols[hop]:
                continue
            draws = hop_channel_block(K, K, seed, b, hop)[: hi - lo]
            W = draws[:, np.asarray(rows[hop])[:, None], np.asarray(cols[hop])[None, :]]
            column[lo:hi] += gram_logdet(W, params.snr)
    dims = (sum(len(r) for r in rows), sum(len(c) for c in cols))
    return CapacityEstimate(*_stream_stats(column), num_samples, dims, params.snr)


def entry_column_per_block(pool, m: int, n: int, snr: float) -> np.ndarray:
    """Per-draw values of table entry (m, n), m, n >= 1, block by block
    into one N-length column: the table kernel evaluated on each block as a
    new array.  A bitwise reference, with the per-block arithmetic written
    out: each window's determinant polynomial by Horner's rule from its
    highest coefficient, its log1p, and the windows' values added in order
    and divided by their number."""
    from relaycap.mimo import _block_bounds, _num_blocks

    coefficients = pool.coefficients[(max(m, n), min(m, n))]
    N = pool.num_samples
    column = np.empty(N)
    for b in range(_num_blocks(N)):
        lo, hi = _block_bounds(b, N)
        e = coefficients[..., lo:hi]
        t = e[-1] * snr
        for k in range(len(e) - 2, -1, -1):
            t = (t + e[k]) * snr
        terms = np.log1p(t)
        values = terms[0]
        for j in range(1, len(terms)):
            values = values + terms[j]
        column[lo:hi] = values / len(terms) if len(terms) > 1 else values
    return column


def stream_stats_per_chunk(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-draw column, each BLOCK_SIZE chunk
    summed by its own np.sum, the squares taken about the first chunk's
    mean, and the partials combined with math.fsum: the reduction before it
    summed every full chunk in one call.  A bitwise reference."""
    from relaycap.mimo import _block_bounds, _num_blocks

    n = len(values)
    chunks = [values[slice(*_block_bounds(b, n))] for b in range(_num_blocks(n))]
    c = float(np.sum(chunks[0])) / len(chunks[0])
    mean = math.fsum(float(np.sum(ch)) for ch in chunks) / n
    if n == 1:
        return mean, 0.0
    total_sq = math.fsum(float(np.sum((ch - c) * (ch - c))) for ch in chunks)
    var = max(total_sq - n * (mean - c) * (mean - c), 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def centred_std_error(values: np.ndarray) -> float:
    """Standard error of a per-draw column from math.fsum over the values
    and over their squared deviations from that mean: an accuracy
    reference, free of any shift the column carries."""
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    deviations = values - mean
    return math.sqrt(math.fsum((deviations * deviations).tolist()) / (n - 1) / n)


def spectral_logdet(channels: np.ndarray, snr: float) -> np.ndarray:
    """sum_i log1p(snr * lambda_i) over the eigenvalues of each channel's
    smaller-side Gram matrix: the table kernel before it read determinant
    coefficients.  Sides of 1 and 2 use closed forms (the larger eigenvalue
    by hypot, the smaller as the determinant, a sum of squared minors, over
    it); larger sides ``np.linalg.eigvalsh``, with the smallest eigenvalue
    of a square window taken from the determinant.  A reference for the
    coefficient kernel, which evaluates the same product."""
    H = np.asarray(channels)
    if H.shape[-2] > H.shape[-1]:
        H = np.swapaxes(H, -1, -2)
    d, k = H.shape[-2:]
    if d == 1:
        lam = np.sum(H.real**2 + H.imag**2, axis=-1)
    elif d == 2:
        r0, r1 = H[..., 0, :], H[..., 1, :]
        a = np.sum(r0.real**2 + r0.imag**2, axis=-1)
        c = np.sum(r1.real**2 + r1.imag**2, axis=-1)
        b = np.abs(np.sum(r0 * r1.conj(), axis=-1))
        det = np.zeros(a.shape)
        for j in range(k):
            for l in range(j + 1, k):
                minor = r0[..., j] * r1[..., l] - r0[..., l] * r1[..., j]
                det += minor.real**2 + minor.imag**2
        lam_max = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
        lam = np.stack([det / lam_max, lam_max], axis=-1)
    else:
        lam = np.linalg.eigvalsh(H @ np.swapaxes(H.conj(), -1, -2))
        if d == k:
            lam[..., 0] = np.abs(np.linalg.det(H)) ** 2 / np.prod(lam[..., 1:], axis=-1)
        lam = np.maximum(lam, 0.0)
    return np.sum(np.log1p(snr * lam), axis=-1)


def pool_coefficients_per_window(max_dim: int, num_samples: int, seed: int) -> dict:
    """Gram determinant coefficients of every table entry's cyclic
    windows, one ``_gram_coefficients`` call per window and block: the pool
    build before it gathered a window shape's windows into one call.  A
    reference for ``SamplePool.coefficients``, with the windows listed one
    by one in the order of their rows."""
    from relaycap.mimo import (
        _block_bounds, _gram_coefficients, _num_blocks, sample_channel_block,
    )

    K, N = max_dim, num_samples
    coefficients = {}
    for m in range(1, K + 1):
        for n in range(1, m + 1):
            windows = []
            for a, b in [(m, n)] if m == n else [(m, n), (n, m)]:
                for r in [0] if a == K else range(K):
                    for c in [0] if b == K else range(K):
                        windows.append(((r + np.arange(a)) % K, (c + np.arange(b)) % K))
            coefficients[(m, n)] = np.empty((n, len(windows), N))
            for blk in range(_num_blocks(N)):
                lo, hi = _block_bounds(blk, N)
                block = sample_channel_block(K, K, seed, blk)[: hi - lo]
                for j, (rows, cols) in enumerate(windows):
                    if len(rows) == K and len(cols) == K:
                        W = block
                    else:
                        W = np.ascontiguousarray(block[:, rows[:, None], cols[None, :]])
                    coefficients[(m, n)][:, j, lo:hi] = _gram_coefficients(W)
    return coefficients


def chord_over_known_means(cache, snr: float) -> float:
    """``TableCache.chord`` as it read the cache before it scanned the snr
    keys once: a dict of every computed (K, K) mean, then the nearest known
    snr at or above ``snr`` and the nearest strictly between 0 and ``snr``.
    A bitwise reference."""
    K = cache.pool.max_dim
    known = {s: float(t.means[K, K]) for s, t in cache._lower.items()}
    above = [s for s in known if s >= snr]
    if not above:
        return math.inf
    s1 = min(above)
    below = [s for s in known if 0.0 < s < snr]
    if s1 == snr or not below:
        return known[s1]
    s0 = max(below)
    theta = (math.log(snr) - math.log(s0)) / (math.log(s1) - math.log(s0))
    return (1.0 - theta) * known[s0] + theta * known[s1]


def reference_scan(params, cache, q_grid: list[float], mode: str):
    """``rates._optimize_on_cache`` as it scored every candidate, without
    bounds: the ascending grid ``q_grid``, then the same refinement.  Each
    candidate scores ``_clamped_rate`` of its penalized min cut on the
    lower-bound table at its snr; the incumbent starts at (q_grid[0], 0),
    the grid keeps the maximum score, ties on the smaller ratio, and the
    refinement moves only on a strictly higher score.  A bitwise reference
    for the bounded scan's (ratio, score).

    Returns:
        (best ratio, its score, [(q, score)] for every candidate scored, in
        scan order).
    """
    scores: dict[float, float] = {}

    def score(q: float) -> float:
        if q not in scores:
            scheme = QuantizationScheme(q)
            table = cache.lower(degraded_snr(params, scheme))
            scores[q] = _clamped_rate(_penalized_min_cut(params, scheme, table, mode)[0], scheme)
        return scores[q]

    best = (q_grid[0], 0.0)
    for q in q_grid:
        if score(q) > best[1]:
            best = (q, scores[q])
    i = q_grid.index(best[0])
    gaps = [q_grid[j + 1] - q_grid[j] for j in (i - 1, i) if 0 <= j < len(q_grid) - 1]
    step = (max(gaps) if gaps else best[0]) / 2.0
    for _ in range(_REFINE_ROUNDS):
        for cand in (best[0] - step, best[0] + step):
            if cand > 0 and score(cand) > best[1]:
                best = (cand, scores[cand])
        step /= 2.0
    return best[0], best[1], list(scores.items())
