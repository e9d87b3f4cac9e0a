"""Independent oracles the test suite checks the package against.

The analytic oracles are derived from classical results about complex
Wishart matrices, not from the package's own Monte Carlo machinery, so
agreement is evidence and not circularity.  The per-block oracles at the end
are earlier forms of package kernels, kept as bitwise references for the
faster forms that replaced them.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import integrate, linalg, special

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


def entry_column_per_block(pool, m: int, n: int, snr: float) -> np.ndarray:
    """Per-draw values of table entry (m, n), m, n >= 1, block by block
    into one N-length column: the table kernel before it reduced blocks
    without forming the column.  A bitwise reference, with the per-block
    arithmetic written out: the windows' log1p terms summed column by
    column for a single window, weighted by a matrix product otherwise."""
    from relaycap.mimo import _block_bounds, _num_blocks

    eigenvalues, weights = pool.spectra[(max(m, n), min(m, n))]
    N = pool.num_samples
    column = np.empty(N)
    for b in range(_num_blocks(N)):
        lo, hi = _block_bounds(b, N)
        terms = np.log1p(snr * eigenvalues[lo:hi])
        if weights is None:
            values = terms[..., 0]
            for i in range(1, terms.shape[-1]):
                values = values + terms[..., i]
        else:
            values = terms @ weights
        column[lo:hi] = values
    return column


def stream_stats_per_chunk(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-draw column, each BLOCK_SIZE chunk
    summed by its own np.sum and the partials combined with math.fsum: the
    reduction before it summed every full chunk in one reshaped call.  A
    bitwise reference."""
    from relaycap.mimo import _block_bounds, _num_blocks

    n = len(values)
    chunks = [values[slice(*_block_bounds(b, n))] for b in range(_num_blocks(n))]
    mean = math.fsum(float(np.sum(c)) for c in chunks) / n
    if n == 1:
        return mean, 0.0
    total_sq = math.fsum(float(np.sum(c * c)) for c in chunks)
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def pool_spectra_per_window(max_dim: int, num_samples: int, seed: int,
                            hop_index: int = 0) -> dict:
    """Gram eigenvalues of every table entry's cyclic windows, one
    ``_gram_spectrum`` call per window and block: the pool build before it
    gathered a window shape's windows into one call.  A reference for
    ``SamplePool.spectra``'s eigenvalue arrays, with the windows listed one
    by one in the order of their columns."""
    from relaycap.mimo import (
        _block_bounds, _gram_spectrum, _num_blocks, sample_channel_block,
    )

    K, N = max_dim, num_samples
    spectra = {}
    for m in range(1, K + 1):
        for n in range(1, m + 1):
            windows = []
            for a, b in [(m, n)] if m == n else [(m, n), (n, m)]:
                for r in [0] if a == K else range(K):
                    for c in [0] if b == K else range(K):
                        windows.append(((r + np.arange(a)) % K, (c + np.arange(b)) % K))
            spectra[(m, n)] = np.empty((N, n * len(windows)))
            for blk in range(_num_blocks(N)):
                lo, hi = _block_bounds(blk, N)
                block = sample_channel_block(K, K, seed, blk, hop_index)[: hi - lo]
                for j, (rows, cols) in enumerate(windows):
                    if len(rows) == K and len(cols) == K:
                        W = block
                    else:
                        W = np.ascontiguousarray(block[:, rows[:, None], cols[None, :]])
                    spectra[(m, n)][lo:hi, j * n : (j + 1) * n] = _gram_spectrum(W)
    return spectra
