"""Independent oracles the test suite checks the package against.

Everything here is derived from classical results about complex Wishart
matrices, not from the package's own Monte Carlo machinery, so agreement is
evidence and not circularity.
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
