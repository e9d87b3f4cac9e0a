"""Achievable rates under relay quantization, and gap-to-capacity reports.

Relays quantize their observations at a resolution set by the ratio q of
quantization noise to thermal noise.  Quantization degrades every quantized
hop to snr / (1 + q) and charges a rate penalty of log(1 + 1/q) nats per
relay on the source side of a cut.  The achievable rate of the scheme is the
minimum penalized cut value; coarse quantization (q growing with network
depth) keeps the total penalty bounded while barely degrading the hops,
which is what turns the gap to the cutset bound from linear in depth into
logarithmic.

Every rate here, report fields included, is in nats; the CLI is the one
place that converts to another base.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .mimo import (
    CapacityTable,
    SamplePool,
    TableCache,
    _choice,
    _positive_int,
    _real,
    _record_dict,
    _stream_stats,
    rate_scale,
)
from .network import CutProfile, NetworkParams, cut_profile_draws, cut_value, min_cut_dp

logger = logging.getLogger(__name__)

_POLICIES = ("fixed_1", "depth_matched", "optimized")
_MODES = ("per_cut_exact", "split_bound")
_POLICY_ALIASES = {"d_minus_1": "depth_matched"}

#: Output keys of the report fields not named by their field.
_REPORT_KEYS = {"relays_per_layer": "K", "num_hops": "D", "noise_ratio": "q"}

#: Local step-halving rounds of the quantization search.
_REFINE_ROUNDS = 3


@dataclass(frozen=True)
class QuantizationScheme:
    """Relay quantization at noise ratio q (quantization over thermal noise).

    Attributes:
        noise_ratio: q > 0, a float.  Small q means fine quantization (high
            penalty per relay), large q coarse quantization (low penalty,
            degraded snr).
        destination_quantizes: Whether the destination front end is also
            quantized.  When False the final hop runs at full snr and needs
            its own capacity table.
    """

    noise_ratio: float
    destination_quantizes: bool = True

    def __post_init__(self):
        object.__setattr__(self, "noise_ratio", _real("noise_ratio", self.noise_ratio, "positive"))

    @property
    def penalty_per_relay(self) -> float:
        """Rate charged per source-side relay, log(1 + 1/q) nats."""
        return math.log1p(1.0 / self.noise_ratio)

    @classmethod
    def depth_matched(
        cls, num_hops: int, destination_quantizes: bool = True
    ) -> "QuantizationScheme":
        """q = num_hops - 1, the coarseness that balances penalty against
        degradation; a single-hop network falls back to q = 1."""
        return cls(_depth_matched_ratio(num_hops), destination_quantizes)


def _depth_matched_ratio(num_hops: int) -> float:
    return float(max(num_hops - 1, 1))


def degraded_snr(params: NetworkParams, scheme: QuantizationScheme) -> float:
    """snr seen across a quantized hop: snr / (1 + q)."""
    return params.snr / (1.0 + scheme.noise_ratio)


def penalty_bound(params: NetworkParams, scheme: QuantizationScheme) -> float:
    """Worst-case total quantization penalty over any cut, in nats.

    Every cut has at most K * (num_hops - 1) relays on its source side, each
    charged log(1 + 1/q).  At q = num_hops - 1 this is at most K nats
    regardless of depth.  Zero for a single hop.
    """
    K = params.relays_per_layer
    return K * (params.num_hops - 1) * scheme.penalty_per_relay


@dataclass(frozen=True)
class NncBound:
    """Achievable-rate bound for one quantization scheme, in nats.

    Attributes:
        value: The reported rate, max(raw_value, 0).
        raw_value: The penalized min cut before clamping; may be negative
            when quantization penalties overwhelm a degraded network.
        std_error: Standard error of the minimizing cut's value.
        profile: Minimizing cut profile.
        mode: "per_cut_exact" (penalty charged per cut inside the
            minimization) or "split_bound" (worst-case penalty subtracted
            from the unpenalized min cut; never larger).
    """

    value: float
    raw_value: float
    std_error: float
    profile: CutProfile
    mode: str
    noise_ratio: float
    destination_quantizes: bool
    num_samples: int

    @property
    def was_clamped(self) -> bool:
        return self.raw_value < 0.0


def _penalized_min_cut(
    params: NetworkParams,
    scheme: QuantizationScheme,
    table: CapacityTable,
    mode: str,
    *,
    last: CapacityTable | None = None,
) -> tuple[float, CutProfile]:
    """(unclamped achievable rate under ``mode``, minimizing profile); hop D
    reads ``last`` if given.  The penalty enters the rate only:
    "per_cut_exact" charges it per cut inside the minimization, and
    "split_bound" subtracts ``penalty_bound`` from the unpenalized min cut.
    Callers check ``mode`` on entry."""
    if mode == "per_cut_exact":
        return min_cut_dp(params, table, node_penalty=scheme.penalty_per_relay, last=last)
    min_cut, profile = min_cut_dp(params, table, last=last)
    return min_cut - penalty_bound(params, scheme), profile


def _clamped_rate(raw: float, scheme: QuantizationScheme) -> float:
    """The reported achievable rate max(raw, 0); a clamp is logged."""
    if raw < 0.0:
        logger.info(
            "achievable rate clamped to zero (raw %.6g nats at q=%g)",
            raw, scheme.noise_ratio,
        )
    return max(raw, 0.0)


def nnc_lower_bound(
    params: NetworkParams,
    scheme: QuantizationScheme,
    table_degraded: CapacityTable,
    mode: str = "per_cut_exact",
    table_full: CapacityTable | None = None,
) -> NncBound:
    """Achievable rate of quantize-and-forward relaying at ratio q.

    Args:
        params: Network shape and operating point.
        scheme: Quantization scheme.
        table_degraded: Capacity table at degraded_snr(params, scheme).
        mode: "per_cut_exact" minimizes cut capacity minus the cut's own
            penalty; "split_bound" subtracts the depth-worst penalty from
            the unpenalized min cut.  split_bound <= per_cut_exact always.
        table_full: Table at the undegraded snr; required only when the
            destination does not quantize, and over ``table_degraded``'s
            pool (equal ``SamplePool.key``).

    Returns:
        NncBound.  A negative penalized min cut is clamped to zero in
        ``value`` (a scheme can always fall silent) and kept in
        ``raw_value``; clamping is logged.
    """
    mode = _choice("mode", mode, _MODES)
    if not scheme.destination_quantizes and table_full is None:
        raise ValueError(
            "destination_quantizes=False needs table_full for the final hop"
        )
    last = None if scheme.destination_quantizes else table_full
    raw, profile = _penalized_min_cut(params, scheme, table_degraded, mode, last=last)
    se = cut_value(profile, params, table_degraded, last=last).std_error
    return NncBound(
        value=_clamped_rate(raw, scheme),
        raw_value=raw,
        std_error=se,
        profile=profile,
        mode=mode,
        noise_ratio=scheme.noise_ratio,
        destination_quantizes=scheme.destination_quantizes,
        num_samples=table_degraded.num_samples,
    )


def depth_gap_bound(relays_per_layer: int, num_hops: int) -> float:
    """Guaranteed gap to the cutset bound at depth-matched quantization,
    K (log D + 1) nats: the logarithmic-in-depth guarantee."""
    K, D = relays_per_layer, num_hops
    return K * math.log(D) + K


def prior_cf_gap_bound(relays_per_layer: int, num_hops: int) -> float:
    """Linear-in-depth gap guarantee of earlier compress-and-forward
    analyses, 1.3 * K * D.  Base-agnostic by convention."""
    return 1.3 * relays_per_layer * num_hops


def alignment_gap_bound(relays_per_layer: int, log_base: str = "nats") -> float:
    """Depth-independent gap guarantee of interference-alignment schemes,
    7 K^3 + 5 K log K with the log in the configured base.  It keeps its
    ``log_base``, unlike the other bounds, because only its log term
    converts: a caller cannot scale the whole value."""
    K = relays_per_layer
    return 7.0 * K**3 + 5.0 * K * math.log(K) * rate_scale(log_base)


@dataclass(frozen=True)
class RateReport:
    """Upper and lower capacity bounds and gap guarantees for one network.

    Rates and gap guarantees are in nats.  ``lower`` is the clamped rate and
    ``gap = upper - lower``; ``raw_lower`` keeps the unclamped value.
    ``std_error`` is the common-random-number standard error of the gap.
    """

    relays_per_layer: int
    num_hops: int
    snr: float
    noise_ratio: float
    upper: float
    lower: float
    gap: float
    thm_bound: float
    prior_cf_bound: float
    alignment_bound: float
    std_error: float
    raw_lower: float
    was_clamped: bool
    mode: str
    num_samples: int
    seed: int

    def as_dict(self) -> dict:
        return _record_dict(self, _REPORT_KEYS)


def _gap_std_error(
    full: np.ndarray, params: NetworkParams, profile: CutProfile,
    table: CapacityTable, last: CapacityTable | None = None,
) -> float:
    """Standard error of ``full``, the per-draw column of C(K, K) at full
    snr, minus the blocks of the cut ``profile`` on ``table`` (hop D on
    ``last`` if given), over the one pool of both tables.

    The cut's column is ``cut_profile_draws`` without the penalty, a
    constant that cannot move the error; C(K, K) minus it is formed in place
    and reduced by ``_stream_stats``.
    """
    cut = cut_profile_draws(profile, params, table, last=last)
    return _stream_stats(np.subtract(full, cut, out=cut))[1]


def _scheme_bounds(
    params: NetworkParams, scheme: QuantizationScheme, cache: TableCache, mode: str,
    full: np.ndarray,
) -> tuple[float, float]:
    """(unclamped penalized min cut under ``mode``, ``_gap_std_error`` of
    C(K, K) at full snr, whose per-draw column is ``full``, minus the
    argmin's blocks) on the lower-bound tables of the cache's one pool, so
    the error is a common-random-number error of the gap.  Hop D reads the
    full-snr table when the destination does not quantize."""
    table = cache.lower(degraded_snr(params, scheme))
    last = None if scheme.destination_quantizes else cache.lower(params.snr)
    raw, profile = _penalized_min_cut(params, scheme, table, mode, last=last)
    return raw, _gap_std_error(full, params, profile, table, last)


def rate_report(
    params: NetworkParams,
    scheme: QuantizationScheme | None = None,
    num_samples: int = 10**5,
    seed: int = 0,
    mode: str = "per_cut_exact",
    workers: int = 1,
) -> RateReport:
    """Estimate upper bound, achievable rate, gap and gap guarantees, in nats.

    The cutset upper bound C(K, K) at full snr and the achievable rate at
    degraded snr are evaluated over one shared pool of draws, so the
    reported gap is a common-random-number difference with a small standard
    error.

    Args:
        params: Network shape and operating point.
        scheme: Quantization scheme; defaults to depth-matched coarseness
            (q = num_hops - 1).
        num_samples: Draws in the shared pool.
        seed: Pool seed.
        mode: Bound mode, as in nnc_lower_bound.
        workers: Threads for pool generation; output independent of it.
    """
    mode = _choice("mode", mode, _MODES)
    if scheme is None:
        scheme = QuantizationScheme.depth_matched(params.num_hops)
    K, D = params.relays_per_layer, params.num_hops
    cache = TableCache(SamplePool.build(K, num_samples, seed, workers=workers))
    upper = cache.lower(params.snr).estimate(K, K)
    raw, se = _scheme_bounds(params, scheme, cache, mode, cache.pool.column(params.snr, K, K))
    lower = _clamped_rate(raw, scheme)
    if raw < 0.0:
        # the reported rate is the constant 0: only the upper bound varies
        se = upper.std_error
    return RateReport(
        relays_per_layer=K,
        num_hops=D,
        snr=params.snr,
        noise_ratio=scheme.noise_ratio,
        upper=upper.mean,
        lower=lower,
        gap=upper.mean - lower,
        thm_bound=depth_gap_bound(K, D),
        prior_cf_bound=prior_cf_gap_bound(K, D),
        alignment_bound=alignment_gap_bound(K),
        std_error=se,
        raw_lower=raw,
        was_clamped=raw < 0.0,
        mode=mode,
        num_samples=num_samples,
        seed=seed,
    )


@dataclass(frozen=True)
class OptimizeResult:
    """Best quantization ratio found and the trace of evaluated candidates."""

    noise_ratio: float
    rate: float
    evaluations: tuple[tuple[float, float], ...]
    num_samples: int
    seed: int
    mode: str


def default_q_grid(num_hops: int) -> list[float]:
    """Geometric candidate grid from 0.25 to 8 times the depth-matched
    ratio; always contains 1 and that ratio, max(num_hops - 1, 1)."""
    anchor = _depth_matched_ratio(num_hops)
    qs = {1.0, anchor}
    qs.update(float(x) for x in np.geomspace(0.25, 8.0 * anchor, 9))
    return sorted(qs)


def _candidate_grid(q_grid: list[float]) -> list[float]:
    """Sorted distinct candidate ratios, each a positive real."""
    grid = sorted({_real("q_grid", q, "positive") for q in q_grid})
    if not grid:
        raise ValueError("q_grid must be nonempty")
    return grid


def _raw_rate_bound(
    params: NetworkParams, scheme: QuantizationScheme, cache: TableCache
) -> float:
    """An upper bound on the raw rate of ``scheme`` (quantizing destination)
    in either mode, from the (K, K) means the cache has computed: the cut
    with all relays on the source side crosses only hop D's K x K block
    and charges K (D - 1) penalties, and the min cut is at most its value,
    C(K, K) at snr / (1 + q), itself at most ``cache.chord`` there.  Up to
    rounding: the scan keeps a relative margin of 1e-9."""
    return cache.chord(degraded_snr(params, scheme)) - penalty_bound(params, scheme)


def _optimize_on_cache(
    params: NetworkParams,
    cache: TableCache,
    q_grid: list[float],
    mode: str,
    scheme_of: Callable[[float], QuantizationScheme] | None = None,
) -> tuple[float, float, list[tuple[float, float]]]:
    """Grid scan and refinement of ``optimize_quantization`` on ``cache``.
    ``scheme_of(q)`` gives each ratio's scheme: a ``functools.cache`` of
    ``QuantizationScheme``, built once per ratio, that a caller's scans may
    share, or this scan's own if None.

    A candidate q scores ``_clamped_rate`` of its penalized min cut at
    snr / (1 + q), taken on a lower-bound table (``cache.lower``, see
    ``min_cut_dp``).  The incumbent starts at (q_grid[0], 0): scores are
    >= 0 and the grid ascends.  The grid scan keeps the maximum score, ties
    going to the smaller ratio; the refinement then moves only on a
    strictly higher score.

    C(K, K) at full snr is computed first, so every degraded snr has a
    chord bound.  Each candidate's raw rate is then bounded from above by
    the all-source-side cut of ``_raw_rate_bound``:

        UB = chord(snr / (1 + q)) - K (D - 1) log(1 + 1/q),

    and the grid is scanned best-first, in descending order of UB, ties in
    ascending q.  With tol = 1e-9 * max(1, incumbent), a candidate's UB,
    taken again when it is scored, decides:

      * UB < -tol: the score is exactly 0, known without a min cut;
      * UB < incumbent - tol: the candidate cannot beat the incumbent and is
        not scored; the scan goes on, since a later candidate's bound may
        be higher;
      * otherwise the candidate is scored.

    Refinement candidates are decided the same way.  The bound cannot change
    the chosen ratio or its score: they are bitwise those of scoring every
    candidate in ascending order.

    Returns:
        (best ratio, its score, [(q, score)] in scan order) for the
        candidates scored, by a min cut or by a negative bound; candidates
        that cannot beat the incumbent are not listed.
    """
    scores: dict[float, float] = {}  # insertion order is scan order
    scheme_of = scheme_of or functools.cache(QuantizationScheme)
    cache.lower(params.snr)  # every degraded snr now has a chord bound

    def score(q: float, best: tuple[float, float]) -> float | None:
        """q's score, or None when its bound shows that it cannot beat
        ``best``."""
        if q in scores:
            return scores[q]
        scheme = scheme_of(q)
        ub = _raw_rate_bound(params, scheme, cache)
        tol = 1e-9 * max(1.0, best[1])
        if ub < -tol:
            scores[q] = 0.0  # raw <= UB < 0: it clamps
        elif ub < best[1] - tol:
            return None
        else:
            table = cache.lower(degraded_snr(params, scheme))
            raw, _ = _penalized_min_cut(params, scheme, table, mode)
            scores[q] = _clamped_rate(raw, scheme)
        return scores[q]

    best = (q_grid[0], 0.0)
    bounds = {q: _raw_rate_bound(params, scheme_of(q), cache) for q in q_grid}
    for q in sorted(q_grid, key=lambda q: (-bounds[q], q)):
        s = score(q, best)
        if s is not None and (s, -q) > (best[1], -best[0]):
            best = (q, s)

    i = q_grid.index(best[0])
    gaps = []
    if i > 0:
        gaps.append(q_grid[i] - q_grid[i - 1])
    if i < len(q_grid) - 1:
        gaps.append(q_grid[i + 1] - q_grid[i])
    step = (max(gaps) if gaps else best[0]) / 2.0
    for _ in range(_REFINE_ROUNDS):
        for cand in (best[0] - step, best[0] + step):
            s = score(cand, best) if cand > 0 else None
            if s is not None and s > best[1]:
                best = (cand, s)
        step /= 2.0
    return best[0], best[1], list(scores.items())


def optimize_quantization(
    params: NetworkParams,
    q_grid: list[float] | None = None,
    num_samples: int = 10**4,
    seed: int = 0,
    mode: str = "per_cut_exact",
    workers: int = 1,
) -> OptimizeResult:
    """Pick the quantization ratio maximizing the achievable rate (nats).

    Scans the grid best-first on an upper bound of each candidate's rate,
    then runs ``_REFINE_ROUNDS`` rounds of step halving around the
    incumbent (initial step: half the larger grid gap at the incumbent);
    see ``_optimize_on_cache``.  Ties prefer the smaller ratio.  Every
    candidate is scored on the same pool of draws, so the returned rate is
    by construction at least the rate at every grid point, including q = 1
    and the depth-matched ratio.  ``evaluations`` lists the candidates the
    scan scored, by a min cut or by a negative bound, in scan order; a
    candidate whose bound shows that it cannot win is not listed.

    Args:
        params: Network shape.
        q_grid: Candidate ratios, all positive; defaults to
            ``default_q_grid(params.num_hops)``.
        num_samples: Draws in the shared pool.
        seed: Pool seed.
        mode: Bound mode to optimize.
        workers: Threads for this call's pool generation; output
            independent of it.
    """
    mode = _choice("mode", mode, _MODES)
    grid = _candidate_grid(
        q_grid if q_grid is not None else default_q_grid(params.num_hops)
    )
    pool = SamplePool.build(params.relays_per_layer, num_samples, seed, workers=workers)
    cache = TableCache(pool)
    best_q, best, evals = _optimize_on_cache(params, cache, grid, mode)
    return OptimizeResult(best_q, best, tuple(evals), num_samples, seed, mode)


@dataclass(frozen=True)
class TrendPoint:
    """Gap to the cutset bound at one depth.

    ``lower`` and ``gap`` are unclamped: the gap keeps its depth scaling
    even in regimes where the reported achievable rate would clamp at zero
    (fine quantization in deep networks).  Rates in nats.
    """

    num_hops: int
    noise_ratio: float
    upper: float
    lower: float
    gap: float
    std_error: float
    snr: float
    relays_per_layer: int
    policy: str

    def as_dict(self) -> dict:
        return _record_dict(self, _REPORT_KEYS)


def resolve_policy(name: str) -> str:
    key = name.lower()
    key = _POLICY_ALIASES.get(key, key)
    if key not in _POLICIES:
        raise ValueError(
            f"unknown q policy {name!r}; choose from {_POLICIES} "
            f"(alias d_minus_1 = depth_matched)"
        )
    return key


def gap_trend(
    relays_per_layer: int,
    depths: list[int],
    snr: float = 10.0,
    q_policy: str = "depth_matched",
    num_samples: int = 10**4,
    seed: int = 0,
    mode: str = "per_cut_exact",
    q_grid: list[float] | None = None,
    cache: TableCache | None = None,
) -> list[TrendPoint]:
    """Gap to the cutset bound (nats) as a function of depth under a q policy.

    One pool of draws is shared across every depth and policy evaluation, so
    trend points are directly comparable (common random numbers).  Policies:

      * fixed_1: q = 1 at every depth; the penalized cut decays linearly in
        depth.
      * depth_matched: q = D - 1 (q = 1 at D = 1); the gap grows only
        logarithmically in depth.
      * optimized: q from optimize_quantization's scan on ``q_grid``, or
        on ``default_q_grid(D)`` when it is None, over this call's cache
        (see ``_optimize_on_cache``): each candidate is bounded from above
        by the all-source-side cut, C(K, K) at its snr, itself bounded by
        the chord in log snr between the (K, K) means already computed
        nearest below and above it, minus the K (D - 1) penalties.  A
        bound below zero scores a candidate 0, and a bound below the
        incumbent skips it, both without a min cut.  The grid is scored
        highest bound first.

    Every min cut is taken on lower-bound tables and certified there by
    ``min_cut_dp``, so no table is built: at each snr the sweep computes
    C(K, K), and another entry only where a min cut's argmin crosses it.
    The full-snr C(K, K) mean and per-draw column are read once per call
    and handed to every row.

    ``cache`` lets several calls share one pool and its tables; it replaces
    the pool build, and its pool's key must be
    ``(relays_per_layer, num_samples, seed)``.  Threads come from the cache's
    pool (``SamplePool.build(..., workers=)``); without a cache, one thread.

    Returns one TrendPoint per depth, in the given order.

    Raises:
        ValueError: before any pool is built, if ``relays_per_layer`` or a
            depth is not a positive integer, ``snr`` is not a finite
            nonnegative real, ``mode`` or ``q_policy`` is unknown, a ratio of
            ``q_grid`` is not a positive real, or ``q_grid`` is given to a
            policy that would ignore it.
    """
    K = _positive_int("relays_per_layer", relays_per_layer)
    depths = [_positive_int("depths", d) for d in depths]
    snr = _real("snr", snr, "nonnegative")
    policy = resolve_policy(q_policy)
    mode = _choice("mode", mode, _MODES)
    if q_grid is not None and policy != "optimized":
        raise ValueError(f"q_grid is read only by the optimized q policy, not {policy}")
    grid = None if q_grid is None else _candidate_grid(q_grid)
    if cache is None:
        cache = TableCache(SamplePool.build(K, num_samples, seed))
    elif cache.pool.key != (K, num_samples, seed):
        raise ValueError(
            f"cache pool (K, num_samples, seed) = {cache.pool.key} "
            f"does not match the requested {(K, num_samples, seed)}"
        )
    upper, full = cache.lower(snr).mean(K, K), cache.pool.column(snr, K, K)
    scheme_of = functools.cache(QuantizationScheme)  # one per ratio in this call
    points = []
    for D in depths:
        params = NetworkParams(K, D, power=snr, noise_var=1.0)
        if policy == "fixed_1":
            q = 1.0
        elif policy == "depth_matched":
            q = _depth_matched_ratio(D)
        else:
            q, _, _ = _optimize_on_cache(
                params, cache, grid if grid is not None else default_q_grid(D), mode, scheme_of
            )
        raw, se = _scheme_bounds(params, scheme_of(q), cache, mode, full)
        points.append(
            TrendPoint(
                num_hops=D,
                noise_ratio=q,
                upper=upper,
                lower=raw,
                gap=upper - raw,
                std_error=se,
                snr=snr,
                relays_per_layer=K,
                policy=policy,
            )
        )
    return points
