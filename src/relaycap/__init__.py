"""Capacity bounds for layered Gaussian relay networks with quantizing relays.

The package estimates the cutset upper bound and quantize-and-forward
achievable rates of K x K layered Rayleigh-fading networks, and shows how the
quantization noise ratio q trades per-relay rate penalties against per-hop
snr degradation: coarse, depth-matched quantization (q = D - 1) keeps the gap
to capacity logarithmic in the number of hops D instead of linear.
"""

from .line import LineNetwork, line_capacity, line_nnc_rate
from .mimo import (
    BLOCK_SIZE,
    CapacityEstimate,
    CapacityTable,
    SamplePool,
    TableCache,
    estimate_ergodic_capacity,
    gram_logdet,
    rate_scale,
    sample_channel_block,
)
from .network import (
    CutProfile,
    CutValue,
    NetworkParams,
    PropertyReport,
    brute_force_min_cut,
    check_capacity_properties,
    cut_value,
    min_cut_dp,
)
from .rates import (
    NncBound,
    OptimizeResult,
    QuantizationScheme,
    RateReport,
    TrendPoint,
    alignment_gap_bound,
    default_q_grid,
    degraded_snr,
    depth_gap_bound,
    gap_trend,
    nnc_lower_bound,
    optimize_quantization,
    penalty_bound,
    prior_cf_gap_bound,
    rate_report,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "CapacityEstimate",
    "CapacityTable",
    "CutProfile",
    "CutValue",
    "LineNetwork",
    "NetworkParams",
    "NncBound",
    "OptimizeResult",
    "PropertyReport",
    "QuantizationScheme",
    "RateReport",
    "SamplePool",
    "TableCache",
    "TrendPoint",
    "alignment_gap_bound",
    "brute_force_min_cut",
    "check_capacity_properties",
    "cut_value",
    "default_q_grid",
    "degraded_snr",
    "depth_gap_bound",
    "estimate_ergodic_capacity",
    "gap_trend",
    "gram_logdet",
    "line_capacity",
    "line_nnc_rate",
    "min_cut_dp",
    "nnc_lower_bound",
    "optimize_quantization",
    "penalty_bound",
    "prior_cf_gap_bound",
    "rate_report",
    "rate_scale",
    "sample_channel_block",
    "__version__",
]
