"""Single-antenna line networks: source, a chain of relays, destination.

With fixed link gains everything is closed form, which makes the line the
cleanest illustration of the quantization trade-off: the capacity is the
worst link, and a quantizing relay chain loses at most log(D) + 1 nats at
depth-matched coarseness.  Rates are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mimo import _real
from .rates import QuantizationScheme

_MODES = ("simple_cuts", "all_cuts")


@dataclass(frozen=True)
class LineNetwork:
    """A chain of num_hops links with fixed gains.

    Attributes:
        gains: Per-link squared magnitudes |h_i|^2 (complex amplitudes are
            accepted and reduced to squared magnitudes), in hop order from
            the source.
        power: Per-node transmit power.
        noise_var: Receiver noise variance.
    """

    gains: tuple[float, ...]
    power: float = 10.0
    noise_var: float = 1.0

    def __post_init__(self):
        raw = np.asarray(self.gains)
        if raw.size == 0:
            raise ValueError("a line network needs at least one link")
        if np.iscomplexobj(raw):
            powers = np.abs(raw) ** 2
        else:
            powers = [_real("gains", g) for g in self.gains]
            if min(powers) < 0:
                raise ValueError("real gains are squared magnitudes, must be >= 0")
        if not np.all(np.isfinite(powers)):
            raise ValueError("link gains must be finite")
        object.__setattr__(self, "gains", tuple(float(p) for p in powers))
        for name in ("power", "noise_var"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.power < 0:
            raise ValueError(f"power must be nonnegative, got {self.power}")
        if not self.noise_var > 0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")

    @property
    def num_hops(self) -> int:
        return len(self.gains)

    @property
    def snr(self) -> float:
        return self.power / self.noise_var


def line_capacity(line: LineNetwork) -> float:
    """Cutset capacity of the line: its weakest link, min_i log(1 + g_i snr)."""
    snr = line.snr
    return min(math.log1p(g * snr) for g in line.gains)


def _link_rate(line: LineNetwork, hop: int, noise_ratio: float, quantized: bool) -> float:
    snr = line.snr
    if quantized:
        snr = snr / (1.0 + noise_ratio)
    return math.log1p(line.gains[hop] * snr)


def line_nnc_rate(
    line: LineNetwork,
    noise_ratio: float,
    mode: str = "simple_cuts",
    destination_quantizes: bool = True,
) -> float:
    """Achievable rate of a quantizing relay chain at noise ratio q.

    A cut is a set of nodes containing the source but not the destination;
    its value sums the capacities of links leaving the set (at quantized
    snr wherever the receiving node quantizes) minus log(1 + 1/q) per relay
    inside the set.

    Args:
        line: The network.
        noise_ratio: q > 0.
        mode: "simple_cuts" minimizes over the D prefix cuts {nodes 0..i}
            only; "all_cuts" minimizes over all 2^(D-1) node subsets by a
            two-state sweep.  all_cuts <= simple_cuts by inclusion, and for
            a chain the prefix up to a cut's last in-cut node is never worse
            than the cut itself, so the two modes agree; both are kept as a
            cross-check.
        destination_quantizes: When False the last link runs at full snr.

    Returns:
        The minimized cut value in nats; may be negative for tiny q.
    """
    penalty = QuantizationScheme(noise_ratio).penalty_per_relay
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    D = line.num_hops

    def receiver_quantizes(hop: int) -> bool:
        # the receiver of link ``hop`` is node hop+1; the destination is node D
        return hop + 1 < D or destination_quantizes

    if mode == "simple_cuts":
        best = math.inf
        for i in range(D):
            # cut {0..i}: link i crosses, relays 1..i are inside
            val = _link_rate(line, i, noise_ratio, receiver_quantizes(i)) - i * penalty
            best = min(best, val)
        return best

    # all_cuts: sweep nodes 0..D tracking whether the current node is in the
    # cut; links crossing in -> out add capacity, in-cut relays subtract the
    # penalty, and re-entering the cut is allowed (no reverse-link charge)
    in_cost, out_cost = 0.0, math.inf  # node 0 is always in the cut
    for node in range(1, D + 1):
        cross = _link_rate(line, node - 1, noise_ratio, receiver_quantizes(node - 1))
        new_out = min(in_cost + cross, out_cost)
        new_in = min(in_cost, out_cost) - penalty if node < D else math.inf
        in_cost, out_cost = new_in, new_out
    return out_cost
