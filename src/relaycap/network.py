"""Layered Gaussian relay networks and their cut values.

A network has a K-antenna source, D - 1 layers of K single-antenna relays,
and a K-antenna destination, with i.i.d. Rayleigh fading between consecutive
layers only.  A vertex cut is summarized by a profile (M_1, ..., M_{D-1})
counting the relays of each layer on the source side; its value is the sum of
the ergodic capacities of the per-hop blocks crossing the cut,

    sum_i C(K - M_{i+1}, M_i)      with M_0 = K, M_D = 0,

optionally minus a per-node penalty for counted relays.  Capacities are read
from a CapacityTable so that all cuts share the same channel draws; on a
lower-bound table (``TableCache.lower``) every function here reads the full
table's values, and ``min_cut_dp`` computes only the entries it needs.

A network has at most two distinct hop tables: a body table read by hops
1..D-1 (quantizing relays) and a last-hop table, which differs only when the
destination does not quantize.  Both read one pool: ``_hop_tables`` refuses
a ``last`` whose ``SamplePool.key`` differs from the body's, so every cut's
standard error comes from its per-draw values.  Functions take the body
``table`` and a keyword-only ``last`` (None: the final hop reads ``table``
too), so their cost does not grow with the number of hops beyond one pass
over the profile: the min-cut dynamic program reads a (K+1) x (K+1) edge
matrix computed once per call, and every other reader of a cut's blocks
reads one description of them, ``_cut_terms``: each distinct block crossed,
with its table and the number of hops crossing it, found per run of equal
relay counts, not per hop.  A cut's per-draw column is its blocks' whole
columns, each added once times that number, in ``_cut_column``; the
penalty, a constant of the cut, lives only in its value (``_cut_sum``,
``min_cut_dp``).  Every column is ``CapacityTable.entry_draws``, the
pool's own (``SamplePool.column``; tables store no per-draw copy), for
``cut_value`` and for ``rates``' gap errors alike.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import add

import numpy as np

from .mimo import (
    CapacityTable,
    SamplePool,
    _positive_int,
    _real,
    _record_dict,
    _stream_stats,
    gram_logdet,
)

#: Cap on the brute-force cut enumeration, (K+1)**(D-1) profiles.
BRUTE_FORCE_LIMIT = 10**6

#: Largest worst case a draw-level property check passes with.
_PROPERTY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NetworkParams:
    """Shape and operating point of a layered relay network.

    Attributes:
        relays_per_layer: K, antennas at source and destination and relays in
            each intermediate layer.
        num_hops: D, number of hops from source to destination; D - 1 relay
            layers.
        power: Per-node transmit power, stored as a float.
        noise_var: Receiver noise variance, stored as a float.

    Every rate computed from a network is in nats; only the CLI converts.
    """

    relays_per_layer: int
    num_hops: int
    power: float = 10.0
    noise_var: float = 1.0

    def __post_init__(self):
        for name in ("relays_per_layer", "num_hops"):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))
        for name, sign in (("power", "nonnegative"), ("noise_var", "positive")):
            object.__setattr__(self, name, _real(name, getattr(self, name), sign))

    @property
    def snr(self) -> float:
        return self.power / self.noise_var


@dataclass(frozen=True)
class CutProfile:
    """Relay counts on the source side of a cut, one per relay layer."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        if counts != tuple(self.counts):
            raise ValueError(f"profile counts must be integers, got {self.counts}")
        object.__setattr__(self, "counts", counts)
        if counts and min(counts) < 0:
            raise ValueError(f"profile counts must be nonnegative, got {counts}")

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


@dataclass(frozen=True)
class CutValue:
    """Value of one cut profile.

    Attributes:
        value: Sum of crossing-block capacities minus penalties, nats.
        std_error: Standard error of the cut's per-draw column, its blocks'
            columns summed without the penalty, over the one pool every hop
            table reads (common random numbers).
        profile: The evaluated profile.
        per_block: ((m, n), capacity) for each hop's crossing block.
    """

    value: float
    std_error: float
    profile: CutProfile
    per_block: tuple[tuple[tuple[int, int], float], ...]

    def as_dict(self) -> dict:
        return {
            "profile": list(self.profile.counts),
            "value": self.value,
            "std_error": self.std_error,
            "per_block": [
                {"dims": list(dims), "capacity": cap} for dims, cap in self.per_block
            ],
        }


def _hop_tables(
    table: CapacityTable, last: CapacityTable | None, params: NetworkParams, node_penalty: float
) -> tuple[CapacityTable, CapacityTable, float]:
    """Resolve (body, last) hop tables and ``node_penalty`` as a float, with
    the checks every cut function shares; hop D reads ``last``, which must
    share the body's pool key."""
    node_penalty = _real("node_penalty", node_penalty)
    if isinstance(table, (list, tuple)):
        raise TypeError(
            "pass one body table; give a distinct final-hop table as last=, "
            "not a per-hop list"
        )
    last = table if last is None else last
    if last.pool.key != table.pool.key:
        raise ValueError(
            f"the final-hop table's pool key {last.pool.key} differs from the body "
            f"table's {table.pool.key}: a network's tables must share one pool"
        )
    if table.max_dim < params.relays_per_layer:
        raise ValueError(
            f"table max_dim {table.max_dim} is smaller than relays_per_layer "
            f"{params.relays_per_layer}"
        )
    return table, last, node_penalty


def _check_profile(profile: CutProfile, params: NetworkParams) -> None:
    K, D = params.relays_per_layer, params.num_hops
    if len(profile) != D - 1:
        raise ValueError(
            f"profile length {len(profile)} does not match num_hops {D} "
            f"(expected {D - 1} relay layers)"
        )
    if max(profile.counts, default=0) > K:
        raise ValueError(
            f"profile counts {profile.counts} exceed relays_per_layer {K}"
        )


def _block_dims(counts: tuple[int, ...], params: NetworkParams) -> list[tuple[int, int]]:
    K = params.relays_per_layer
    bounds = [K, *counts, 0]
    return [(K - bounds[i + 1], bounds[i]) for i in range(params.num_hops)]


def _cut_terms(
    counts: tuple[int, ...], params: NetworkParams, body: CapacityTable, last: CapacityTable
) -> list[tuple[CapacityTable, tuple[int, int], int]]:
    """(table, block, multiplicity) of every distinct block (m, n) that the
    cut ``counts`` crosses, zero dimensions included (those blocks are exact
    zeros): the blocks of hops 1..D-1 on ``body`` in order of first
    crossing, each with the number of those hops that cross it, and hop D's
    block, counted among them when ``last`` is ``body``, else last, on
    ``last``.  Python work grows with the number of runs of equal counts,
    not with D: a run of M_{i+1} = ... = M_j = v after M_i = u crosses
    (K - v, u) once and (K - v, v) j - i - 1 times."""
    K = params.relays_per_layer
    blocks = Counter()
    cur = K  # M_0
    for nxt, run in itertools.groupby(counts):
        blocks[K - nxt, cur] += 1
        repeats = len(list(run)) - 1
        if repeats:
            blocks[K - nxt, nxt] += repeats
        cur = nxt
    if last is body:
        blocks[K, cur] += 1
    terms = [(body, dims, mult) for dims, mult in blocks.items()]
    if last is not body:
        terms.append((last, (K, cur), 1))
    return terms


def _make_exact(terms: list[tuple[CapacityTable, tuple[int, int], int]]) -> int:
    """Make exact the entries of the ``_cut_terms`` ``terms``, in one
    ``make_exact`` call per table; returns the count."""
    entries: dict[CapacityTable, list[tuple[int, int]]] = {}
    for t, dims, _ in terms:
        entries.setdefault(t, []).append(dims)
    return sum(t.make_exact(dims) for t, dims in entries.items())


def _cut_column(terms: list[tuple[CapacityTable, tuple[int, int], int]]) -> np.ndarray:
    """Per-draw column of a cut's blocks, without its penalty, a new array:
    ``entry_draws`` times multiplicity of each ``_cut_terms`` term with no
    zero dimension, summed in order from the first (a cut always has one).
    Columns are >= +0.0, also at snr -0.0, so that is the sum from zeros
    bitwise."""
    columns = (mult * t.entry_draws(*dims) for t, dims, mult in terms if dims[0] and dims[1])
    values = next(columns)
    for term in columns:
        values += term
    return values


def _cut_sum(
    counts: tuple[int, ...], params: NetworkParams, body: CapacityTable,
    last: CapacityTable, node_penalty: float,
) -> tuple[float, tuple[tuple[tuple[int, int], float], ...]]:
    """(value, per_block) of the cut with source-side relay counts ``counts``.

    Each body hop contributes C(K - M_{i+1}, M_i) - node_penalty * M_{i+1},
    hop D its capacity on ``last``; the sum runs from the last hop to the
    first.  ``cut_value`` and ``brute_force_min_cut`` both evaluate cuts
    here; ``min_cut_dp`` forms the same floats from its own edge matrix,
    so DP == brute force checks two independent implementations.
    """
    D = params.num_hops
    per_block = tuple(
        ((m, n), float((last if i == D - 1 else body).means[m, n]))
        for i, (m, n) in enumerate(_block_dims(counts, params))
    )
    total = 0.0
    for i in reversed(range(D)):
        contrib = per_block[i][1]
        if i < D - 1:
            contrib -= node_penalty * counts[i]
        total = contrib + total
    return total, per_block


def cut_profile_draws(
    profile: CutProfile,
    params: NetworkParams,
    table: CapacityTable,
    node_penalty: float = 0.0,
    *,
    last: CapacityTable | None = None,
) -> np.ndarray:
    """Per-draw cut values over the tables' shared pool of draws.

    Each distinct nonzero crossing block of the body hops contributes its
    per-draw column once, times the number of hops it crosses; blocks with
    a zero dimension are exact zeros and are skipped.  ``_cut_column``
    adds the columns, then node_penalty per counted relay is subtracted.
    """
    _check_profile(profile, params)
    body, last, node_penalty = _hop_tables(table, last, params, node_penalty)
    terms = _cut_terms(profile.counts, params, body, last)
    values = _cut_column(terms)
    if node_penalty:  # a gap error's zero penalty would cost a pass that changes no bit
        values -= node_penalty * sum(profile.counts)
    return values


def cut_value(
    profile: CutProfile,
    params: NetworkParams,
    table: CapacityTable,
    node_penalty: float = 0.0,
    *,
    last: CapacityTable | None = None,
) -> CutValue:
    """Evaluate one cut profile against a capacity table.

    Args:
        profile: Relay counts on the source side, length num_hops - 1.
        params: Network shape.
        table: CapacityTable read by hops 1..D-1, and by hop D unless
            ``last`` is given.
        node_penalty: Rate subtracted per counted relay, nats.
        last: Table of the final hop when it differs from the body, as for
            an unquantized destination; over a pool with the body's key.

    Returns:
        CutValue.  Its value is the ``_cut_sum`` that brute force minimizes,
        so it equals both min-cut routines' value at their argmin bitwise.
    """
    _check_profile(profile, params)
    body, last, node_penalty = _hop_tables(table, last, params, node_penalty)
    terms = _cut_terms(profile.counts, params, body, last)
    # the blocks' columns first: the pool keeps them, and make_exact then
    # reduces the entries it computes from those columns
    column = _cut_column(terms)
    _make_exact(terms)
    total, per_block = _cut_sum(profile.counts, params, body, last, node_penalty)
    return CutValue(total, _stream_stats(column)[1], profile, per_block)


def min_cut_dp(
    params: NetworkParams,
    table: CapacityTable,
    node_penalty: float = 0.0,
    *,
    last: CapacityTable | None = None,
) -> tuple[float, CutProfile]:
    """Minimize the penalized cut value over all profiles by dynamic program.

    The objective is sum_i C(K - M_{i+1}, M_i) - node_penalty * sum_i M_i
    with M_0 = K and M_D = 0.  Hops 1..D-1 share the body table, so their
    (K+1)^2 edge weights C(K - nxt, cur) - node_penalty * nxt are computed
    once per call; hop D reads ``last`` (default ``table``) without
    penalty.  The backward pass and the reconstruction then take
    O(D * (K+1)^2) float operations on that matrix.  Every edge weight is
    the float ``_cut_sum`` adds for that hop and sums are associated
    exactly as there, so the value is brute force's on the full tables
    bitwise (float addition is monotone), though no code is shared with it.
    The profile follows suffix minima, smallest next state first: the
    lexicographically smallest argmin, unless rounding ties profiles whose
    exact sums differ; brute force may then return another.

    On any table the result is the full table's.  A lower-bound table's
    inexact entries hold floors, so every cut is worth at least as much on
    the full table (float addition is monotone); once the argmin crosses
    only exact entries, its value is equal there and ties break the same
    way.  Until then the entries it crosses are computed and the DP runs
    again.  Under per_cut_exact with a quantizing destination the argmin
    is all relays on the source side, so only (K, K) is computed, unless
    the penalty is within about D * 1e-9 * C(K, K) of zero.

    Returns:
        (minimum value in nats, argmin profile).
    """
    body, last, node_penalty = _hop_tables(table, last, params, node_penalty)
    while True:
        value, profile = _dp_pass(params, body, last, node_penalty)
        if _make_exact(_cut_terms(profile.counts, params, body, last)) == 0:
            return value, profile


def _dp_pass(
    params: NetworkParams, body: CapacityTable, last: CapacityTable, node_penalty: float
) -> tuple[float, CutProfile]:
    """``min_cut_dp``'s one run on the tables' ``means`` as they stand."""
    K, D = params.relays_per_layer, params.num_hops
    body_means = body.means[: K + 1, : K + 1].tolist()
    # edges[cur][nxt]: body hop from M_i = cur to M_{i+1} = nxt
    edges = [
        [body_means[K - nxt][cur] - node_penalty * nxt for nxt in range(K + 1)]
        for cur in range(K + 1)
    ]
    last_edges = last.means[K, : K + 1].tolist()  # hop D, M_D = 0

    # backward pass: g[layer][m] = min remaining value from state m at layer;
    # layer 0 only uses m = K, and the extra states cost (K+1)^2 additions
    g = [None] * (D + 1)
    g[D] = [0.0]
    g[D - 1] = [w + 0.0 for w in last_edges]  # + 0.0 as brute force adds it
    for layer in range(D - 2, -1, -1):
        nxt_g = g[layer + 1]
        g[layer] = [min(map(add, row, nxt_g)) for row in edges]

    # forward reconstruction: the smallest next state whose suffix attains
    # the minimum, at each layer
    profile = []
    cur = K
    for layer in range(D - 1):
        target, nxt_g, row = g[layer][cur], g[layer + 1], edges[cur]
        for nxt in range(K + 1):
            if row[nxt] + nxt_g[nxt] == target:
                break
        else:  # pragma: no cover - reconstruction always finds its own minimum
            raise RuntimeError("min-cut reconstruction failed")
        profile.append(nxt)
        cur = nxt
    return g[0][K], CutProfile(tuple(profile))


def brute_force_min_cut(
    params: NetworkParams,
    table: CapacityTable,
    node_penalty: float = 0.0,
    *,
    last: CapacityTable | None = None,
) -> tuple[float, CutProfile]:
    """Exhaustive minimum over all (K+1)**(D-1) profiles.

    Each profile is valued by ``_cut_sum``, the sum ``cut_value`` reports,
    on tables whose entries are all made exact first: the full-table
    reference.  Float ties keep the lexicographically smallest profile.
    The dynamic program associates its sums the same way, so the two
    values agree bitwise (the profiles can differ; see ``min_cut_dp``).

    Guard: raises ValueError when the enumeration would exceed
    BRUTE_FORCE_LIMIT profiles.
    """
    K, D = params.relays_per_layer, params.num_hops
    count = (K + 1) ** (D - 1)
    if count > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force would enumerate {count} profiles "
            f"(limit {BRUTE_FORCE_LIMIT}); use min_cut_dp"
        )
    body, last, node_penalty = _hop_tables(table, last, params, node_penalty)
    for t in (body, last):
        t.make_exact(itertools.product(range(K + 1), repeat=2))
    best, counts = min(
        (_cut_sum(counts, params, body, last, node_penalty)[0], counts)
        for counts in itertools.product(range(K + 1), repeat=D - 1)
    )
    return best, CutProfile(counts)


@dataclass(frozen=True)
class PropertyReport:
    """Draw-level structural checks of a pool's draws at one snr.

    All quantities are worst cases over every draw of the pool and every
    admissible dimension triple up to ``max_dim``, the pool's:

      * symmetry_error: |logdet via receive-side Gram of W - same of
        W^dagger| for x by y corners W of the pooled draws,
      * monotonicity_violation: max of C_draw(x, y) - C_draw(z, y) for x < z
        (growing a dimension must not lose rate),
      * split_violation: max of C_draw(K, y) - C_draw(x, y) - C_draw(rest, y)
        for complementary row blocks (the split must not beat the whole).

    Negative violations are reported as observed (no clamping); the pool
    passes when every worst case is at most ``tolerance``, a constant.
    """

    symmetry_error: float
    monotonicity_violation: float
    split_violation: float
    num_draws: int
    max_dim: int
    snr: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return _record_dict(self)


def check_capacity_properties(pool: SamplePool, snr: float) -> PropertyReport:
    """Verify symmetry, monotonicity and split superadditivity per draw.

    Checks run on the pool's raw draws at ``snr``: each corner submatrix
    through the Cholesky reference ``gram_logdet`` on the Gram side it picks
    (rows when x <= y) and, for symmetry, on the other.  No table is built.
    """
    snr = _real("snr", snr, "nonnegative")
    K = pool.max_dim
    P = pool.draws

    tops = {}
    for x in range(K + 1):
        for y in range(1, K + 1):
            tops[(x, y)] = gram_logdet(P[:, :x, :y], snr)

    sym_err = 0.0
    for x in range(1, K + 1):
        for y in range(1, K + 1):
            other = gram_logdet(P[:, :x, :y], snr, side="cols" if x <= y else "rows")
            sym_err = max(sym_err, float(np.max(np.abs(tops[(x, y)] - other))))

    mono = -math.inf
    for y in range(1, K + 1):
        for x in range(K):
            for z in range(x + 1, K + 1):
                mono = max(mono, float(np.max(tops[(x, y)] - tops[(z, y)])))

    split = -math.inf
    for y in range(1, K + 1):
        whole = tops[(K, y)]
        for x in range(K + 1):
            bottom = gram_logdet(P[:, x:, :y], snr)
            split = max(split, float(np.max(whole - tops[(x, y)] - bottom)))

    tol = _PROPERTY_TOLERANCE
    passed = sym_err <= tol and mono <= tol and split <= tol
    return PropertyReport(sym_err, mono, split, pool.num_samples, K, snr, tol, passed)
