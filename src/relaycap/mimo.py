"""Monte Carlo estimation of ergodic MIMO capacity under Rayleigh fast fading.

Channel entries are i.i.d. circularly symmetric complex Gaussian with unit
variance (real and imaginary parts each have variance 1/2).  The ergodic
capacity of an m x n channel at signal-to-noise ratio ``snr`` is

    E[ logdet(I + snr * H H^dagger) ]

with the expectation over H.  All rates in this module are in nats; the CLI
converts to bits on output.

Draws come from one counter-based Philox stream per seed, a block at a
time: block b is keyed by ``(seed, b)``, so pools and direct estimates
with one seed read the same draws.
Work is split into fixed-size blocks and per-block partial sums are combined
in block order, so results are bit-identical for any worker count and for
any consumer that replays the same blocks.

Estimates come from the coefficients of Gram determinants: for the Gram
matrix G of a window's smaller side, det(I + snr * G) = 1 + sum_k e_k snr^k,
where e_k, the k-th elementary symmetric function of G's eigenvalues, is
the sum of the squared k x k minors of the window (Cauchy-Binet), a sum of
nonnegative terms.  The coefficients do not depend on snr, so a
``SamplePool`` computes those of the cyclic windows of a table entry once,
when a table first reads the entry, and the entry at any snr is
log1p(snr * (e_1 + snr * (e_2 + ...))): one log1p per window and draw.
Tables keep no per-draw values; the pool keeps at most three N-length
columns for common-random-number errors.  ``gram_logdet`` (a Cholesky
factorization of I + snr * Gram) is the independent reference: the property
checks run it on the raw draws, and tests compare the coefficient path to it.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from operator import index

import numpy as np

logger = logging.getLogger(__name__)

#: Number of channel draws generated per RNG block.  Fixed so that the
#: partition of work into blocks (and hence the draws) never depends on the
#: requested sample count or worker count.
BLOCK_SIZE = 4096

_JITTER = 1e-12
_LOG2 = math.log(2.0)

_BASES = ("nats", "bits")


def rate_scale(log_base: str) -> float:
    """Multiplier taking a rate in nats to the requested base."""
    if log_base not in _BASES:
        raise ValueError(f"log_base must be one of {_BASES}, got {log_base!r}")
    return 1.0 if log_base == "nats" else 1.0 / _LOG2


def _positive_int(name: str, v, minimum: int = 1) -> int:
    """``v`` as an int of at least ``minimum``; integer types only (numpy
    ones too), no bools.  The package's one rule for integer arguments.

    Raises:
        ValueError: naming ``name`` otherwise.
    """
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    iv = index(v)
    if iv < minimum:
        kind = "positive" if minimum == 1 else f"at least {minimum}"
        raise ValueError(f"{name} must be {kind}, got {iv}")
    return iv


def _real(name: str, v) -> float:
    """``v`` as a finite Python float, so that records serialize; real types
    only (numpy ones too), no bools, else a ValueError naming ``name``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{name} must be a finite real number, got {v!r}")
    return float(v)


def _check_snr(snr: float) -> None:
    if not (math.isfinite(snr) and snr >= 0):
        raise ValueError(f"snr must be finite and nonnegative, got {snr}")


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # spawn_key (0, block_index): distinct blocks are independent; the
    # leading 0 is part of the key, and every published output depends on it
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, block_index))
    return np.random.Generator(np.random.Philox(ss))


def sample_channel_block(m: int, n: int, seed: int, block_index: int) -> np.ndarray:
    """Generate one full block of i.i.d. channel draws.

    Args:
        m: Receive dimension.
        n: Transmit dimension.
        seed: Seed of the stream.
        block_index: Which block of the stream to generate.

    Returns:
        Complex array of shape (BLOCK_SIZE, m, n) with unit-variance entries.
    """
    m, n = _positive_int("m", m, minimum=0), _positive_int("n", n, minimum=0)
    seed = _positive_int("seed", seed, minimum=0)
    return _draw_rows(m, n, seed, block_index, BLOCK_SIZE)


def _draw_rows(m: int, n: int, seed: int, block_index: int, rows: int) -> np.ndarray:
    """The first ``rows`` draws of block ``block_index``.  The generator
    fills the normals in C order, so they are bitwise that prefix of the
    full block, and a short last block draws only the rows it keeps."""
    z = _block_rng(seed, block_index).standard_normal((rows, m, n, 2))
    # scaled in place, (re, im) pairs viewed as complex: the floats of
    # (z[..., 0] + 1j * z[..., 1]) * sqrt(0.5) without its three temporaries
    z *= np.sqrt(0.5)
    return z.view(complex)[..., 0]


def gram_logdet(channels: np.ndarray, snr: float, side: str = "auto") -> np.ndarray:
    """logdet(I + snr * H H^dagger) for a batch of channel matrices, in nats.

    The determinant is evaluated through the Gram matrix of the smaller side
    (the two orderings agree by Sylvester's identity), via a Cholesky
    factorization.  A failed factorization is retried once with a small
    diagonal jitter and logged; non-finite inputs are rejected.

    Args:
        channels: Array of shape (..., m, n).
        snr: Finite, nonnegative signal-to-noise ratio.
        side: "auto" picks the smaller Gram side; "rows" forces the m x m
            receive-side Gram, "cols" the n x n transmit side.  The forced
            variants exist so consistency of the two routes can be checked.

    Returns:
        Array of shape (...,) of nonnegative rates in nats.
    """
    H = np.asarray(channels)
    if H.ndim < 2:
        raise ValueError("channels must have at least 2 dimensions")
    m, n = H.shape[-2:]
    batch_shape = H.shape[:-2]
    _check_snr(snr)
    if m == 0 or n == 0 or snr == 0.0:
        return np.zeros(batch_shape)
    if not np.isfinite(H).all():
        raise ValueError("channel matrix contains non-finite entries")

    if side == "auto":
        use_rows = m <= n
    elif side == "rows":
        use_rows = True
    elif side == "cols":
        use_rows = False
    else:
        raise ValueError(f"side must be 'auto', 'rows' or 'cols', got {side!r}")

    Hc = H.conj()
    if use_rows:
        G = H @ np.swapaxes(Hc, -1, -2)
    else:
        G = np.swapaxes(Hc, -1, -2) @ H
    d = G.shape[-1]
    idx = np.arange(d)
    G = G * snr
    G[..., idx, idx] += 1.0
    if d == 1:
        return np.log(G[..., 0, 0].real)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        logger.warning(
            "Cholesky of I + snr*Gram failed; retrying with diagonal jitter %g", _JITTER
        )
        G[..., idx, idx] += _JITTER
        L = np.linalg.cholesky(G)
    diag = np.diagonal(L, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log(diag), axis=-1)


def _gram_coefficients(channels: np.ndarray) -> np.ndarray:
    """Coefficients of det(I + s * G) = 1 + sum_k e_k s^k for the
    smaller-side Gram matrix G of each channel in a batch.

    Args:
        channels: Finite array of shape (..., m, n) with m, n >= 1.

    Returns:
        Coefficient-major array of shape (min(m, n), ...): row k - 1 holds
        e_k.  Gram sides of size 1 and 2 use the squared minors directly;
        larger ones fold the spectrum of ``np.linalg.eigvalsh``, whose
        smallest eigenvalue on square windows is corrected through the
        determinant to about eps * sqrt(lambda_min * lambda_max), where a
        plain eigensolver only reaches eps * lambda_max: at high snr that
        error is multiplied by snr in the logdet.  Every e_k is a sum of
        nonnegative terms, so nothing cancels.
    """
    H = np.asarray(channels)
    if H.shape[-2] > H.shape[-1]:
        # H^T has the conjugate Gram matrix of H^dagger: same determinant
        H = np.swapaxes(H, -1, -2)
    d, k = H.shape[-2:]
    r0 = H[..., 0, :]
    if d == 1:
        return _row_sum(r0.real**2 + r0.imag**2)[None]
    if d == 2:
        r1 = H[..., 1, :]
        e = np.zeros((2, *H.shape[:-2]))
        np.add(_row_sum(r0.real**2 + r0.imag**2), _row_sum(r1.real**2 + r1.imag**2), out=e[0])
        # Cauchy-Binet: det(Gram) is the sum of the squared 2 x 2 minors,
        # free of the cancellation in a * c - |b|^2
        for j, l in itertools.combinations(range(k), 2):
            minor = r0[..., j] * r1[..., l] - r0[..., l] * r1[..., j]
            e[1] += minor.real**2 + minor.imag**2
        return e
    G = H @ np.swapaxes(H.conj(), -1, -2)
    lam = np.linalg.eigvalsh(G)
    if d == k:
        lam[..., 0] = np.abs(np.linalg.det(H)) ** 2 / np.prod(lam[..., 1:], axis=-1)
    # a positive definite Gram can still round to a tiny negative eigenvalue
    np.maximum(lam, 0.0, out=lam)
    # elementary symmetric functions, one eigenvalue at a time
    e = np.zeros((d, *lam.shape[:-1]))
    for i in range(d):
        for j in range(i, 0, -1):
            e[j] += lam[..., i] * e[j - 1]
        e[0] += lam[..., i]
    return e


def _row_sum(x: np.ndarray) -> np.ndarray:
    """np.sum over the last axis, with its floats.  np.sum adds fewer than 8
    real or 4 complex terms in order, and a reduction over a short last
    axis is far slower, so those rows are summed column by column."""
    if x.shape[-1] >= (4 if np.iscomplexobj(x) else 8):
        return np.sum(x, axis=-1)
    total = np.positive(x[..., 0])  # a copy, bit for bit
    for i in range(1, x.shape[-1]):
        np.add(total, x[..., i], out=total)
    return total


def _logdet_column(coefficients: np.ndarray, snr: float) -> np.ndarray:
    """Per-draw logdet(I + snr * G) averaged over windows, a new N-length
    column.

    ``coefficients`` has shape (d, w, N): e_1..e_d of w windows on N draws
    (see ``_gram_coefficients``).  Each window's value is
    log1p(snr * (e_1 + snr * (e_2 + ...))) by Horner's rule; the first is
    evaluated in the column, each further one in a single N-length buffer
    and added in window order, and the sum is divided by w.
    """
    w = coefficients.shape[1]
    out = _window_logdet(coefficients[:, 0], snr, np.empty(coefficients.shape[-1]))
    if w > 1:
        t = np.empty_like(out)
        for j in range(1, w):
            out += _window_logdet(coefficients[:, j], snr, t)
        out /= w
    return out


def _window_logdet(e: np.ndarray, snr: float, out: np.ndarray) -> np.ndarray:
    """log1p(snr * (e_1 + snr * (e_2 + ...))) of one window's (d, N)
    coefficients, into ``out``."""
    np.multiply(e[-1], snr, out=out)
    for ek in e[-2::-1]:
        out += ek
        out *= snr
    return np.log1p(out, out=out)


def _record_dict(record, rename: dict[str, str] | None = None) -> dict:
    """The output record of a dataclass instance: one key per field declared
    with ``compare=True``, named as in ``rename`` where it names the field,
    with tuples as lists.  A record's fields are its output schema."""
    rename = rename or {}
    out = {}
    for f in fields(record):
        if f.compare:
            v = getattr(record, f.name)
            out[rename.get(f.name, f.name)] = list(v) if isinstance(v, tuple) else v
    return out


@dataclass(frozen=True)
class CapacityEstimate:
    """Sample mean and standard error of an ergodic capacity, in nats."""

    mean: float
    std_error: float
    num_samples: int
    dims: tuple[int, int]
    snr: float

    def as_dict(self) -> dict:
        return _record_dict(self)


def _num_blocks(num_samples: int) -> int:
    return -(-num_samples // BLOCK_SIZE)


def _block_bounds(block_index: int, num_samples: int) -> tuple[int, int]:
    lo = block_index * BLOCK_SIZE
    return lo, min(lo + BLOCK_SIZE, num_samples)


def _chunk_sums(x: np.ndarray) -> list[float]:
    """Sums of the BLOCK_SIZE chunks of a column, the last possibly shorter:
    the full chunks in one np.add.reduce over a (chunks, BLOCK_SIZE) view,
    each by numpy's pairwise summation along its row as a call on the chunk
    alone would, and the tail in one more."""
    full = len(x) - len(x) % BLOCK_SIZE
    head = np.add.reduce(x[:full].reshape(-1, BLOCK_SIZE), axis=1).tolist()
    return [*head, float(np.add.reduce(x[full:]))]


def _stream_mean(values: np.ndarray) -> float:
    """Mean of a per-draw column: ``_chunk_sums`` combined with math.fsum,
    so it depends only on the values, and estimates over shared draws agree
    bitwise.  A table entry costs this and its column's log1p pass; the
    standard error is ``_stream_error``'s, reduced when it is read."""
    return math.fsum(_chunk_sums(values)) / len(values)


def _stream_error(values: np.ndarray, mean: float) -> float:
    """Standard error of a per-draw column whose ``_stream_mean`` is
    ``mean``.  The squares are taken about c, the first chunk's mean, so a
    column whose mean is far larger than its spread keeps its digits."""
    n = len(values)
    if n == 1:
        return 0.0
    c = float(np.add.reduce(values[:BLOCK_SIZE])) / min(n, BLOCK_SIZE)
    squares = np.subtract(values, c)
    np.multiply(squares, squares, out=squares)
    shift = mean - c
    var = max(math.fsum(_chunk_sums(squares)) - n * shift * shift, 0.0) / (n - 1)
    return math.sqrt(var / n)


def _stream_stats(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-draw column; the package's only
    reduction, in two halves: ``_stream_mean`` and ``_stream_error``."""
    mean = _stream_mean(values)
    return mean, _stream_error(values, mean)


def _map_blocks(task, num_blocks: int, workers: int) -> list:
    """Run ``task(block_index)`` for every block, results in block order.

    With more than one worker, the calling thread runs every workers-th
    block from block 0 and workers - 1 helper threads the others, each in
    ascending order.  A share stops at its first exception; once every
    share is done, the exception of the lowest failing block is raised.
    """
    results = [None] * num_blocks
    errors = {}

    def run(first: int) -> None:
        for b in range(first, num_blocks, workers):
            try:
                results[b] = task(b)
            except Exception as e:
                errors[b] = e
                return

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, min(workers, num_blocks))]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results


def estimate_ergodic_capacity(
    m: int,
    n: int,
    snr: float,
    num_samples: int,
    seed: int,
    workers: int = 1,
) -> CapacityEstimate:
    """Monte Carlo estimate of the ergodic capacity of an m x n channel.

    Args:
        m: Receive dimension.
        n: Transmit dimension.
        snr: Finite, nonnegative signal-to-noise ratio.
        num_samples: Number of channel draws, must be positive.
        seed: Stream seed; a ``SamplePool`` with it reads the same draws.
        workers: Thread count.  Output is bit-identical for any value.

    Returns:
        CapacityEstimate with mean and standard error in nats.  Degenerate
        cases (a zero dimension, or snr == 0) return an exact zero without
        sampling.
    """
    m, n = _positive_int("m", m, minimum=0), _positive_int("n", n, minimum=0)
    num_samples = _positive_int("num_samples", num_samples)
    seed = _positive_int("seed", seed, minimum=0)
    workers = _positive_int("workers", workers)
    snr = _real("snr", snr)
    _check_snr(snr)
    if m == 0 or n == 0 or snr == 0.0:
        return CapacityEstimate(0.0, 0.0, num_samples, (m, n), snr)

    def task(b: int) -> np.ndarray:
        lo, hi = _block_bounds(b, num_samples)
        return _gram_coefficients(_draw_rows(m, n, seed, b, hi - lo))

    blocks = _map_blocks(task, _num_blocks(num_samples), workers)
    column = _logdet_column(np.concatenate(blocks, axis=-1)[:, None], snr)
    return CapacityEstimate(*_stream_stats(column), num_samples, (m, n), snr)


def _window_groups(K: int, m: int, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) of each window shape averaged into entry (m, n).

    The windows are every m x n and n x m cyclic window of a K x K draw (rows
    r..r+a-1, columns c..c+b-1, indices mod K), grouped by shape a x b:
    ``rows`` has shape (w, a) and ``cols`` shape (w, b) for the group's w
    windows, row start major.  Windows whose dimension equals K are all
    equal up to a row or column rotation, which leaves the Gram determinant
    unchanged; only one representative per rotation class is kept.  Every
    class of both shapes holds K^(number of sides equal to K) windows, so
    the entry is the plain mean over the representatives.
    """
    orientations = [(m, n)] if m == n else [(m, n), (n, m)]
    groups = []
    for a, b in orientations:
        row_starts = [0] if a == K else list(range(K))
        col_starts = [0] if b == K else list(range(K))
        starts = list(itertools.product(row_starts, col_starts))
        rows = np.array([(r + np.arange(a)) % K for r, _ in starts])
        cols = np.array([(c + np.arange(b)) % K for _, c in starts])
        groups.append((rows, cols))
    return groups


@dataclass(frozen=True)
class SamplePool:
    """A fixed set of max_dim x max_dim channel draws shared across estimates.

    Every capacity table derived from one pool sees the same realizations, so
    differences of table entries are common-random-number differences and
    structural inequalities between entries hold draw by draw.

    The draws themselves are not stored: they are the stream of ``seed``,
    a pure function of ``key``, and ``draws`` regenerates them when asked.
    A new pool has decomposed no entry; ``build`` decomposes (max_dim,
    max_dim).  An invalid integer field is refused with a ``ValueError``
    naming it.  The pool is also the one holder of per-draw entry columns
    (see ``column``).

    Attributes:
        coefficients: The entries decomposed so far, by ``decompose`` alone:
            for a table entry (m, n) with m >= n, an array of shape
            (n, w, num_samples) whose [k - 1, j] row holds e_k of the
            smaller-side Gram determinant of the entry's j-th cyclic window
            (see ``_gram_coefficients`` and ``_window_groups``) on each
            draw.  The entry is the mean over its w windows.  Coefficients
            do not depend on snr, so tables at any number of snr values
            reuse them.
        workers: Threads that share the blocks of a decomposition; the
            coefficients are bit-identical for any worker count.
    """

    max_dim: int
    num_samples: int
    seed: int
    workers: int = field(default=1, compare=False)
    coefficients: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _columns: dict[tuple[float, int, int], np.ndarray] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        for name, minimum in (("max_dim", 1), ("num_samples", 1), ("seed", 0), ("workers", 1)):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name), minimum))

    @property
    def key(self) -> tuple[int, int, int]:
        """(max_dim, num_samples, seed): pools with equal keys hold the
        same draws."""
        return (self.max_dim, self.num_samples, self.seed)

    @property
    def draws(self) -> np.ndarray:
        """Read-only (num_samples, max_dim, max_dim) complex channel draws,
        regenerated block by block from ``key`` on every access."""
        K, N = self.max_dim, self.num_samples
        draws = np.empty((N, K, K), dtype=complex)
        for b in range(_num_blocks(N)):
            lo, hi = _block_bounds(b, N)
            draws[lo:hi] = _draw_rows(K, K, self.seed, b, hi - lo)
        draws.flags.writeable = False
        return draws

    @classmethod
    def build(
        cls, max_dim: int, num_samples: int, seed: int, workers: int = 1
    ) -> "SamplePool":
        """The pool, with entry (max_dim, max_dim) decomposed: every table
        reads it first."""
        pool = cls(max_dim, num_samples, seed, workers)
        pool.decompose([(pool.max_dim, pool.max_dim)])
        return pool

    def decompose(self, entries: Iterable[tuple[int, int]]) -> None:
        """Compute the determinant coefficients of every cyclic window of
        each entry (m, n) not in ``coefficients`` yet, in one pass over the
        blocks.

        Raises:
            ValueError: unless max_dim >= m >= n >= 1 for every entry.
        """
        K, N = self.max_dim, self.num_samples
        entries = set(entries)
        if not all(K >= m >= n >= 1 for m, n in entries):
            raise ValueError(f"entries must have {K} >= m >= n >= 1, got {sorted(entries)}")
        groups = {e: _window_groups(K, *e) for e in sorted(entries - self.coefficients.keys())}
        if not groups:
            return
        # every window of entry (m, n) has n coefficients
        store = {
            (m, n): np.empty((n, sum(len(rows) for rows, _ in g), N))
            for (m, n), g in groups.items()
        }

        def task(b: int) -> None:
            # each block writes only its own draws
            lo, hi = _block_bounds(b, N)
            block = _draw_rows(K, K, self.seed, b, hi - lo)
            for entry, entry_groups in groups.items():
                w = 0
                for rows, cols in entry_groups:
                    if rows.shape[1] == K and cols.shape[1] == K:
                        # the full window is the block itself, as in the
                        # direct estimator; the gather below gives the same
                        # coefficients bitwise, but costs 152 us per K = 2
                        # block against 108 us (medians of 200 calls, 2 vCPU
                        # x86-64): about 0.6 ms per 50 000-draw pool, 2.7% of
                        # a sweep-optimized pass
                        e = _gram_coefficients(block)[:, None]
                    else:
                        # all of the group's windows in one call; advanced
                        # indexing reorders memory (draw axis becomes
                        # fastest), so force C layout: the Gram matmul then
                        # sees the accumulation order of a sampled block
                        W = block[:, rows[:, :, None], cols[:, None, :]]
                        e = _gram_coefficients(np.ascontiguousarray(W)).swapaxes(1, 2)
                    store[entry][:, w : w + len(rows), lo:hi] = e
                    w += len(rows)

        _map_blocks(task, _num_blocks(N), self.workers)
        self.coefficients.update(store)

    def column(self, snr: float, m: int, n: int) -> np.ndarray:
        """Read-only per-draw values of entry (m, n), m, n >= 1, at ``snr``:
        one ``_logdet_column`` pass over the entry's coefficients, which the
        pool decomposes first if it has not yet.  (m, n) and (n, m) share a
        column.  The pool keeps at most three: the first it computed and
        the two most recently used; one it dropped is computed again when
        read.  ``CapacityTable.make_exact`` and standard-error reads take
        ``_read_column`` instead, which keeps none, so they evict nothing.

        For each pooled draw P the value is the mean of
        logdet(I + snr * W W^dagger) over every m x n and n x m cyclic window W
        of P (see ``_window_groups``).  Averaging over the window group makes
        the entries of a table share exact structural relations on every draw:

          * (m, n) and (n, m) give the same value (the window sets are mirrors),
          * growing m or n can only add rows or columns to each window,
          * complementary row ranges of a column window partition it.

        These hold up to rounding; ``check_capacity_properties`` checks them
        on raw draws with the Cholesky reference ``gram_logdet``, which tests
        compare columns against.  The full entry's coefficients and kernel are
        those of the direct estimator, so its statistics match it bitwise.
        """
        key = (float(snr), max(m, n), min(m, n))
        column = self._read_column(*key)
        columns = self._columns
        if key != next(iter(columns), key):
            columns.pop(key, None)  # re-inserted last: most recent
        columns[key] = column
        if len(columns) > 3:
            del columns[list(columns)[1]]
        return column

    def _read_column(self, snr: float, m: int, n: int) -> np.ndarray:
        """Entry (m, n)'s column at ``snr``, m >= n, as ``column`` gives it,
        but leaving the kept ones and their order alone: the kept column,
        else a new one that the pool does not keep.  Every column is >= +0.0:
        snr -0.0 computes the +0.0 column."""
        column = self._columns.get((snr, m, n))
        if column is None:
            _check_snr(snr)
            self.decompose([(m, n)])
            column = _logdet_column(self.coefficients[m, n], snr + 0.0)
            column.flags.writeable = False
        return column


@dataclass(eq=False)
class CapacityTable:
    """Ergodic capacities for every dimension pair (m, n) with m, n <= max_dim.

    Entries are estimated from the Gram determinant coefficients of one
    shared pool of draws via cyclic-window symmetrization (see
    ``SamplePool.column``), so on every single draw the table is symmetric,
    monotone in each dimension, and superadditive in the row split.  Index 0
    rows and columns are exactly zero.  An entry costs one log1p pass over
    its windows' coefficients in the pool, which computes them when a table
    first reads the entry.

    Per-draw entry values, needed for common-random-number error bars, are
    not stored: a table holds no N-length array, and ``entry_draws`` reads
    the pool's column, the one copy.

    Attributes:
        snr: the signal-to-noise ratio of every entry.
        means: (max_dim+1, max_dim+1) array of entry means in nats, all
            exact on a constructed table.  A ``TableCache.lower`` table keeps
            a floor here for each entry its ``_exact`` mask marks inexact,
            for ``min_cut_dp``; each reader method makes what it reads exact.
        pool: the SamplePool whose draws every entry reads; its ``key``
            names them, and ``max_dim`` and ``num_samples`` are its own.
    """

    snr: float
    means: np.ndarray = field(repr=False)
    pool: SamplePool
    per_draw: None = field(default=None, init=False, repr=False)  # always None; tracer shim
    #: False where ``means`` holds a floor
    _exact: np.ndarray = field(init=False, repr=False)
    #: errors reduced so far, NaN elsewhere and 0.0 on the zero row and column
    _errors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._exact = np.ones(self.means.shape, dtype=bool)
        self._errors = np.full(self.means.shape, math.nan)
        self._errors[0] = self._errors[:, 0] = 0.0

    @property
    def max_dim(self) -> int:
        return self.pool.max_dim

    @property
    def num_samples(self) -> int:
        return self.pool.num_samples

    @property
    def std_errors(self) -> np.ndarray:
        """Standard errors matching ``means``, NaN exactly where inexact.
        An exact entry's is reduced on the first read from
        ``SamplePool._read_column`` and the stored mean, bitwise the error
        reduced with the mean."""
        ses = self._errors
        for m, n in np.argwhere(np.tril(self._exact & np.isnan(ses))).tolist():
            column = self.pool._read_column(self.snr, m, n)
            ses[m, n] = ses[n, m] = _stream_error(column, float(self.means[m, n]))
        return ses

    @classmethod
    def from_pool(
        cls, pool: SamplePool, snr: float, keep_per_draw: bool = True
    ) -> "CapacityTable":
        """The table at ``snr`` over ``pool``, every entry exact:
        ``TableCache(pool).at(snr)``.

        ``keep_per_draw`` is ignored; ROADMAP item 3 drops it with the
        benchmark's tracer.
        """
        return TableCache(pool).at(snr)

    def entry_draws(self, m: int, n: int) -> np.ndarray:
        """Read-only per-draw values of entry (m, n) over the table's pool:
        ``pool.column(snr, m, n)``.  Entries with a zero dimension are
        zeros.
        """
        m, n = self._check_entry(m, n)
        if m and n:
            return self.pool.column(self.snr, m, n)
        column = np.zeros(self.num_samples)
        column.flags.writeable = False
        return column

    def make_exact(self, dims: Iterable[tuple[int, int]]) -> int:
        """Compute the entries ``dims`` that ``_exact`` marks inexact, each
        once (with its mirror), from one ``SamplePool.decompose``; returns
        how many were computed.  On a constructed table it computes nothing.
        Each entry's mean and standard error are reduced together from
        ``SamplePool._read_column``, so the columns the pool keeps stay.
        """
        exact, ses = self._exact, self._errors
        todo = sorted({(max(m, n), min(m, n)) for m, n in set(dims) if not exact[m, n]})
        if todo:
            self.pool.decompose(todo)
        for m, n in todo:
            self.means[m, n], ses[m, n] = self.means[n, m], ses[n, m] = _stream_stats(
                self.pool._read_column(self.snr, m, n)
            )
            exact[m, n] = exact[n, m] = True
        return len(todo)

    def _check_entry(self, m: int, n: int) -> tuple[int, int]:
        """(m, n) as ints, refused unless both are integers in 0..max_dim."""
        if not (0 <= m <= self.max_dim and 0 <= n <= self.max_dim):
            raise ValueError(
                f"entry ({m}, {n}) outside table range 0..{self.max_dim}"
            )
        return _positive_int("m", m, minimum=0), _positive_int("n", n, minimum=0)

    def mean(self, m: int, n: int) -> float:
        m, n = self._check_entry(m, n)
        self.make_exact([(m, n)])
        return float(self.means[m, n])

    def std_error(self, m: int, n: int) -> float:
        m, n = self._check_entry(m, n)
        self.make_exact([(m, n)])
        return float(self.std_errors[m, n])

    def estimate(self, m: int, n: int) -> CapacityEstimate:
        m, n = self._check_entry(m, n)
        return CapacityEstimate(
            self.mean(m, n), self.std_error(m, n), self.num_samples, (m, n), self.snr
        )


def _entry_floor(mn, K: int, kk):
    """(mn / K^2) * kk - 1e-9 * max(1, kk), elementwise: a lower bound on
    entry (m, n), mn = m * n >= 1, of a table over a pool of K x K draws
    whose entry (K, K) is kk, on every draw and so for the means.

    Han's inequality (Shearer's lemma with an exact cover) applied to the
    cyclic windows that ``_window_groups`` averages gives C(m, n) >=
    (m n / K^2) C(K, K) draw by draw; the margin covers rounding.
    """
    return mn / K**2 * kk - 1e-9 * np.maximum(1.0, kk)


class TableCache:
    """Capacity tables at several snr values over one shared pool.

    ``lower`` keeps, per snr, a table that computes only the entries asked
    for: (K, K) always, and others through ``CapacityTable.make_exact``;
    every other entry holds ``_entry_floor``, a lower bound, which
    ``network.min_cut_dp`` certifies its min cut against.  ``at`` makes
    every entry of that one table exact: the full table.  ``chord`` bounds
    the (K, K) mean at any snr from above on the ones ``lower`` has
    computed.

    ``lower`` reads each snr's (K, K) column through ``SamplePool.column``,
    which the pool keeps under its rule.  A sweep's first column is C(K, K)
    at its first snr; each ``rates.gap_trend`` call reads its full-snr
    column once and hands it to its rows, and a row's degraded-snr column
    was computed when its q was scored.  No table entry's standard error is
    reduced unless it is read, so a sweep reduces only its rows' gap errors.
    """

    def __init__(self, pool: SamplePool):
        self.pool = pool
        self._lower: dict[float, CapacityTable] = {}

    def at(self, snr: float) -> CapacityTable:
        """The full table at ``snr``: ``lower(snr)`` with every entry exact
        and every standard error reduced, after one ``decompose`` of every
        entry the pool lacks."""
        K = self.pool.max_dim
        self.pool.decompose(itertools.combinations_with_replacement(range(K, 0, -1), 2))
        table = self.lower(snr)
        table.make_exact(itertools.product(range(1, K + 1), repeat=2))
        table.std_errors  # reduces (K, K)'s error while the pool keeps its column
        return table

    def lower(self, snr: float) -> CapacityTable:
        """The lower-bound table at ``snr``, made on first use from entry (K, K).

        Exact entries ((K, K) and those ``make_exact`` computed) hold their
        mean; every other entry holds ``_entry_floor`` of the (K, K) mean,
        and the table's ``_exact`` mask marks it inexact (NaN in
        ``std_errors``); the table's readers make it exact first.  Entries
        with a zero dimension are exact zeros.  The table keeps the pool, so
        ``entry_draws`` gives exact per-draw columns for any entry.

        Making the table costs one log1p pass, the (K, K) column that the
        pool keeps, and one ``_stream_mean``; (K, K)'s standard error is
        reduced from that column when ``std_errors`` is first read.
        """
        key = float(snr) + 0.0  # snr -0.0 is the +0.0 table
        table = self._lower.get(key)
        if table is None:
            _check_snr(key)
            K = self.pool.max_dim
            kk = _stream_mean(self.pool.column(key, K, K))
            dims = np.arange(K + 1)
            means = _entry_floor(np.outer(dims, dims), K, kk)
            means[0] = means[:, 0] = 0.0
            means[K, K] = kk
            table = self._lower[key] = CapacityTable(key, means, self.pool)
            table._exact[1:, 1:] = False
            table._exact[K, K] = True
        return table

    def chord(self, snr: float) -> float:
        """An upper bound on the (K, K) mean at ``snr`` from the (K, K)
        means ``lower`` has computed, or +inf when none is at an snr >=
        ``snr``.  Nothing is computed.

        Each per-draw value is f(t) = log(1 + sum_k e_k e^(k t)) at t =
        log(snr), with every e_k >= 0: a log-sum-exp of affine functions of
        t, so nondecreasing and convex in t.  So
        with the nearest known snr values below (s0 > 0) and above (s1),
        the mean lies below the chord in log snr,

            C_snr <= (1 - theta) C_s0 + theta C_s1,
            theta = log(snr / s0) / log(s1 / s0),

        and without s0, below C_s1.  At a known snr it is that mean.
        """
        s0 = s1 = None
        for s in self._lower:
            if s >= snr:
                if s1 is None or s < s1:
                    s1 = s
            elif s > 0.0 and (s0 is None or s > s0):
                s0 = s
        if s1 is None:
            return math.inf
        K = self.pool.max_dim
        c1 = float(self._lower[s1].means[K, K])
        if s1 == snr or s0 is None:
            return c1
        c0 = float(self._lower[s0].means[K, K])
        theta = (math.log(snr) - math.log(s0)) / (math.log(s1) - math.log(s0))
        return (1.0 - theta) * c0 + theta * c1
