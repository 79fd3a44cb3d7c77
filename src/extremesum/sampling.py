"""Order-statistic sampling in O(k) per replicate.

The top k+1 order statistics of n iid uniforms are generated directly
through the descending-records construction

    U_{n,n} = V_1^{1/n},   U_{n-j,n} = U_{n-j+1,n} * V_{j+1}^{1/(n-j)}

with iid uniform V's, so a replicate costs O(k) work no matter how large
n is.  Everything is done in log space and tail masses 1 - U are formed
with expm1, never by subtracting from 1: for n around 1e9 the top uniform
sits within 1e-9 of 1 and the naive subtraction would shed half the
mantissa.  Model values come from tail_quantile(tail mass), which is the
numerically safe branch for exactly this regime.

Streams: every replicate owns a counter-based Philox stream keyed by
(master_seed, stream_id), so any subset of replicates can be drawn in any
order and reproduce bit for bit.  A batch draws consecutive streams as
the rows of one matrix, each row exactly the bits
``SeedSpec(master_seed, stream_id).generator()`` would give, without
building a generator per stream.  Many rows of at most four uniforms (one
Philox4x64-10 block, such as the sample maxima) get that block computed
for all rows at once in numpy; other batches come from a single Philox
re-keyed per row, with a zero counter and an empty buffer.  The choice
depends on the batch's shape only.  Rows of several models can be drawn
as one batch of segments, each segment with its own streams and model.
``draw_top_k`` and ``draw_sample_max`` are the one-row case of that batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import numpy.random  # numpy loads it lazily, on first use: load it with the package

from .models import TailModel

_MASK64 = (1 << 64) - 1

# Half-open clamp for degenerate draws: keeps every uniform and tail mass
# inside the open interval at full double resolution.
_TINY = 2.0**-53


@dataclass(frozen=True)
class SeedSpec:
    """Key for one reproducible random stream.

    ``master_seed`` names the whole experiment, ``stream_id`` one replicate
    (or one auxiliary draw) inside it.  Both are reduced mod 2^64.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def child(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_id + int(offset))

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ReplicateDraw:
    """Top k order statistics of one sample of size n, plus the threshold.

    ``top_x`` holds X_{n,n} >= ... >= X_{n-k+1,n}; ``threshold_x`` is
    X_{n-k,n}.  The uniform layer is kept as exact tail masses 1 - U
    (``top_tail``/``threshold_tail``), never as U itself, which would
    lose the precision described in the module docstring.
    ``clamped`` flags draws that hit the open-interval clamp; they are
    valid but degenerate (probability ~ k * 2^-53 per replicate).
    """

    n: int
    k: int
    top_tail: np.ndarray
    threshold_tail: float
    top_x: np.ndarray
    threshold_x: float
    clamped: bool


# Philox4x64-10 round multipliers (as a column of counter words 0 and 2,
# split into 32-bit halves) and key increments, built from Python ints:
# a numpy bitwise op at import raised every command's peak RSS ~0.2 MB.
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_M = np.array([[m] for m in _M], dtype=np.uint64)
_M_LO = np.array([[m & 0xFFFFFFFF] for m in _M], dtype=np.uint64)
_M_HI = np.array([[m >> 32] for m in _M], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# Rows of at most one Philox block (4 words) are computed in numpy from
# this many rows on; below it, or for wider rows, re-keying is faster.
_BLOCK_KERNEL_MIN_ROWS = 192


def _philox_first_block(seed: SeedSpec, rows: int) -> np.ndarray:
    """(4, rows) words: block 1 of each stream ``seed.child(r)``.

    A fresh numpy Philox first draws counter (1, 0, 0, 0) under key
    (master_seed, stream_id); each round maps counter words (c0, c1, c2,
    c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).
    Products are 64x64 -> 128 bits from 32-bit halves; uint64 arrays wrap.
    """
    m32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    key1 = np.arange(rows, dtype=np.uint64) + np.uint64(seed.stream_id)
    even = np.zeros((2, rows), dtype=np.uint64)  # counter words 0 and 2
    even[0] = 1
    odd = np.zeros((2, rows), dtype=np.uint64)   # counter words 1 and 3
    for i in range(10):
        x_lo = even & m32
        x_hi = even >> s32
        lh = x_lo * _M_HI
        hl = x_hi * _M_LO
        mid = ((x_lo * _M_LO) >> s32) + (lh & m32) + (hl & m32)
        hi = x_hi * _M_HI + (lh >> s32) + (hl >> s32) + (mid >> s32)
        lo = even * _PHILOX_M
        k0 = np.uint64((seed.master_seed + i * _PHILOX_W[0]) & _MASK64)
        k1 = key1 + np.uint64(i * _PHILOX_W[1] & _MASK64)
        even = np.stack([hi[1] ^ odd[0] ^ k0, hi[0] ^ odd[1] ^ k1])
        odd = lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]])


def _uniform_rows(seed: SeedSpec, rows: int, count: int) -> np.ndarray:
    """(rows, count) uniforms; row r is stream ``seed.child(r)``'s first draws."""
    if count <= 4 and rows >= _BLOCK_KERNEL_MIN_ROWS:
        words = _philox_first_block(seed, rows)[:count].T >> np.uint64(11)
        return np.ascontiguousarray(words * 2.0**-53)
    bitgen = np.random.Philox(key=np.array([seed.master_seed, seed.stream_id], dtype=np.uint64))
    fill = np.random.Generator(bitgen).random
    # A fresh Philox's state (zero counter, empty buffer) in Python ints, set
    # faster than bitgen.state's arrays; only the key's stream word changes.
    key = [seed.master_seed, seed.stream_id]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    v = np.empty((rows, count))
    for r, row in enumerate(v):
        key[1] = (seed.stream_id + r) & _MASK64
        bitgen.state = state
        fill(out=row)
    return v


def _descending_tails(v: np.ndarray, n: int):
    """Tail masses 1 - U of the top order statistics, one sample per row.

    ``v`` is a (rows, count) matrix of iid uniforms; row r becomes the
    tail masses of the top ``count`` order statistics of its own sample
    of size n, in ascending order.  Also returns one clamp flag per row.
    """
    denom = np.arange(n, n - v.shape[1], -1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_u = np.cumsum(np.log(v) / denom, axis=1)
    tails = -np.expm1(log_u)
    clamped = ((tails < _TINY) | (tails > 1.0 - _TINY)).any(axis=1)
    np.clip(tails, _TINY, 1.0 - _TINY, out=tails)
    return tails, clamped


def _stacked(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _draw_segments(segments, n: int, count: int):
    """``draw_batch`` of every ``(seed, rows, model)`` segment, stacked:
    each segment has its own streams and ``tail_quantile`` call, and the
    tail masses of all the rows are formed together."""
    n = int(n)
    count = int(count)
    if not 1 <= count <= n:
        raise ValueError("need 1 <= count <= n order statistics per row")
    tails, clamped = _descending_tails(
        _stacked([_uniform_rows(seed, rows, count) for seed, rows, _ in segments]), n)
    ends = accumulate(rows for _, rows, _ in segments)
    xs = [model.tail_quantile(tails[end - rows:end])
          for (_, rows, model), end in zip(segments, ends)]
    return tails, _stacked(xs), clamped


def draw_batch(seed: SeedSpec, rows: int, n: int, count: int, model: TailModel):
    """Top ``count`` order statistics of ``rows`` samples of size n.

    Row r is drawn from stream ``seed.child(r)`` (stream ids wrap mod
    2^64) and equals the single draw of that stream bit for bit.
    Returns ``(tails, xs, clamped)``: (rows, count) tail masses in
    ascending order, their model values in descending order, and one
    clamp flag per row.
    """
    return _draw_segments([(seed, int(rows), model)], n, count)


def draw_top_k(seed: SeedSpec, n: int, k: int, model: TailModel) -> ReplicateDraw:
    """Draw the top k values and the (k+1)-th from a sample of size n."""
    n = int(n)
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise ValueError("need k < n so the threshold order statistic exists")
    tails, xs, clamped = draw_batch(seed, 1, n, k + 1, model)
    return ReplicateDraw(
        n=n,
        k=k,
        top_tail=tails[0, :k],
        threshold_tail=float(tails[0, k]),
        top_x=xs[0, :k],
        threshold_x=float(xs[0, k]),
        clamped=bool(clamped[0]),
    )


def draw_sample_max(seed: SeedSpec, n: int, model: TailModel) -> float:
    """X_{n,n} for a sample of size n, drawn in O(1)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    _, xs, _ = draw_batch(seed, 1, n, 1, model)
    return float(xs[0, 0])


def balkema_dehaan_stat(draw: ReplicateDraw) -> float:
    """n(1 - U_{n-k,n})/k, which concentrates at 1 as k grows.

    The uniform tail mass above the threshold order statistic, rescaled by
    n/k.  Its distribution is exactly n/k times a Beta(k+1, n-k) variable.
    """
    return draw.n * draw.threshold_tail / draw.k
