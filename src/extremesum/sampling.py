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

Streams: every replicate owns a counter-based generator keyed by
(master_seed, stream_id), so any subset of replicates can be drawn in any
order and reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import TailModel

_MASK64 = (1 << 64) - 1

# Half-open clamp for degenerate draws: keeps every uniform and tail mass
# inside the open interval at full double resolution.
_TINY = 2.0**-53
_LOG_TINY = math.log(_TINY)


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


def _descending_tails(rng, n: int, count: int):
    """Tail masses 1 - U for the top `count` uniform order statistics."""
    v = rng.random(count)
    denom = np.arange(n, n - count, -1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_u = np.cumsum(np.log(v) / denom)
    tails = -np.expm1(log_u)
    clamped = bool(np.any(tails < _TINY) or np.any(tails > 1.0 - _TINY))
    if clamped:
        np.clip(tails, _TINY, 1.0 - _TINY, out=tails)
    return tails, clamped


def draw_top_k(seed: SeedSpec, n: int, k: int, model: TailModel) -> ReplicateDraw:
    """Draw the top k values and the (k+1)-th from a sample of size n."""
    n = int(n)
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise ValueError("need k < n so the threshold order statistic exists")
    rng = seed.generator()
    tails, clamped = _descending_tails(rng, n, k + 1)
    xs = model.tail_quantile(tails)
    return ReplicateDraw(
        n=n,
        k=k,
        top_tail=tails[:k],
        threshold_tail=float(tails[k]),
        top_x=xs[:k],
        threshold_x=float(xs[k]),
        clamped=clamped,
    )


def draw_sample_max(seed: SeedSpec, n: int, model: TailModel) -> float:
    """X_{n,n} for a sample of size n, drawn in O(1)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = seed.generator()
    tails, _ = _descending_tails(rng, n, 1)
    return float(model.tail_quantile(tails[0]))


def balkema_dehaan_stat(draw: ReplicateDraw) -> float:
    """n(1 - U_{n-k,n})/k, which concentrates at 1 as k grows.

    The uniform tail mass above the threshold order statistic, rescaled by
    n/k.  Its distribution is exactly n/k times a Beta(k+1, n-k) variable.
    """
    return draw.n * draw.threshold_tail / draw.k
