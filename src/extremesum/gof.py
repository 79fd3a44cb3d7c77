"""Goodness-of-fit distances against fully specified target laws.

Only two classical distances are needed here: the Kolmogorov-Smirnov
sup-distance and the Anderson-Darling quadratic statistic, both against a
known continuous CDF (no parameter estimation, so no small-sample
corrections apply).
"""

from __future__ import annotations

import numpy as np

_AD_EPS = 1e-12


def _prepare(sample, target_cdf):
    """Target CDF values at the sorted sample, clipped to [0, 1]; a 2-d
    ``sample`` is sorted and evaluated row by row."""
    x = np.sort(np.asarray(sample, dtype=np.float64), axis=-1)
    if x.shape[-1] == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    f = np.asarray(target_cdf(x), dtype=np.float64)
    if np.any(f < -1e-9) or np.any(f > 1.0 + 1e-9):
        raise ValueError("target_cdf returned values outside [0, 1]")
    return np.clip(f, 0.0, 1.0)


# Both distances reduce along the last axis: one sample or one per row.
def _ks(f):
    r = f.shape[-1]
    i = np.arange(1, r + 1, dtype=np.float64)
    d_plus = np.max(i / r - f, axis=-1)
    d_minus = np.max(f - (i - 1.0) / r, axis=-1)
    return np.maximum(np.maximum(d_plus, d_minus), 0.0)


def _ad(f):
    r = f.shape[-1]
    f = np.clip(f, _AD_EPS, 1.0 - _AD_EPS)
    i = np.arange(1, r + 1, dtype=np.float64)
    # The reversed term uses 1 - F at the mirror-ordered points.
    terms = (2.0 * i - 1.0) * (np.log(f) + np.log1p(-f[..., ::-1]))
    return -r - np.mean(terms, axis=-1)


def ks_distance(sample, target_cdf) -> float:
    """sup_x |F_R(x) - F(x)| via both one-sided envelopes at sample points.

    The empirical CDF jumps from (i-1)/R to i/R at the i-th sorted point,
    so the sup distance is attained on one of the two envelopes there.
    """
    return float(_ks(_prepare(sample, target_cdf)))


def anderson_darling(sample, target_cdf) -> float:
    """A-squared statistic against a fully specified continuous target.

    CDF values are clamped away from {0, 1} by 1e-12 before taking logs;
    a sample point far outside the target support then contributes a huge
    but finite penalty instead of an infinity.
    """
    return float(_ad(_prepare(sample, target_cdf)))


def distances(sample, target_cdf):
    """(ks_distance, anderson_darling), sorting and evaluating the CDF once.

    A 2-d ``sample`` holds one sample per row and gives two arrays, each
    row's distances, bit for bit those of the row on its own.
    """
    f = _prepare(sample, target_cdf)
    ks, ad = _ks(f), _ad(f)
    return (float(ks), float(ad)) if f.ndim == 1 else (ks, ad)
