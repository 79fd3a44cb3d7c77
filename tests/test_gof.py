"""KS and Anderson-Darling distances against fixed targets."""

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import ndtr

from extremesum import anderson_darling, ks_distance


def test_single_point_at_median():
    # one observation at the target median: both envelopes give 0.5
    assert ks_distance([0.0], ndtr) == pytest.approx(0.5, abs=1e-15)
    # A^2 = -1 - (ln(1/2) + ln(1/2)) = 2 ln 2 - 1
    assert anderson_darling([0.0], ndtr) == pytest.approx(
        2.0 * np.log(2.0) - 1.0, abs=1e-12
    )


def test_two_point_hand_value():
    # F values exactly (1/4, 3/4):
    # A^2 = -2 - (ln(1/4) + 3 ln(3/4)) by the rank-weighted sum
    sample = [0.25, 0.75]
    ident = lambda x: np.asarray(x)
    assert anderson_darling(sample, ident) == pytest.approx(
        -2.0 - (np.log(0.25) + 3.0 * np.log(0.75)), abs=1e-12
    )
    assert ks_distance(sample, ident) == pytest.approx(0.25, abs=1e-15)


def test_quantile_spaced_sample_is_optimal():
    # points at F = (i - 1/2)/R sit centred in every ecdf step
    r = 100
    sample = (np.arange(1, r + 1) - 0.5) / r
    ident = lambda x: np.asarray(x)
    assert ks_distance(sample, ident) == pytest.approx(0.5 / r, abs=1e-15)
    assert anderson_darling(sample, ident) < 0.05


def test_ks_matches_scipy():
    rng = np.random.default_rng(2026)
    sample = rng.normal(size=500)
    ours = ks_distance(sample, ndtr)
    ref = st.kstest(sample, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_null_calibration():
    # correct target: distances sit at their null scale (1.63/sqrt(R) is
    # the 99% KS quantile)
    rng = np.random.default_rng(19)
    sample = rng.normal(size=2000)
    assert ks_distance(sample, ndtr) <= 1.63 / np.sqrt(2000)
    assert anderson_darling(sample, ndtr) < 2.5


def test_shifted_sample_explodes():
    rng = np.random.default_rng(7)
    sample = rng.normal(size=500) + 3.0
    assert anderson_darling(sample, ndtr) > 50.0
    assert ks_distance(sample, ndtr) > 0.8


def test_far_outlier_is_finite():
    # the log clamp turns a point far outside the support into a large
    # finite penalty
    a2 = anderson_darling([0.0, 1e9], ndtr)
    assert np.isfinite(a2)
    assert a2 > 5.0


def test_input_validation():
    with pytest.raises(ValueError):
        ks_distance([], ndtr)
    with pytest.raises(ValueError):
        ks_distance([1.0, np.nan], ndtr)
    with pytest.raises(ValueError):
        anderson_darling([np.inf], ndtr)
    with pytest.raises(ValueError):
        ks_distance([0.5], lambda x: np.asarray(x) + 2.0)
    with pytest.raises(ValueError):
        ks_distance([0.5], lambda x: np.asarray(x) - 1.0)
    # 1e-12 over 1.0 is inside the slack: clipped to F = 1, no error
    assert ks_distance(
        [0.5], lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 + 1e-12)
    ) == pytest.approx(1.0)
