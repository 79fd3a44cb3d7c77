"""Array row sums are math.fsum, bit for bit.

``clt._row_fsums`` reduces every row with error-free TwoSum steps and
keeps the float sum only where a certified bound shows it is the
correctly rounded one; every other row takes math.fsum itself.  Each row
must equal ``math.fsum(row.tolist())`` to the bit, signed zeros
included, on any width, scale and mix of rows, and rows fsum rejects
must raise fsum's exception.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum import SeedSpec, catalog, draw_batch
from extremesum.clt import _row_fsums

_TINY = 2.0**-1074

widths = st.one_of(st.integers(1, 80), st.sampled_from([255, 256, 1023, 3982, 4999, 5000]))
models = st.sampled_from([entry.model for entry in catalog()])
finite = st.floats(allow_nan=False, allow_infinity=False)
specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-54,
                            _TINY, -_TINY, 2.0**-1022, 1e308, -1e308, 2.0**1023])


def _fsum_rows(x):
    """fsum of each row, or the type of the first exception it raises."""
    out = []
    for row in x.tolist():
        try:
            out.append(math.fsum(row))
        except (OverflowError, ValueError) as exc:
            return type(exc)
    return np.array(out)


def _assert_fsums(x):
    want = _fsum_rows(x)
    if isinstance(want, type):
        with pytest.raises(want):
            _row_fsums(x)
        return
    got = _row_fsums(x)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 4), width=widths, lo=st.integers(-330, 300),
       span=st.integers(0, 40), cancel=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(rows=3, width=5000, lo=-20, span=40, cancel=True, seed=1)
@example(rows=2, width=4999, lo=-320, span=10, cancel=False, seed=2)
@example(rows=2, width=77, lo=290, span=10, cancel=True, seed=3)
def test_scaled_rows_equal_fsum(rows, width, lo, span, cancel, seed):
    # magnitudes 10^lo .. 10^(lo+span), subnormals below 10^-308, at most
    # about 1e308
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(lo, min(lo + span, 307), (rows, width))
    x = rng.standard_normal((rows, width)) * 10.0**exponents
    if cancel:
        # each row's second half nearly cancels its first
        half = width // 2
        x[:, width - half:] = -x[:, :half] * (1.0 + rng.standard_normal((rows, half)) * 1e-12)
    _assert_fsums(x)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12).flatmap(lambda width: st.lists(
    st.lists(st.one_of(finite, specials), min_size=width, max_size=width),
    min_size=1, max_size=5)))
@example(rows=[[1.0, 2.0**-53]])
@example(rows=[[1.0, -(2.0**-54)], [1.0, 2.0**-53 + 2.0**-105], [2.0**53, 1.0]])
@example(rows=[[0.0, -0.0], [-0.0, -0.0], [1.0, -1.0], [-0.0, 0.0]])
@example(rows=[[_TINY, _TINY, -_TINY], [2.0**-1022, -_TINY, _TINY]])
@example(rows=[[1e308, -1e308, 1e308, 2.0**970]])
@example(rows=[[1e16, 1.0, -1e16, 1e-16]])
# The error terms 2, 2^-59, -2, 2^-53 - 2^-60 sum in floats to just below
# half an ulp of the float sum 1.03125 while the exact sum lies above it:
# only the bound on the error of that float sum sends this row to fsum.
@example(rows=[[2.0**60, 2.0**-5, -(2.0**60), 1.0, 2.0, 2.0**-59, -2.0, 2.0**-53 - 2.0**-60]])
def test_adversarial_rows_equal_fsum(rows):
    _assert_fsums(np.array(rows, dtype=np.float64))


@settings(max_examples=40, deadline=None)
@given(model=models, n=st.sampled_from([50, 5000, 50000, 10**9]),
       k=st.integers(1, 200), rows=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
def test_catalog_draws_equal_fsum(model, n, k, rows, seed):
    k = min(k, n - 1)
    _, xs, _ = draw_batch(SeedSpec(seed, 0), rows, n, k + 1, model)
    _assert_fsums(xs[:, :k])


@pytest.mark.parametrize("row", [
    [math.inf, 1.0], [-math.inf, -1.0, 2.0], [math.nan, 1.0], [1.0, math.nan, math.inf],
    [math.inf, math.inf], [math.inf, -math.inf], [1e308, 1e308], [1e308, 1e308, -1e308],
])
def test_nonfinite_rows_take_fsum(row):
    # alone and below a finite row, so the fallback is one row of a matrix
    _assert_fsums(np.array([row]))
    _assert_fsums(np.array([[1.0] * len(row), row]))


def test_intermediate_overflow_raises_like_fsum():
    # the exact sum 1e308 is finite; fsum's running partials are not
    with pytest.raises(OverflowError):
        _row_fsums(np.array([[1e308, 1e308, -1e308]]))
