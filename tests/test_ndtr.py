"""The package's own ndtr against scipy's, bit for bit.

``cephes.ndtr`` is a port of Cephes's ndtr, erf and erfc; scipy's ndtr is
the reference.  It has one path, the numpy one, for every input: the
bulk, the branch edges and the specials are checked through it, and so
are scalars, 0-d arrays and the small sizes an earlier loop over Python
floats once served.
"""

import math

import numpy as np
import pytest
from scipy import special

from extremesum import cephes
from extremesum.cephes import ndtr


def _bits(y):
    """Bit patterns, with every NaN the same."""
    y = np.asarray(y, dtype=float)
    return np.where(np.isnan(y), np.nan, y).view(np.int64)


def _neighbours(x, steps=4):
    """x and its `steps` nearest doubles on each side, for x and -x."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return np.array(out + [-v for v in out])


_RNG = np.random.default_rng(20260101)
_BULK = np.concatenate([_RNG.uniform(-40.0, 10.0, 10**6), _RNG.standard_normal(10**6)])

# |a| = 1, sqrt 2 and 8 sqrt 2 are where |a| / sqrt 2 crosses 1/sqrt 2, 1
# and 8, the edges between erf, 1 - erf, erfc's P/Q and its R/S; past
# _ZMAX sqrt 2 (a about 37.7) erfc underflows to 0.
_EDGES = np.concatenate([_neighbours(x, 8) for x in (
    1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), cephes._ZMAX * math.sqrt(2.0),
    1.0 / cephes._SQRTH, 8.0 / cephes._SQRTH, cephes._ZMAX / cephes._SQRTH)])
_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, -1e-310, 1e-300, -1e-16, 1e-16,
                     1e308, -1e308])
# every branch and special in a shuffled order, for the small sizes
_MIXED = _RNG.permutation(np.concatenate([_EDGES, _SPECIAL, _BULK[:64]]))


def test_zmax_is_the_underflow_cutoff():
    # erfc(z) is 0 exactly where -z*z < -MAXLOG
    z = cephes._ZMAX
    assert -z * z >= -cephes._MAXLOG
    up = math.nextafter(z, math.inf)
    assert -up * up < -cephes._MAXLOG
    assert cephes._MAXLOG == 7.09782712893383996843e2


def test_matches_scipy_on_the_bulk():
    np.testing.assert_array_equal(_bits(ndtr(_BULK)), _bits(special.ndtr(_BULK)))


@pytest.mark.parametrize("points", [_EDGES, _SPECIAL], ids=["edges", "special"])
def test_matches_scipy_at_the_edges(points):
    want = _bits(special.ndtr(points))
    np.testing.assert_array_equal(_bits(ndtr(points)), want)
    # one value at a time, as the models' scalar calls take it
    np.testing.assert_array_equal(_bits([ndtr(v) for v in points.tolist()]), want)


def test_edges_reach_every_branch():
    z = np.abs(_EDGES) * cephes._SQRTH
    assert all(np.any(cond) for cond in (
        z < cephes._SQRTH, (z >= cephes._SQRTH) & (z < 1.0), (z >= 1.0) & (z < 8.0),
        (z >= 8.0) & (z <= cephes._ZMAX), z > cephes._ZMAX))


@pytest.mark.parametrize("x", [-40.0, -3.0, -1.2, -0.5, 0.0, 0.25, 1.5, 12.0, math.nan])
def test_scalar_and_zero_d_give_a_float(x):
    want = special.ndtr(x)
    for arg in (x, np.float64(x), np.array(x)):
        got = ndtr(arg)
        assert type(got) is float
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("size", [0, 1, 2, 47, 48, 49])
def test_small_sizes_match_scipy(size):
    """The sizes an earlier size switch told apart: up to 48 values went
    through a loop over Python floats, from 49 through numpy."""
    a = _MIXED[:size]
    got = ndtr(a)
    assert isinstance(got, np.ndarray) and got.shape == (size,)
    np.testing.assert_array_equal(_bits(got), _bits(special.ndtr(a)))


@pytest.mark.parametrize("shape", [(2, 3), (40, 25), (0, 3)])
def test_two_d_keeps_its_shape(shape):
    a = _RNG.uniform(-12.0, 12.0, shape)
    got = ndtr(a)
    assert isinstance(got, np.ndarray) and got.shape == shape
    np.testing.assert_array_equal(_bits(got), _bits(special.ndtr(a)))
