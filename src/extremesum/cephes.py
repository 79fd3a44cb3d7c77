"""The standard normal CDF, ported from Cephes (Moshier, *Methods and
Programs for Mathematical Functions*, 1989).

``ndtr`` takes Cephes's ``ndtr``, ``erf`` and ``erfc`` operation for
operation: the same rational approximations, Horner steps in the same
order (no fused multiply-add) and libm's exp, taken per element through
``exp_each`` because numpy's exp differs from libm's in the last bit on
some doubles.  So it returns the bits of scipy's ndtr, which the tests
check.  It runs these steps on numpy arrays, whatever the input's size.

The module is a leaf: it imports no other module of the package, which
takes its libm-exact elementwise helpers (``exp_each``) from here.
"""

from __future__ import annotations

import math

import numpy as np

_SQRTH = 0.7071067811865476
# erfc(z) is 0 where -z*z < -MAXLOG = -ln(DBL_MAX), that is for z > _ZMAX
_MAXLOG = 709.782712893384
_ZMAX = 26.641747557046326

# erfc(z) = exp(-z*z) P(z) / Q(z) on [1, 8), exp(-z*z) R(z) / S(z) from 8 on;
# erf(v) = v T(v*v) / U(v*v) for |v| < 1.  Q, S and U omit their leading 1.
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
      48.63719709856814, 196.5208329560771, 526.4451949954773,
      934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (13.228195115474499, 86.70721408859897, 354.9377788878199,
      975.7085017432055, 1823.9091668790973, 2246.3376081871097,
      1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805,
      6.160210979930536, 7.4097426995044895, 2.9788666537210022)
_S = (2.2605286322011726, 9.396035249380015, 12.048953980809666,
      17.08144507475659, 9.608968090632859, 3.369076451000815)
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
      7003.325141128051, 55592.30130103949)
_U = (33.56171416475031, 521.3579497801527, 4594.323829709801,
      22629.000061389095, 49267.39426086359)


def exp_each(x):
    """math.exp on each element of the array x, as an array.

    numpy's exp differs from libm's in the last bit on some doubles, so
    every exponential that feeds a quadrature node, an integrand or ndtr
    is libm's.
    """
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


def _polevl(x, c):
    """c[0] x^n + ... + c[n] by Horner's rule; in place on an array."""
    a = x * c[0]
    a += c[1]
    for ci in c[2:]:
        a *= x
        a += ci
    return a


def _p1evl(x, c):
    """x^n + c[0] x^(n-1) + ... + c[n-1], likewise."""
    a = x + c[0]
    for ci in c[1:]:
        a *= x
        a += ci
    return a


def _erf(v):
    """erf(v) for |v| < 1."""
    w = v * v
    return v * _polevl(w, _T) / _p1evl(w, _U)


def _erfc_big(z):
    """erfc(z) for an array of z in [1, _ZMAX]."""
    y = exp_each(-z * z)
    for part, p, q in ((z < 8.0, _P, _Q), (z >= 8.0, _R, _S)):
        if part.any():
            zp = z[part]
            y[part] = y[part] * _polevl(zp, p) / _p1evl(zp, q)
    return y


def ndtr(a):
    """Phi(a), the N(0, 1) CDF, elementwise: a float for a scalar or 0-d
    input, else an array of the input's shape."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRTH
    z = np.abs(x)
    y = np.where(z > _ZMAX, 0.0, np.nan)  # erfc underflows; NaN stays NaN
    low = z < 1.0
    e = _erf(x[low])
    y[low] = 0.5 * (1.0 - np.abs(e))  # erf is odd, so |e| = erf(|x|)
    big = (z >= 1.0) & (z <= _ZMAX)
    y[big] = 0.5 * _erfc_big(z[big])
    y = np.where(x > 0.0, 1.0 - y, y)
    inner = z < _SQRTH
    y[inner] = 0.5 + 0.5 * e[inner[low]]
    y = y.reshape(a.shape)
    return y if y.ndim else float(y)
