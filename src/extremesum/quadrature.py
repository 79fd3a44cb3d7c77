"""Adaptive quadrature in logarithmic tail coordinates.

All tail integrals in this package have the form int_0^s f(t) dt with an
integrand that is smooth on a log scale but steep near t = 0.  The
substitution t = s e^{-w} turns them into semi-infinite integrals with
exponentially decaying integrands, which the adaptive Gauss-Kronrod
machinery resolves quickly and with reliable error estimates.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import QuadratureError

__all__ = ["DEFAULT_REL_TOL", "semiinf_quad", "log_interval_quad", "tail_quad"]

DEFAULT_REL_TOL = 1e-11

# QUADPACK is asked for pure relative accuracy; the absolute floor only
# protects integrals that are themselves denormal-small.
_ABS_FLOOR = 1e-290


def _run_quad(fn, lo, hi, rel_tol, what):
    out = quad(fn, lo, hi, epsabs=_ABS_FLOOR, epsrel=rel_tol, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        # QUADPACK attached a warning message: accuracy not certified.
        tol = max(_ABS_FLOOR, rel_tol * abs(value))
        if not math.isfinite(value) or abserr > 100.0 * tol:
            raise QuadratureError(
                f"{what}: quadrature did not converge ({out[3].splitlines()[0]})",
                estimate=value,
                error_bound=abserr,
            )
    if not math.isfinite(value):
        raise QuadratureError(f"{what}: integral is not finite", estimate=value)
    return float(value), float(abserr)


def semiinf_quad(fn, rel_tol=DEFAULT_REL_TOL, what="integral"):
    """int_0^inf fn(w) dw with error estimate; raises QuadratureError on failure."""
    return _run_quad(fn, 0.0, math.inf, rel_tol, what)


def log_interval_quad(fn, a, b, rel_tol=DEFAULT_REL_TOL, what="integral"):
    """int_a^b fn(u) du for 0 < a < b < 1, integrated on the log scale u = e^{-y}."""
    if not 0.0 < a < b < 1.0:
        raise ValueError("need 0 < a < b < 1")

    def g(y):
        u = math.exp(-y)
        return u * fn(u)

    return _run_quad(g, -math.log(b), -math.log(a), rel_tol, what)


def tail_quad(fn, s, rel_tol=DEFAULT_REL_TOL, what="tail integral"):
    """int_0^inf fn(w, t) dw along the substitution t = s e^{-w}.

    ``fn`` sees both coordinates and is only evaluated at strictly
    positive t; underflow past the smallest subnormal contributes exactly
    zero.  A tail integral int_0^s f(t) dt is ``fn = lambda w, t: t * f(t)``.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("need 0 < s < 1")

    def g(w):
        t = s * math.exp(-w)
        if t <= 0.0:
            return 0.0
        return fn(w, t)

    return semiinf_quad(g, rel_tol, what=what)
