"""Tail functionals of a quantile function.

For a model with quantile Q and tail mass s in (0, 1) the package works
with four quantities:

    c(s, beta) = s^{-beta} int_{1-s}^{1} (1-u)^beta dQ(u)      (tail scale)
    sigma2(s)  = int int_{(1-s,1]^2} (min(u,v) - uv) dQ dQ     (variance driver)
    mu(s)      = int_{1-s}^{1} Q(u) du                         (mean mass)
    rho(s)     = int_0^s r(u) du                               (rate integral)

c(s) is shorthand for c(s, 1).  Each functional prefers an exact closed
form when the model provides one and otherwise falls back to adaptive
quadrature in logarithmic tail coordinates.  Two independent quadrature
routes exist for the scale functional and are kept separate on purpose:

* ``method="ibp"`` uses the integrated-by-parts representation, written
  in the cancellation-free form
  c = beta s^{-beta} int_0^s t^{beta-1} (Q(1-t) - Q(1-s)) dt,
  which touches only the quantile function;
* ``method="stieltjes"`` integrates t^beta against the tail density of
  dQ directly and serves as the cross-check route.

The variance driver is evaluated through the exact reduction

    sigma2(s) = 2 int_0^s y q(y) (Q(1-y) - Q(1-s)) dy - rho(s)^2,

obtained from the symmetric double integral by two integrations by
parts; q is the density of dQ in the tail coordinate and rho(s) equals
mu(s) - s Q(1-s) for any differentiable model.

The ibp scale quadrature is memoised: the limit suite asks for c(s,
beta) at one s from several checks.  ``_scale_ibp`` is a
``functools.lru_cache`` of its last 4096 (value, error) results, keyed
on the model object, which hashes and compares by identity (TailModel
defines no ``__eq__``), and on the exact floats s, beta and rel_tol.
Models are treated as immutable, and an entry keeps its model alive
until it is evicted.  A quadrature that raises stores nothing, so the
next request integrates again and raises the same error.  Closed forms
and the other routes are not cached.

Quadrature integrands are batched (see ``quadrature``): each one gets
the nodes of one bisection step and makes one array call per model
quantity (``tail_quantile``, ``tail_density``, ``tail_rate``) for all of
them, whose values equal the scalar ones bit for bit.  The node
transforms and the factors exp(-beta w) stay scalar ``math`` calls:
np.exp differs from math.exp in the last bit on some doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnsupportedModelError
from .models import GUMBEL_DOMAIN, TailModel
from .quadrature import DEFAULT_REL_TOL, log_interval_quad, tail_quad

__all__ = [
    "SGrid",
    "tail_scale",
    "tail_mean",
    "rate_integral",
    "tail_variance",
    "spacing_log_ratio",
    "scale_beta_ratio",
    "variance_scale_ratio",
    "representation_residual",
    "sequence_slowvar_ratio",
    "FunctionalTable",
    "build_functional_table",
]


@dataclass(frozen=True)
class SGrid:
    """A strictly decreasing geometric grid of tail masses in (0, 1/2].

    ``geometry`` remembers the (start, ratio, count) a geometric grid was
    built from, so configs serialize back to exactly the numbers they
    were parsed from; hand-built grids leave it unset.
    """

    points: tuple
    geometry: tuple = field(default=None, compare=False)

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("grid must contain at least one point")
        if any(not 0.0 < p <= 0.5 for p in pts):
            raise ValueError("grid points must lie in (0, 1/2]")
        if any(b >= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly decreasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def geometric(cls, start: float, ratio: float, count: int) -> "SGrid":
        if not 0.0 < ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if count < 1:
            raise ValueError("count must be at least 1")
        return cls(
            tuple(start * ratio**i for i in range(count)),
            geometry=(float(start), float(ratio), int(count)),
        )

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _check_s(s):
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError("tail mass s must lie strictly inside (0, 1)")
    return s


def _quantiles(model, ts):
    """Q(1-t) at the nodes of one bisection step, in one array call."""
    return model.tail_quantile(np.array(ts)).tolist()


def _densities(model, ts):
    """q(t) at the nodes of one bisection step, in one array call; only
    the overflow warning is silenced, never the value."""
    with np.errstate(over="ignore"):
        return model.tail_density(np.array(ts)).tolist()


@functools.lru_cache(maxsize=4096)   # see the module docstring
def _scale_ibp(model, s, beta, rel_tol):
    qs = model.tail_quantile(s)

    def g(ws, ts):
        return [math.exp(-beta * w) * (q - qs)
                for w, q in zip(ws, _quantiles(model, ts))]

    val, err = tail_quad(g, s, rel_tol, what=f"c({s:g},{beta:g}) ibp")
    return beta * val, beta * err


def _scale_stieltjes(model, s, beta, rel_tol):
    def g(ws, ts):
        # q(t) can exceed double range once t is astronomically small
        # (heavy-tailed controls); the e^{-beta w} factor has crushed the
        # true integrand long before that point, so such a node gives 0.
        return [math.exp(-beta * w) * t * d if math.isfinite(d) else 0.0
                for w, t, d in zip(ws, ts, _densities(model, ts))]

    return tail_quad(g, s, rel_tol, what=f"c({s:g},{beta:g}) stieltjes")


def _resolve(model, what, method, with_error, closed, **routes):
    """Closed form if the model has one, else quadrature.

    ``method="auto"`` takes ``closed()`` unless it returns None, and the
    first of ``routes`` then; any other method must name a route and
    forces it.  A route returns (value, error bound); a value that is not
    finite, closed or not, raises "<what> diverges for <model>".
    """
    if method != "auto" and method not in routes:
        raise ValueError(f"unknown method {method!r}")
    val = closed() if method == "auto" else None
    if val is not None:
        val, err = float(val), 0.0
    else:
        val, err = routes[next(iter(routes)) if method == "auto" else method]()
    if not math.isfinite(val):
        raise QuadratureError(f"{what} diverges for {model.describe()}",
                              estimate=val, error_bound=err)
    return (val, err) if with_error else val


def tail_scale(model: TailModel, s, beta: float = 1.0, method: str = "auto",
               rel_tol: float = DEFAULT_REL_TOL, with_error: bool = False):
    """Tail scale c(s, beta); c(s) is the beta = 1 case.

    ``method`` selects the evaluation route: "auto" prefers a closed
    form and falls back to "ibp"; "ibp" and "stieltjes" force the two
    quadrature routes described in the module docstring.
    """
    s = _check_s(s)
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError("beta must be strictly positive")
    return _resolve(model, f"c({s:g},{beta:g})", method, with_error,
                    lambda: model.closed_scale(s, beta),
                    ibp=lambda: _scale_ibp(model, s, beta, rel_tol),
                    stieltjes=lambda: _scale_stieltjes(model, s, beta, rel_tol))


def tail_mean(model: TailModel, s, method: str = "auto",
              rel_tol: float = DEFAULT_REL_TOL, with_error: bool = False):
    """Mean mass mu(s) = int_{1-s}^1 Q(u) du of the top s fraction."""
    s = _check_s(s)
    return _resolve(model, f"mu({s:g})", method, with_error,
                    lambda: model.closed_mean_mass(s),
                    quadrature=lambda: tail_quad(
                        lambda ws, ts: [t * q for t, q in
                                        zip(ts, _quantiles(model, ts))],
                        s, rel_tol, what=f"mu({s:g})"))


def rate_integral(model: TailModel, s, extended: bool = False,
                  method: str = "auto", rel_tol: float = DEFAULT_REL_TOL,
                  with_error: bool = False):
    """Rate integral rho(s) = int_0^s r(u) du.

    Models without an analytic slowly varying rate raise unless
    ``extended`` is set, in which case the identity
    rho(s) = mu(s) - s Q(1-s) supplies the value, with ``method``
    passed on to the mean mass.
    """
    s = _check_s(s)
    if model.has_tail_rate:
        return _resolve(model, f"rho({s:g})", method, with_error,
                        lambda: model.closed_rate_integral(s),
                        quadrature=lambda: tail_quad(
                            lambda ws, us: [u * r for u, r in zip(
                                us, model.tail_rate(np.array(us)).tolist())],
                            s, rel_tol, what=f"rho({s:g})"))
    if not extended:
        raise UnsupportedModelError(
            f"{model.describe()} has no analytic tail rate; "
            "pass extended=True for the mean-mass identity"
        )
    mu, mu_err = tail_mean(model, s, method=method, rel_tol=rel_tol,
                           with_error=True)
    val = mu - s * model.tail_quantile(s)
    return (val, mu_err) if with_error else val


def _variance_quad(model, s, rel_tol):
    rho, rho_err = rate_integral(model, s, extended=True, rel_tol=rel_tol,
                                 with_error=True)
    qs = model.tail_quantile(s)

    def g(ws, ys):
        # an inf density is the honest divergence signal (heavy tails)
        return [y * (y * d) * (q - qs) for y, d, q in
                zip(ys, _densities(model, ys), _quantiles(model, ys))]

    j2, j2_err = tail_quad(g, s, rel_tol, what=f"sigma2({s:g})")
    return 2.0 * j2 - rho * rho, 2.0 * j2_err + 2.0 * abs(rho) * rho_err


def tail_variance(model: TailModel, s, method: str = "auto",
                  rel_tol: float = DEFAULT_REL_TOL, with_error: bool = False):
    """Variance driver sigma2(s) of the extreme-sum limit theorem."""
    s = _check_s(s)
    return _resolve(model, f"sigma2({s:g})", method, with_error,
                    lambda: model.closed_variance(s),
                    quadrature=lambda: _variance_quad(model, s, rel_tol))


# -- limit ratios -------------------------------------------------------


def spacing_log_ratio(model: TailModel, s, x: float) -> float:
    """(Q(1-xs) - Q(1-s)) / c(s); tends to -ln x in the Gumbel domain."""
    s = _check_s(s)
    x = float(x)
    if not x > 0.0:
        raise ValueError("x must be strictly positive")
    _check_s(x * s)
    num = model.tail_quantile(x * s) - model.tail_quantile(s)
    return num / tail_scale(model, s)


def scale_beta_ratio(model: TailModel, s, beta: float) -> float:
    """c(s, beta) / c(s); tends to 1/beta in the Gumbel domain."""
    return tail_scale(model, s, beta) / tail_scale(model, s)


def variance_scale_ratio(model: TailModel, s) -> float:
    """sigma2(s) / (2 s c(s)^2); tends to 1 in the Gumbel domain."""
    s = _check_s(s)
    c = tail_scale(model, s)
    return tail_variance(model, s) / (2.0 * s * c * c)


def representation_residual(model: TailModel, s, anchor: float = 0.25,
                            rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Defect of the exact scale representation of the tail quantile.

    The representation Q(1-s) = b - c(s) + int_s^1 u^{-1} c(u) du holds
    with a single constant b; fitting b at ``anchor`` and subtracting
    leaves the anchored residual

        | Q(1-s) - Q(1-anchor) + c(s) - c(anchor) - int_s^anchor c(u)/u du |

    which is pure quadrature noise for any differentiable model.
    """
    s = _check_s(s)
    anchor = _check_s(anchor)
    if not s < anchor:
        raise ValueError("need s < anchor")

    integral, _ = log_interval_quad(
        lambda us: [tail_scale(model, u, rel_tol=rel_tol) / u for u in us],
        s, anchor, rel_tol=max(rel_tol, 1e-10),
        what=f"int c(u)/u over ({s:g},{anchor:g})",
    )
    lhs = model.tail_quantile(s) - model.tail_quantile(anchor)
    rhs = -tail_scale(model, s, rel_tol=rel_tol) + tail_scale(model, anchor, rel_tol=rel_tol) + integral
    return abs(lhs - rhs)


def sequence_slowvar_ratio(slowvar, beta: float, a_of_n, n) -> float:
    """n^{-beta} L(1/n) / (a_n^beta L(a_n)) for a slowly varying L.

    ``slowvar`` maps a tail mass to L; ``a_of_n`` maps n to the sequence
    a_n with a_n -> 0 and n a_n -> infinity.  The ratio tends to zero,
    which is what makes n^{-beta}-sized remainders negligible against
    a_n-sized tail blocks.
    """
    n = float(n)
    a_n = float(a_of_n(n))
    if not 0.0 < a_n < 1.0:
        raise ValueError("a_n must fall in (0, 1)")
    return n ** (-beta) * slowvar(1.0 / n) / (a_n**beta * slowvar(a_n))


# -- tabulation ---------------------------------------------------------


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class FunctionalTable:
    """Functionals evaluated on a grid, with per-entry error estimates."""

    model: TailModel
    grid: SGrid
    betas: tuple
    columns: dict          # name -> list of floats (nan where flagged)
    errors: dict           # name -> list of error bounds (inf where flagged)
    notes: list            # human-readable flags for failed entries

    @property
    def column_order(self):
        return ["s", *self.columns, "err_max"]

    def err_max(self, i: int) -> float:
        errs = [self.errors[name][i] for name in self.errors]
        return max(errs) if errs else 0.0

    def to_csv(self, fh) -> None:
        """Write the table; deterministic order and 17 significant digits."""
        if self.model.domain_label != GUMBEL_DOMAIN:
            fh.write(
                f"# warning: {self.model.describe()} has domain label "
                f"{self.model.domain_label}; tail functionals target Gumbel-domain models\n"
            )
        names = self.column_order
        fh.write(",".join(names) + "\n")
        for i, s in enumerate(self.grid.points):
            row = []
            for name in names:
                if name == "s":
                    row.append(_fmt17(s))
                elif name == "err_max":
                    row.append(_fmt17(self.err_max(i)))
                else:
                    row.append(_fmt17(self.columns[name][i]))
            fh.write(",".join(row) + "\n")


def build_functional_table(model: TailModel, grid: SGrid, betas=(),
                           rel_tol: float = DEFAULT_REL_TOL) -> FunctionalTable:
    """Evaluate c, c(., beta), sigma2, mu (and rho when analytic) on a grid.

    Entries whose quadrature fails or diverges are flagged with NaN and
    an infinite error bound; the build itself never aborts.
    """
    betas = tuple(sorted(float(b) for b in betas))
    specs = [("c", tail_scale, ())]
    specs += [(f"c_beta_{format(b, 'g')}", tail_scale, (b,)) for b in betas]
    specs += [("sigma2", tail_variance, ()), ("mu", tail_mean, ())]
    if model.has_tail_rate:
        specs.append(("rho", rate_integral, ()))
    columns = {name: [] for name, _, _ in specs}
    errors = {name: [] for name, _, _ in specs}
    notes: list = []
    for s in grid.points:
        for name, fn, args in specs:
            try:
                val, err = fn(model, s, *args, rel_tol=rel_tol, with_error=True)
            except (QuadratureError, UnsupportedModelError) as exc:
                notes.append(f"{name} at s={format(s, 'g')}: {exc}")
                val, err = math.nan, math.inf
            columns[name].append(val)
            errors[name].append(err)

    return FunctionalTable(model=model, grid=grid, betas=betas,
                           columns=columns, errors=errors, notes=notes)
