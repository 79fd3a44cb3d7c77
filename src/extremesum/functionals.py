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

``tail_scale``, ``tail_mean``, ``rate_integral`` and ``tail_variance``
take a tail mass or an array of them; an array gives arrays of its shape
(a scalar gives a float).  The quadratures an array call needs run in
one lockstep batch (see ``quadrature``), and each value and error bound
equals the bits of the scalar call for that s.  An array that holds a
failing s raises the QuadratureError the scalar call for the first such
s raises.  Inside, each functional maps its list of s to per-s outcomes,
(value, error) or the QuadratureError, and the public call settles them;
``build_functional_table`` flags failed entries from the outcomes, and
the limit ratios read them s by s in the order the scalar calls would
raise.

The ibp scale quadrature is memoised: the limit suite asks for c(s,
beta) at one s from several checks.  ``_IBP_CACHE`` holds the last 4096
(value, error) results, least recently used evicted first, keyed on the
model object, which hashes and compares by identity (TailModel defines
no ``__eq__``), and on the exact floats s, beta and rel_tol.  Each key of
an array call is looked up on its own; the misses are integrated in one
batch, a repeated key only once.  Models are treated as immutable, and
an entry keeps its model alive until it is evicted.  A quadrature that
fails stores nothing, so the next request integrates again and raises
the same error.  Closed forms and the other routes are not cached.

Each integrand call gets the nodes of one round, every unfinished
quadrature of the batch, and makes one array call per model quantity
(``tail_quantile``, ``tail_density``, ``tail_rate``), whose values equal
the scalar ones bit for bit.  The factors exp(-beta w) stay libm's
(``quadrature.exp_each``): np.exp differs from math.exp in the last bit
on some doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnsupportedModelError
from .models import GUMBEL_DOMAIN, TailModel
from .quadrature import DEFAULT_REL_TOL, exp_each, log_interval_quad, tail_quads

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


def _masses(s):
    """s as a list of checked tail masses, and its shape (None for a scalar)."""
    arr = np.asarray(s, dtype=float)
    return [_check_s(x) for x in arr.ravel().tolist()], (arr.shape if arr.ndim else None)


def _shaped(vals, shape):
    """A list of floats as the caller's shape: a float for a scalar."""
    return vals[0] if shape is None else np.array(vals).reshape(shape)


def _values(*columns):
    """The values of per-s outcome lists, read s by s in argument order;
    raises the first QuadratureError met that way, the one a scalar call
    per s would raise."""
    for row in zip(*columns):
        for out in row:
            if isinstance(out, QuadratureError):
                raise out
    return [[val for val, _ in col] for col in columns]


def _settle(outs, shape, with_error):
    """A functional's return value from its per-s outcomes."""
    vals = _shaped(_values(outs)[0], shape)
    return (vals, _shaped([err for _, err in outs], shape)) if with_error else vals


def _densities(model, ts):
    """q(t) at the nodes of one round, in one array call; only the
    overflow warning is silenced, never the value."""
    with np.errstate(over="ignore"):
        return model.tail_density(ts)


_IBP_CACHE: dict = {}   # see the module docstring
_IBP_CACHE_SIZE = 4096


def _scale_ibp(model, ss, beta, rel_tol):
    keys = [(model, s, beta, rel_tol) for s in ss]
    found = {key: _IBP_CACHE.pop(key) for key in keys if key in _IBP_CACHE}
    _IBP_CACHE.update(found)   # hits become the most recently used
    misses = [key for key in dict.fromkeys(keys) if key not in found]
    if misses:
        todo = [s for _, s, _, _ in misses]
        qs = model.tail_quantile(np.array(todo))

        def g(rows, ws, ts):
            return exp_each(-beta * ws) * (model.tail_quantile(ts) - qs[rows])

        outs = tail_quads(g, todo, rel_tol, [f"c({s:g},{beta:g}) ibp" for s in todo])
        for key, out in zip(misses, outs):
            if isinstance(out, QuadratureError):
                found[key] = out   # never stored
            else:
                found[key] = _IBP_CACHE[key] = (beta * out[0], beta * out[1])
        while len(_IBP_CACHE) > _IBP_CACHE_SIZE:
            del _IBP_CACHE[next(iter(_IBP_CACHE))]   # least recently used
    return [found[key] for key in keys]


def _scale_stieltjes(model, ss, beta, rel_tol):
    def g(rows, ws, ts):
        # q(t) can exceed double range once t is astronomically small
        # (heavy-tailed controls); the e^{-beta w} factor has crushed the
        # true integrand long before that point, so such a node gives 0.
        d = _densities(model, ts)
        vals = np.zeros(d.size)
        ok = np.isfinite(d)
        vals[ok] = exp_each(-beta * ws[ok]) * ts[ok] * d[ok]
        return vals

    return tail_quads(g, ss, rel_tol, [f"c({s:g},{beta:g}) stieltjes" for s in ss])


def _resolve(model, what, ss, method, closed, **routes):
    """Per-s outcomes: the closed form where the model has one, else
    quadrature.

    ``method="auto"`` takes ``closed(s)`` unless it returns None, and the
    first of ``routes`` for the other s; any other method must name a
    route and forces it.  A route maps a list of s to their outcomes,
    integrated in one lockstep batch.  An outcome is (value, error bound)
    or a QuadratureError; a value that is not finite, closed or not,
    becomes "<what(s)> diverges for <model>".
    """
    if method != "auto" and method not in routes:
        raise ValueError(f"unknown method {method!r}")
    outs = [None] * len(ss)
    if method == "auto":
        for i, s in enumerate(ss):
            val = closed(s)
            if val is not None:
                outs[i] = (float(val), 0.0)
    rest = [i for i, out in enumerate(outs) if out is None]
    if rest:
        route = routes[next(iter(routes)) if method == "auto" else method]
        for i, out in zip(rest, route([ss[i] for i in rest])):
            outs[i] = out
    for i, out in enumerate(outs):
        if not isinstance(out, QuadratureError) and not math.isfinite(out[0]):
            outs[i] = QuadratureError(f"{what(ss[i])} diverges for {model.describe()}",
                                      estimate=out[0], error_bound=out[1])
    return outs


def _scale(model, ss, beta, method="auto", rel_tol=DEFAULT_REL_TOL):
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError("beta must be strictly positive")
    return _resolve(model, lambda s: f"c({s:g},{beta:g})", ss, method,
                    lambda s: model.closed_scale(s, beta),
                    ibp=lambda ss: _scale_ibp(model, ss, beta, rel_tol),
                    stieltjes=lambda ss: _scale_stieltjes(model, ss, beta, rel_tol))


def tail_scale(model: TailModel, s, beta: float = 1.0, method: str = "auto",
               rel_tol: float = DEFAULT_REL_TOL, with_error: bool = False):
    """Tail scale c(s, beta); c(s) is the beta = 1 case.

    ``s`` is a tail mass or an array of them; an array gives arrays of its
    shape and integrates its quadratures together.  ``method`` selects the
    evaluation route: "auto" prefers a closed form and falls back to
    "ibp"; "ibp" and "stieltjes" force the two quadrature routes described
    in the module docstring.
    """
    ss, shape = _masses(s)
    return _settle(_scale(model, ss, beta, method, rel_tol), shape, with_error)


def _mean(model, ss, method="auto", rel_tol=DEFAULT_REL_TOL):
    return _resolve(model, lambda s: f"mu({s:g})", ss, method, model.closed_mean_mass,
                    quadrature=lambda ss: tail_quads(
                        lambda rows, ws, ts: ts * model.tail_quantile(ts),
                        ss, rel_tol, [f"mu({s:g})" for s in ss]))


def tail_mean(model: TailModel, s, method: str = "auto",
              rel_tol: float = DEFAULT_REL_TOL, with_error: bool = False):
    """Mean mass mu(s) = int_{1-s}^1 Q(u) du of the top s fraction."""
    ss, shape = _masses(s)
    return _settle(_mean(model, ss, method, rel_tol), shape, with_error)


def _rate(model, ss, extended=False, method="auto", rel_tol=DEFAULT_REL_TOL):
    if model.has_tail_rate:
        return _resolve(model, lambda s: f"rho({s:g})", ss, method,
                        model.closed_rate_integral,
                        quadrature=lambda ss: tail_quads(
                            lambda rows, ws, us: us * model.tail_rate(us),
                            ss, rel_tol, [f"rho({s:g})" for s in ss]))
    if not extended:
        raise UnsupportedModelError(
            f"{model.describe()} has no analytic tail rate; "
            "pass extended=True for the mean-mass identity"
        )
    mus = _mean(model, ss, method, rel_tol)
    qs = model.tail_quantile(np.array(ss)).tolist()
    return [mu if isinstance(mu, QuadratureError) else (mu[0] - s * q, mu[1])
            for s, q, mu in zip(ss, qs, mus)]


def rate_integral(model: TailModel, s, extended: bool = False,
                  method: str = "auto", rel_tol: float = DEFAULT_REL_TOL,
                  with_error: bool = False):
    """Rate integral rho(s) = int_0^s r(u) du.

    Models without an analytic slowly varying rate raise unless
    ``extended`` is set, in which case the identity
    rho(s) = mu(s) - s Q(1-s) supplies the value, with ``method``
    passed on to the mean mass.
    """
    ss, shape = _masses(s)
    return _settle(_rate(model, ss, extended, method, rel_tol), shape, with_error)


def _variance_quad(model, ss, rel_tol):
    outs = _rate(model, ss, extended=True, rel_tol=rel_tol)
    live = [i for i, out in enumerate(outs) if not isinstance(out, QuadratureError)]
    todo = [ss[i] for i in live]
    qs = model.tail_quantile(np.array(todo))

    def g(rows, ws, ys):
        # an inf density is the honest divergence signal (heavy tails)
        d, q = _densities(model, ys), model.tail_quantile(ys)
        with np.errstate(over="ignore", invalid="ignore"):   # as Python floats
            return ys * (ys * d) * (q - qs[rows])

    j2s = tail_quads(g, todo, rel_tol, [f"sigma2({s:g})" for s in todo])
    for i, j2 in zip(live, j2s):
        rho, rho_err = outs[i]
        outs[i] = j2 if isinstance(j2, QuadratureError) else (
            2.0 * j2[0] - rho * rho, 2.0 * j2[1] + 2.0 * abs(rho) * rho_err)
    return outs


def _variance(model, ss, method="auto", rel_tol=DEFAULT_REL_TOL):
    return _resolve(model, lambda s: f"sigma2({s:g})", ss, method,
                    model.closed_variance,
                    quadrature=lambda ss: _variance_quad(model, ss, rel_tol))


def tail_variance(model: TailModel, s, method: str = "auto",
                  rel_tol: float = DEFAULT_REL_TOL, with_error: bool = False):
    """Variance driver sigma2(s) of the extreme-sum limit theorem."""
    ss, shape = _masses(s)
    return _settle(_variance(model, ss, method, rel_tol), shape, with_error)


# -- limit ratios -------------------------------------------------------
#
# Each ratio takes a tail mass or an array of them.  An array integrates
# each functional once for all its s and raises the error that the first
# failing scalar call would raise.


def _ratios(nums, dens, shape):
    # Python division, as for scalars: a zero denominator raises
    return _shaped([a / b for a, b in zip(nums, dens)], shape)


def spacing_log_ratio(model: TailModel, s, x: float):
    """(Q(1-xs) - Q(1-s)) / c(s); tends to -ln x in the Gumbel domain."""
    ss, shape = _masses(s)
    x = float(x)
    if not x > 0.0:
        raise ValueError("x must be strictly positive")
    xs = [_check_s(x * s) for s in ss]
    nums = (model.tail_quantile(np.array(xs)) - model.tail_quantile(np.array(ss))).tolist()
    return _ratios(nums, *_values(_scale(model, ss, 1.0)), shape)


def scale_beta_ratio(model: TailModel, s, beta: float):
    """c(s, beta) / c(s); tends to 1/beta in the Gumbel domain."""
    ss, shape = _masses(s)
    return _ratios(*_values(_scale(model, ss, beta), _scale(model, ss, 1.0)), shape)


def variance_scale_ratio(model: TailModel, s):
    """sigma2(s) / (2 s c(s)^2); tends to 1 in the Gumbel domain."""
    ss, shape = _masses(s)
    cs, sig = _values(_scale(model, ss, 1.0), _variance(model, ss))
    return _ratios(sig, [2.0 * s * c * c for s, c in zip(ss, cs)], shape)


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

    def integrand(us):
        us = np.array(us)
        return (tail_scale(model, us, rel_tol=rel_tol) / us).tolist()

    integral, _ = log_interval_quad(
        integrand, s, anchor, rel_tol=max(rel_tol, 1e-10),
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
    ss = list(grid.points)
    specs = [("c", lambda: _scale(model, ss, 1.0, rel_tol=rel_tol))]
    specs += [(f"c_beta_{format(b, 'g')}", lambda b=b: _scale(model, ss, b, rel_tol=rel_tol))
              for b in betas]
    specs += [("sigma2", lambda: _variance(model, ss, rel_tol=rel_tol)),
              ("mu", lambda: _mean(model, ss, rel_tol=rel_tol))]
    if model.has_tail_rate:
        specs.append(("rho", lambda: _rate(model, ss, rel_tol=rel_tol)))
    # one call per column; its entries are flagged one by one, s by s
    outcomes = {}
    for name, column in specs:
        try:
            outcomes[name] = column()
        except UnsupportedModelError as exc:
            outcomes[name] = [exc] * len(ss)
    columns = {name: [] for name, _ in specs}
    errors = {name: [] for name, _ in specs}
    notes: list = []
    for i, s in enumerate(ss):
        for name, outs in outcomes.items():
            out = outs[i]
            if isinstance(out, (QuadratureError, UnsupportedModelError)):
                notes.append(f"{name} at s={format(s, 'g')}: {out}")
                out = (math.nan, math.inf)
            columns[name].append(out[0])
            errors[name].append(out[1])

    return FunctionalTable(model=model, grid=grid, betas=betas,
                           columns=columns, errors=errors, notes=notes)
