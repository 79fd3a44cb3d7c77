"""Finite-s limit checks for tail-sum asymptotics.

Every limit used by the package is an s -> 0 statement.  None of them can
be "proved" numerically, so each check evaluates its ratio on a decreasing
grid and passes or fails on the final (smallest) grid point only; the rest
of the sequence is kept in the report as evidence.  Tolerances default to
per-model convergence classes: models whose tail functionals have elementary
closed forms converge exponentially fast and get tight tolerances, models
with log-type tails converge like a power of 1/log(1/s) and get loose ones.
That power differs within the class: the Weibull(2) spacing error is about
-0.467/ln(1/s), but the LogNormal converges only like 1/sqrt(2 ln(1/s)),
so its beta = 0.5 scale ratio still sits 0.417 above its limit 2 at
s = 1e-6 and fails the loose tolerance at desk s.

The suite runs check by check over all the models it is given, and each
functional step of a check is one request across every model and grid
point (per beta, and over the grid and its lambda-scaled copies for slow
variation), so the quadratures of all the models run in lockstep.  The
representation residual's outer quadratures run in one lockstep too, and
each of their rounds requests c(u) at every model's nodes at once.  A
row fails with the error its first failing point would raise in a scalar
evaluation of the grid; an error one model raises outside its outcomes
is isolated by running that request model by model, so it fails only
that model's rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, UnsupportedModelError
from .functionals import (
    SGrid,
    _ratios,
    _residuals,
    _scale,
    _spacings,
    _values,
    _variance,
    _variance_ratios,
    sequence_slowvar_ratio,
)
from .models import TailModel


@dataclass(frozen=True)
class LimitCheckReport:
    """Ratio sequence over a decreasing grid plus a single-point verdict.

    ``values[i]`` is the check quantity at ``grid[i]``; the verdict compares
    only the final value against ``target`` within ``tolerance``.  Grid
    points that could not be evaluated are dropped from both tuples (with a
    warning at evaluation time) and mentioned in ``note``.
    """

    check_id: str
    model: str
    params: tuple
    grid: tuple
    values: tuple
    target: float
    tolerance: float
    note: str = ""

    @property
    def final_error(self) -> float:
        if not self.values:
            return math.inf
        v = self.values[-1]
        if not math.isfinite(v):
            return math.inf
        return abs(v - self.target)

    @property
    def passed(self) -> bool:
        return self.final_error <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def row(self):
        """Flat tuple for CSV emission: one row per report, final point."""
        s_final = self.grid[-1] if self.grid else float("nan")
        v_final = self.values[-1] if self.values else float("nan")
        return (
            self.check_id,
            self.model,
            ";".join(f"{k}={format(v, 'g')}" for k, v in self.params),
            s_final,
            v_final,
            self.target,
            self.tolerance,
            self.final_error,
            self.verdict,
        )


CSV_HEADER = (
    "check_id",
    "model",
    "params",
    "s",
    "value",
    "target",
    "tolerance",
    "error",
    "verdict",
)


def _default_grid(stop: float, count: int = 5) -> SGrid:
    # geometric descent to `stop`, up to rounding: SGrid.geometric builds
    # start * 0.1**i, so the last point of _default_grid(1e-6) is
    # 1.0000000000000002e-06, the s_final that limit_checks.csv prints
    start = stop * 10.0 ** (count - 1)
    if start > 0.5:
        raise ValueError("grid start above 1/2; pick a smaller stop or count")
    return SGrid.geometric(start, 0.1, count)


def domain_check(
    model: TailModel,
    probe=(4.0, 1.0, 2.0, 1.0),
    grid: SGrid | None = None,
    tol: float = 0.2,
) -> LimitCheckReport:
    """Quantile-spacing ratio test for a log-type (Gumbel) tail.

    For tail masses s*x, s*z against s*y, s*w the spacing ratio

        (Q(1-sx) - Q(1-sz)) / (Q(1-sy) - Q(1-sw))

    tends to (ln x - ln z)/(ln y - ln w) exactly when the tail lives in
    the Gumbel domain.  Polynomial tails (Pareto) and finite endpoints
    (Uniform) settle on a different constant, which is what makes this a
    usable domain probe rather than a fit.

    Grid points where some scaled mass leaves (0,1) or the denominator
    vanishes are excluded with a warning.
    """
    x, z, y, w = (float(p) for p in probe)
    for p in (x, z, y, w):
        if p < 0.0:
            raise ValueError("probe entries must be nonnegative")
    if y == w:
        raise ValueError("probe needs y != w for a nonzero denominator")
    if min(x, z) <= 0.0 or min(y, w) <= 0.0:
        raise ValueError("zero probe entries hit Q(1-0); use positive values")
    if grid is None:
        grid = _default_grid(1e-6)
    target = (math.log(x) - math.log(z)) / (math.log(y) - math.log(w))

    ss = np.array(grid.points, dtype=float)
    ss = ss[np.logical_and.reduce([(p * ss > 0.0) & (p * ss < 1.0) for p in (x, z, y, w)])]
    # one array call per probe mass; each element is the scalar call's value
    qx, qz, qy, qw = (model.tail_quantile(p * ss) for p in (x, z, y, w))
    with np.errstate(invalid="ignore"):   # inf - inf is dropped below
        num, den = qx - qz, qy - qw
    kept = (den != 0.0) & np.isfinite(num) & np.isfinite(den)
    kept_s = ss[kept].tolist()
    kept_v = (num[kept] / den[kept]).tolist()
    note = ""
    if len(kept_s) < len(grid.points):
        note = "excluded %d grid point(s)" % (len(grid.points) - len(kept_s))
        warnings.warn(
            f"domain_check({model.describe()}): {note}", stacklevel=2
        )
    return LimitCheckReport(
        check_id="domain_ratio",
        model=model.describe(),
        params=(("x", x), ("z", z), ("y", y), ("w", w)),
        grid=tuple(kept_s),
        values=tuple(kept_v),
        target=target,
        tolerance=float(tol),
        note=note,
    )


def slow_variation_check(f, lam: float, grid: SGrid, tol: float) -> LimitCheckReport:
    """Report f(lam*s)/f(s) over the grid against target 1.

    ``f`` must be strictly positive wherever it is sampled; a nonpositive
    value is an error, not a failed check, because the ratio stops being
    meaningful entirely.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    values = []
    for s in grid.points:
        if not 0.0 < lam * s < 1.0:
            raise ValueError(f"lam*s = {lam * s:g} leaves (0,1)")
        fs = float(f(s))
        fls = float(f(lam * s))
        if fs <= 0.0 or fls <= 0.0:
            raise ValueError("f must be strictly positive on the grid")
        values.append(fls / fs)
    return LimitCheckReport(
        check_id="scale_slow_variation",
        model="-",
        params=(("lam", lam),),
        grid=grid.points,
        values=tuple(values),
        target=1.0,
        tolerance=float(tol),
    )


# -- default suite ------------------------------------------------------
#
# Each check id maps to a function of (models, betas) that makes its
# functional requests across all the models at once and returns, for
# each model, one (params, run) pair per report row; run() reads that
# model's outcomes and returns (grid, values, target, note), or raises
# the error of its first failing point.  run_limit_suite supplies the rest.

# The errors that fail a row, not the suite.
_FAILURES = (QuadratureError, UnsupportedModelError, ValueError)


def _split(compute, models, failure):
    """compute(models), one entry per model.  If it raises, each model is
    computed alone, and a model that raises alone gets the entry
    failure(error): one model's error never fails another's rows."""
    try:
        return compute(models)
    except _FAILURES as exc:
        if len(models) == 1:
            return [failure(exc)]
        return [entry for model in models for entry in _split(compute, [model], failure)]


def _outcomes(request, models, ss, *args):
    """The outcomes of one request over every (model, s) pair, per model."""
    def compute(models):
        outs = request([(model, s) for model in models for s in ss], *args)
        return [outs[k * len(ss):(k + 1) * len(ss)] for k in range(len(models))]

    return _split(compute, models, lambda exc: [exc] * len(ss))


def _raising(exc):
    def run():
        raise exc

    return run


def _lookup(points, outs):
    """The value at each of ``points`` from its outcome, as a function
    that raises the point's error."""
    table = dict(zip(points, outs))
    return lambda s: _values([table[s]])[0][0]


def _row(grid, ratios, target):
    return lambda: (grid.points, tuple(ratios()), target, "")


def _fields(rep: LimitCheckReport):
    return rep.grid, rep.values, rep.target, rep.note


def _domain_ratio(models, betas):
    probe = (4.0, 1.0, 2.0, 1.0)
    return [[(tuple(zip("xzyw", probe)), lambda m=m: _fields(domain_check(m, probe)))]
            for m in models]


def _scale_slow_variation(models, betas):
    grid = _default_grid(1e-6)
    lams = (0.5, 2.0)
    points = [p for s in grid.points for p in (s, *(lam * s for lam in lams))]
    # one request per beta, shared by its lam rows
    scales = {beta: _outcomes(_scale, models, points, beta) for beta in (1.0, *betas)}

    def run(outs, lam):
        # the suite applies its own tolerance; the report's is discarded
        return lambda: _fields(slow_variation_check(_lookup(points, outs), lam, grid, 0.0))

    return [[((("beta", beta), ("lam", lam)), run(scales[beta][k], lam))
             for beta in (1.0, *betas) for lam in lams] for k in range(len(models))]


def _representation_residual(models, betas):
    grid = SGrid((1e-4,))
    return [[((("anchor", 0.25),), _row(grid, lambda res=res: [res()], 0.0))]
            for res in _split(lambda ms: _residuals(ms, 1e-4, 0.25), models, _raising)]


def _spacing_log_limit(models, betas):
    grid = _default_grid(1e-8)
    return [[((("x", 2.0),), _row(
        grid, lambda m=m, cs=cs: _spacings(m, grid.points, 2.0, cs), -math.log(2.0)))]
        for m, cs in zip(models, _outcomes(_scale, models, grid.points, 1.0))]


def _scale_beta_limit(models, betas):
    grid = _default_grid(1e-6)
    ones = _outcomes(_scale, models, grid.points, 1.0)
    per_beta = [(b, _outcomes(_scale, models, grid.points, b)) for b in betas]
    return [[((("beta", b),), _row(grid, lambda cb=cbs[k], c1=ones[k]: _ratios(
        *_values(cb, c1)), 1.0 / b)) for b, cbs in per_beta] for k in range(len(models))]


def _variance_scale_limit(models, betas):
    grid = _default_grid(1e-4, count=3)
    cs = _outcomes(_scale, models, grid.points, 1.0)
    sigmas = _outcomes(_variance, models, grid.points)
    return [[((), _row(grid, lambda c=c, sig=sig: _variance_ratios(grid.points, c, sig),
                       1.0))] for c, sig in zip(cs, sigmas)]


def _sequence_slowvar_limit(models, betas):
    # grid s = 1/n for n = 1e2, 1e4, 1e6; each reciprocal round-trips exactly
    grid = SGrid((1e-2, 1e-4, 1e-6))
    ns = [1.0 / s for s in grid.points]
    points = [u for n in ns for u in (1.0 / n, n**-0.5)]   # c(1/n) and c(a_n)

    def ratios(c):
        return [sequence_slowvar_ratio(c, 1.0, lambda m: m**-0.5, n) for n in ns]

    return [[((("beta", 1.0),), _row(grid, lambda c=_lookup(points, outs): ratios(c), 0.0))]
            for outs in _outcomes(_scale, models, points, 1.0)]


def _rate_scale_limit(models, betas):
    # no analytic rate, no quantity to test: the check yields no row
    grid = _default_grid(1e-6)
    rated = [m for m in models if m.has_tail_rate]
    cs = dict(zip(rated, _outcomes(_scale, rated, grid.points, 1.0)))
    ss = np.array(grid.points)
    return [[((), _row(grid, lambda m=m: (m.tail_rate(ss) / np.array(
        _values(cs[m])[0])).tolist(), 1.0))] if m.has_tail_rate else [] for m in models]


_CHECKS = {
    "domain_ratio": _domain_ratio,
    "scale_slow_variation": _scale_slow_variation,
    "representation_residual": _representation_residual,
    "spacing_log_limit": _spacing_log_limit,
    "scale_beta_limit": _scale_beta_limit,
    "variance_scale_limit": _variance_scale_limit,
    "sequence_slowvar_limit": _sequence_slowvar_limit,
    "rate_scale_limit": _rate_scale_limit,
}

DEFAULT_CHECKS = tuple(_CHECKS)

# Models with elementary closed-form tail functionals converge to their
# limits exponentially fast in ln(1/s); everything else in the catalog has
# a log-type tail and needs loose tolerances: O(1/log(1/s)) convergence for
# Weibull-type quantiles, only O(1/sqrt(log(1/s))) for the LogNormal.
_EXACT_CLASS = ("exponential", "gumbel")

_CLASS_TOL = {
    "exact": {
        "domain_ratio": 0.2,
        "scale_slow_variation": 1e-3,
        "representation_residual": 1e-6,
        "spacing_log_limit": 1e-3,
        "scale_beta_limit": 1e-3,
        "variance_scale_limit": 1e-3,
        "sequence_slowvar_limit": 0.01,
        "rate_scale_limit": 1e-3,
    },
    "log": {
        "domain_ratio": 0.2,
        "scale_slow_variation": 0.05,
        "representation_residual": 1e-6,
        "spacing_log_limit": 0.05,
        "scale_beta_limit": 0.1,
        "variance_scale_limit": 0.05,
        "sequence_slowvar_limit": 0.01,
        "rate_scale_limit": 0.05,
    },
}


def convergence_class(model: TailModel) -> str:
    base = model
    while hasattr(base, "base"):
        base = base.base
    return "exact" if base.name in _EXACT_CLASS else "log"


def run_limit_suite(
    model,
    checks=DEFAULT_CHECKS,
    betas=(0.5, 2.0),
    tolerances=None,
) -> list:
    """Run the configured limit checks for a model or a sequence of them.

    Returns one LimitCheckReport per (model, check, parameter)
    combination, model by model.  The checks run check by check over all
    the models, so each functional step is one request across them.
    Evaluation failures (divergent integrals, missing analytic rate) are
    reported as failed rows of their model with a note instead of
    aborting the suite; the rate check is simply skipped for models
    outside the analytic-rate class, because there is no quantity to test.
    """
    models = [model] if isinstance(model, TailModel) else list(model)
    unknown = [c for c in checks if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check id: {unknown[0]}")
    tol_maps = [dict(_CLASS_TOL[convergence_class(m)], **(tolerances or {})) for m in models]
    rows = [[] for _ in models]
    for check in checks:
        for m, tol_map, model_rows, specs in zip(models, tol_maps, rows,
                                                 _CHECKS[check](models, betas)):
            for params, run in specs:
                try:
                    grid, values, target, note = run()
                except _FAILURES as exc:
                    grid, values, target = (), (), math.nan
                    note = f"evaluation failed: {exc}"
                model_rows.append(LimitCheckReport(
                    check_id=check, model=m.describe(), params=params, grid=grid,
                    values=values, target=target, tolerance=float(tol_map[check]),
                    note=note,
                ))
    return [report for model_rows in rows for report in model_rows]
