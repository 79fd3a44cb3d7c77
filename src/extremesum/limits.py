"""Finite-s limit checks for tail-sum asymptotics.

Every limit used by the package is an s -> 0 statement.  None of them can
be "proved" numerically, so each check evaluates its ratio on a decreasing
grid and passes or fails on the final (smallest) grid point only; the rest
of the sequence is kept in the report as evidence.  Tolerances are fixed
per model convergence class: models whose tail functionals have elementary
closed forms converge exponentially fast and get tight tolerances, models
with log-type tails converge like a power of 1/log(1/s) and get loose ones.
That power differs within the class: the Weibull(2) spacing error is about
-0.467/ln(1/s), but the LogNormal converges only like 1/sqrt(2 ln(1/s)),
so its beta = 0.5 scale ratio still sits 0.417 above its limit 2 at
s = 1e-6 and fails the loose tolerance at desk s.

Each check is a request, like a functional (see ``functionals``): it
asks for the functionals its rows read, each once across all the models,
and returns the rows.  The suite runs every check together, so each of
its steps is one lockstep batch.  The first step holds the tail
quadratures of every check: c(., beta) per beta, sigma2, and the c(u)
of the representation residual's first QAGS round.  Each later round of
that QAGS whose c(u) asks for quadratures is one more step.  A point's
outcome, value or error, does not depend on the request or the batch
around it, so a row fails with the error its first failing point would
raise in a scalar evaluation of the grid, and one model's error fails
only that model's rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .functionals import (
    SGrid,
    _FAILURES,
    _ratios,
    _residual,
    _residual_integrals,
    _run,
    _scale,
    _spacings,
    _together,
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
        v = self.values[-1] if self.values else math.nan
        return abs(v - self.target) if math.isfinite(v) else math.inf

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
# Each check id maps to a request check(models, betas).  It yields the
# functionals that its rows read, at every model's points, and returns
# rows(model): one (params, run) pair per report row of the model.  run()
# returns (grid, values, target, note), or raises the error of its first
# failing point.


def _over(models, points, request, *args):
    """The request ``request(keys, *args)`` at every model's ``points``;
    returns outs(m, ps), the outcomes of model m at the points ps."""
    keys = list(dict.fromkeys((m, s) for m in models for s in points))
    outs = dict(zip(keys, (yield from request(keys, *args))))
    return lambda m, ps: [outs[m, s] for s in ps]


def _row(grid, ratios, target):
    return lambda: (grid.points, tuple(ratios()), target, "")


def _fields(rep: LimitCheckReport):
    return rep.grid, rep.values, rep.target, rep.note


def _domain_ratio(models, betas):
    probe = (4.0, 1.0, 2.0, 1.0)
    return lambda m: [(tuple(zip("xzyw", probe)), lambda: _fields(domain_check(m, probe)))]
    yield   # a request that asks for nothing


def _scale_slow_variation(models, betas):
    grid = _default_grid(1e-6)
    lams = (0.5, 2.0)
    points = [p for s in grid.points for p in (s, *(lam * s for lam in lams))]
    betas = (1.0, *betas)
    cs = yield from _together([_over(models, points, _scale, beta) for beta in betas])

    def run(c, m, lam):
        # the suite applies its own tolerance; the report's is discarded
        return lambda: _fields(slow_variation_check(
            lambda u: _values(c(m, (u,)))[0][0], lam, grid, 0.0))

    return lambda m: [((("beta", beta), ("lam", lam)), run(c, m, lam))
                      for beta, c in zip(betas, cs) for lam in lams]


def _representation_residual(models, betas):
    s, anchor = 1e-4, 0.25
    integrals, cs = yield from _together([_over(models, (s,), _residual_integrals, anchor),
                                          _over(models, (s, anchor), _scale, 1.0)])
    return lambda m: [((("anchor", anchor),), _row(SGrid((s,)), lambda: [_residual(
        m, s, anchor, *integrals(m, (s,)), *cs(m, (s, anchor)))], 0.0))]


def _spacing_log_limit(models, betas):
    grid = _default_grid(1e-8)
    cs = yield from _over(models, grid.points, _scale, 1.0)
    return lambda m: [((("x", 2.0),), _row(
        grid, lambda: _spacings(m, grid.points, 2.0, cs(m, grid.points)), -math.log(2.0)))]


def _scale_beta_limit(models, betas):
    grid = _default_grid(1e-6)
    c, *cbs = yield from _together([_over(models, grid.points, _scale, b)
                                    for b in (1.0, *betas)])
    return lambda m: [((("beta", b),), _row(grid, lambda cb=cb: _ratios(*_values(
        cb(m, grid.points), c(m, grid.points))), 1.0 / b)) for b, cb in zip(betas, cbs)]


def _variance_scale_limit(models, betas):
    grid = _default_grid(1e-4, count=3)
    cs, sigmas = yield from _together([_over(models, grid.points, _scale, 1.0),
                                       _over(models, grid.points, _variance)])
    return lambda m: [((), _row(grid, lambda: _variance_ratios(
        grid.points, cs(m, grid.points), sigmas(m, grid.points)), 1.0))]


def _sequence_slowvar_limit(models, betas):
    # grid s = 1/n for n = 1e2, 1e4, 1e6; each reciprocal round-trips exactly
    grid = SGrid((1e-2, 1e-4, 1e-6))
    ns = [1.0 / s for s in grid.points]
    # c(1/n) and c(a_n)
    cs = yield from _over(models, [u for n in ns for u in (1.0 / n, n**-0.5)], _scale, 1.0)

    def ratios(m):
        return [sequence_slowvar_ratio(lambda u: _values(cs(m, (u,)))[0][0], 1.0,
                                       lambda n: n**-0.5, n) for n in ns]

    return lambda m: [((("beta", 1.0),), _row(grid, lambda: ratios(m), 0.0))]


def _rate_scale_limit(models, betas):
    # no analytic rate, no quantity to test: the check asks for no point of
    # such a model and yields no row
    grid = _default_grid(1e-6)
    cs = yield from _over([m for m in models if m.has_tail_rate], grid.points, _scale, 1.0)

    def ratios(m):
        with np.errstate(over="ignore"):   # r(s) is inf for a tiny Weibull shape
            return (m.tail_rate(np.array(grid.points)) / np.array(
                _values(cs(m, grid.points))[0])).tolist()

    return lambda m: [((), _row(grid, lambda: ratios(m), 1.0))] if m.has_tail_rate else []


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


def run_limit_suite(model, checks=DEFAULT_CHECKS, betas=(0.5, 2.0)) -> list:
    """Run the configured limit checks for a model or a sequence of them.

    Returns one LimitCheckReport per (model, check, parameter)
    combination, model by model, at its model class's tolerance.  The
    checks run as one request, so each functional point is resolved once
    per check, across all the models, before any row.
    Evaluation failures (divergent integrals, missing analytic rate) are
    reported as failed rows of their model with a note instead of
    aborting the suite; the rate check is simply skipped for models
    outside the analytic-rate class, because there is no quantity to test.
    """
    models = [model] if isinstance(model, TailModel) else list(model)
    unknown = [c for c in checks if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check id: {unknown[0]}")
    rows = [[] for _ in models]
    for check, check_rows in zip(checks, _run(*(_CHECKS[c](models, betas) for c in checks))):
        for m, out in zip(models, rows):
            for params, run in check_rows(m):
                try:
                    grid, values, target, note = run()
                except _FAILURES as exc:
                    grid, values, target = (), (), math.nan
                    note = f"evaluation failed: {exc}"
                out.append(LimitCheckReport(
                    check_id=check, model=m.describe(), params=params, grid=grid,
                    values=values, target=target,
                    tolerance=_CLASS_TOL[convergence_class(m)][check], note=note,
                ))
    return [report for model_rows in rows for report in model_rows]
