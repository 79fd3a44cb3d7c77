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

A grid check evaluates its whole grid at once: one array call per
functional (per beta, and over the grid and its lambda-scaled copies for
slow variation), so the quadratures of a grid run in lockstep.  A row
fails with the error its first failing point would raise in a scalar
evaluation of the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, UnsupportedModelError
from .functionals import (
    SGrid,
    representation_residual,
    scale_beta_ratio,
    sequence_slowvar_ratio,
    spacing_log_ratio,
    tail_scale,
    variance_scale_ratio,
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

    kept_s, kept_v, dropped = [], [], []
    for s in grid.points:
        masses = (x * s, z * s, y * s, w * s)
        if any(not 0.0 < m < 1.0 for m in masses):
            dropped.append(s)
            continue
        num = model.tail_quantile(x * s) - model.tail_quantile(z * s)
        den = model.tail_quantile(y * s) - model.tail_quantile(w * s)
        if den == 0.0 or not math.isfinite(num) or not math.isfinite(den):
            dropped.append(s)
            continue
        kept_s.append(s)
        kept_v.append(num / den)
    note = ""
    if dropped:
        note = "excluded %d grid point(s)" % len(dropped)
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
# Each check id maps to a function of (model, betas) that returns one
# (params, run) pair per report row; run() evaluates the row and returns
# (grid, values, target, note).  run_limit_suite supplies the rest.


def _on_grid(grid, ratios, target):
    # ratios maps the grid's points, as one array, to their values
    return lambda: (grid.points, tuple(np.asarray(ratios(np.array(grid.points))).tolist()),
                    target, "")


def _each(ratio):
    return lambda ss: [ratio(s) for s in ss.tolist()]


def _fields(rep: LimitCheckReport):
    return rep.grid, rep.values, rep.target, rep.note


def _domain_ratio(model, betas):
    probe = (4.0, 1.0, 2.0, 1.0)
    return [(tuple(zip("xzyw", probe)), lambda: _fields(domain_check(model, probe)))]


def _pointwise(f, points):
    """f at each of ``points`` from one array call, as a scalar function of
    those points.  If the array call fails, each point gets its own scalar
    call, so a point raises exactly the error it raises alone."""
    try:
        return dict(zip(points, f(np.array(points)).tolist())).__getitem__
    except (QuadratureError, ValueError):
        return f


def _scale_slow_variation(model, betas):
    grid = _default_grid(1e-6)
    lams = (0.5, 2.0)
    points = [p for s in grid.points for p in (s, *(lam * s for lam in lams))]
    scales = {}

    def run(beta, lam):
        def row():
            # one tail_scale call per beta, shared by its lam rows
            if beta not in scales:
                scales[beta] = _pointwise(lambda s: tail_scale(model, s, beta=beta), points)
            # the suite applies its own tolerance; the report's is discarded
            return _fields(slow_variation_check(scales[beta], lam, grid, 0.0))

        return row

    return [((("beta", beta), ("lam", lam)), run(beta, lam))
            for beta in (1.0, *betas) for lam in lams]


def _representation_residual(model, betas):
    return [((("anchor", 0.25),), _on_grid(
        SGrid((1e-4,)), _each(lambda s: representation_residual(model, s, anchor=0.25)),
        0.0))]


def _spacing_log_limit(model, betas):
    return [((("x", 2.0),), _on_grid(
        _default_grid(1e-8), lambda ss: spacing_log_ratio(model, ss, 2.0), -math.log(2.0)))]


def _scale_beta_limit(model, betas):
    return [((("beta", b),), _on_grid(
        _default_grid(1e-6), lambda ss, b=b: scale_beta_ratio(model, ss, b), 1.0 / b))
        for b in betas]


def _variance_scale_limit(model, betas):
    return [((), _on_grid(
        _default_grid(1e-4, count=3), lambda ss: variance_scale_ratio(model, ss), 1.0))]


def _sequence_slowvar_limit(model, betas):
    # grid s = 1/n for n = 1e2, 1e4, 1e6; each reciprocal round-trips exactly
    def ratio(s):
        return sequence_slowvar_ratio(
            lambda u: tail_scale(model, u), 1.0, lambda m: m**-0.5, 1.0 / s)

    return [((("beta", 1.0),), _on_grid(SGrid((1e-2, 1e-4, 1e-6)), _each(ratio), 0.0))]


def _rate_scale_limit(model, betas):
    # no analytic rate, no quantity to test: the check yields no row
    if not model.has_tail_rate:
        return []
    return [((), _on_grid(
        _default_grid(1e-6), lambda ss: model.tail_rate(ss) / tail_scale(model, ss), 1.0))]


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
    model: TailModel,
    checks=DEFAULT_CHECKS,
    betas=(0.5, 2.0),
    tolerances=None,
) -> list:
    """Run the configured limit checks for one model.

    Returns one LimitCheckReport per (check, parameter) combination.
    Evaluation failures (divergent integrals, missing analytic rate) are
    reported as failed rows with a note instead of aborting the suite;
    the rate check is simply skipped for models outside the analytic-rate
    class, because there is no quantity to test.
    """
    unknown = [c for c in checks if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check id: {unknown[0]}")
    tol_map = dict(_CLASS_TOL[convergence_class(model)])
    if tolerances:
        tol_map.update(tolerances)
    reports = []
    for check in checks:
        tol = float(tol_map[check])
        for params, run in _CHECKS[check](model, betas):
            try:
                grid, values, target, note = run()
            except (QuadratureError, UnsupportedModelError, ValueError) as exc:
                grid, values, target = (), (), math.nan
                note = f"evaluation failed: {exc}"
            reports.append(LimitCheckReport(
                check_id=check, model=model.describe(), params=params, grid=grid,
                values=values, target=target, tolerance=tol, note=note,
            ))
    return reports
