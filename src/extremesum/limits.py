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

Before it builds any row, the suite resolves every functional point of
its checks in one request per functional across all the models and
checks: c(., beta) once per beta (the residual's c(s) and c(anchor)
included), sigma2 once, and the residual's integral once, whose rounds
request c(u) at every model's nodes together.  The requests are
independent, so their tail quadratures run as one lockstep batch.  A
point's outcome, value or error, does not depend on the request or the
batch around it (see ``functionals``), so a row fails with the error
its first failing point would raise in a scalar evaluation of the grid,
and one model's error fails only that model's rows.
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
# Each check id maps to a function of the betas that returns (needs,
# rows).  rows(model, outs) gives one (params, run) pair per report row of
# the model; run() reads outs(points, request, *args), the model's
# outcomes at points, and returns (grid, values, target, note), or raises
# the error of its first failing point.  needs lists the functional points
# the rows read, as (points, request, *args) entries.  run_limit_suite
# resolves them for every model the check has rows for before it runs any
# row, in one request per (request, *args) across the models and checks.


def _row(grid, ratios, target):
    return lambda: (grid.points, tuple(ratios()), target, "")


def _fields(rep: LimitCheckReport):
    return rep.grid, rep.values, rep.target, rep.note


def _domain_ratio(betas):
    probe = (4.0, 1.0, 2.0, 1.0)
    return [], lambda m, outs: [(tuple(zip("xzyw", probe)),
                                 lambda: _fields(domain_check(m, probe)))]


def _scale_slow_variation(betas):
    grid = _default_grid(1e-6)
    lams = (0.5, 2.0)
    points = [p for s in grid.points for p in (s, *(lam * s for lam in lams))]
    betas = (1.0, *betas)

    def run(outs, beta, lam):
        # the suite applies its own tolerance; the report's is discarded
        return lambda: _fields(slow_variation_check(
            lambda u: _values(outs((u,), _scale, beta))[0][0], lam, grid, 0.0))

    return [(points, _scale, beta) for beta in betas], lambda m, outs: [
        ((("beta", beta), ("lam", lam)), run(outs, beta, lam)) for beta in betas for lam in lams]


def _representation_residual(betas):
    s, anchor = 1e-4, 0.25

    def rows(m, outs):
        return [((("anchor", anchor),), _row(SGrid((s,)), lambda: [_residual(
            m, s, anchor, *outs((s,), _residual_integrals, anchor),
            *outs((s, anchor), _scale, 1.0))], 0.0))]

    return [((s,), _residual_integrals, anchor), ((s, anchor), _scale, 1.0)], rows


def _spacing_log_limit(betas):
    grid = _default_grid(1e-8)
    return [(grid.points, _scale, 1.0)], lambda m, outs: [((("x", 2.0),), _row(
        grid, lambda: _spacings(m, grid.points, 2.0, outs(grid.points, _scale, 1.0)),
        -math.log(2.0)))]


def _scale_beta_limit(betas):
    grid = _default_grid(1e-6)

    def rows(m, outs):
        return [((("beta", b),), _row(grid, lambda b=b: _ratios(*_values(
            outs(grid.points, _scale, b), outs(grid.points, _scale, 1.0))), 1.0 / b))
            for b in betas]

    return [(grid.points, _scale, b) for b in (1.0, *betas)], rows


def _variance_scale_limit(betas):
    grid = _default_grid(1e-4, count=3)
    return [(grid.points, _scale, 1.0), (grid.points, _variance)], lambda m, outs: [
        ((), _row(grid, lambda: _variance_ratios(grid.points, outs(grid.points, _scale, 1.0),
                                                 outs(grid.points, _variance)), 1.0))]


def _sequence_slowvar_limit(betas):
    # grid s = 1/n for n = 1e2, 1e4, 1e6; each reciprocal round-trips exactly
    grid = SGrid((1e-2, 1e-4, 1e-6))
    ns = [1.0 / s for s in grid.points]
    points = [u for n in ns for u in (1.0 / n, n**-0.5)]   # c(1/n) and c(a_n)

    def ratios(outs):
        return [sequence_slowvar_ratio(lambda u: _values(outs((u,), _scale, 1.0))[0][0], 1.0,
                                       lambda m: m**-0.5, n) for n in ns]

    return [(points, _scale, 1.0)], lambda m, outs: [
        ((("beta", 1.0),), _row(grid, lambda: ratios(outs), 0.0))]


def _rate_scale_limit(betas):
    # no analytic rate, no quantity to test: the check yields no row
    grid = _default_grid(1e-6)
    ss = np.array(grid.points)
    return [(grid.points, _scale, 1.0)], lambda m, outs: [((), _row(
        grid, lambda: (m.tail_rate(ss) / np.array(
            _values(outs(grid.points, _scale, 1.0))[0])).tolist(), 1.0))] if m.has_tail_rate else []


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
    combination, model by model, at its model class's tolerance.  Each
    functional is one request across all the models and checks, and all
    of them are resolved together, before any row.
    Evaluation failures (divergent integrals, missing analytic rate) are
    reported as failed rows of their model with a note instead of
    aborting the suite; the rate check is simply skipped for models
    outside the analytic-rate class, because there is no quantity to test.
    """
    models = [model] if isinstance(model, TailModel) else list(model)
    unknown = [c for c in checks if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check id: {unknown[0]}")
    found = {}
    specs = []
    for check in checks:
        needs, model_rows = _CHECKS[check](betas)
        specs.append((check, needs, [model_rows(m, lambda points, *request, m=m: [
            found[(*request, m, s)] for s in points]) for m in models]))
    wanted = {}   # (request, *args) -> the keys of every check, once each
    for j, m in enumerate(models):
        for _, needs, rows in specs:
            for points, *request in needs if rows[j] else ():
                wanted.setdefault(tuple(request), {}).update(dict.fromkeys((m, s) for s in points))
    for ((request, *args), keys), outs in zip(wanted.items(), _run(*(
            request(list(keys), *args) for (request, *args), keys in wanted.items()))):
        found.update(zip([(request, *args, m, s) for m, s in keys], outs))
    rows = [[] for _ in models]
    for check, _, check_rows in specs:
        for m, out, model_rows in zip(models, rows, check_rows):
            for params, run in model_rows:
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
