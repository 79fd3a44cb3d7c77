"""Limit checks: domain probe, slow variation, default suite."""

import csv
import io
import math

import pytest

from extremesum import (
    DEFAULT_CHECKS,
    AffineModel,
    Exponential,
    Gamma,
    Gumbel,
    LimitCheckReport,
    LogNormal,
    Normal,
    Pareto,
    SGrid,
    Uniform,
    Weibull,
    domain_check,
    run_limit_suite,
    scale_beta_ratio,
    slow_variation_check,
    tail_scale,
    variance_scale_ratio,
)
from extremesum.reports import limit_reports_csv

D_STAR_TRIO = [Exponential(1.0), Weibull(2.0), Gumbel()]
FAST_GUMBEL = [Exponential(1.0), Gumbel(), Weibull(2.0), Normal(), Gamma(2.0)]


# -- report object ------------------------------------------------------


def _report(values, target=1.0, tol=0.1):
    grid = tuple(0.1 ** (i + 1) for i in range(len(values)))
    return LimitCheckReport(
        check_id="demo", model="m", params=(("p", 1.0),),
        grid=grid, values=tuple(values), target=target, tolerance=tol,
    )


def _row(report):
    """The report's line of limit_checks.csv, by column name."""
    [row] = csv.DictReader(io.StringIO(limit_reports_csv([report])))
    return row


def test_report_verdict_uses_final_point_only():
    r = _report([5.0, 2.0, 1.05])
    assert r.final_error == pytest.approx(0.05)
    assert r.passed and r.verdict == "pass"
    assert not _report([1.0, 1.0, 1.5]).passed


def test_report_empty_and_nonfinite_values():
    r = LimitCheckReport("demo", "m", (), (), (), 1.0, 0.1)
    assert r.final_error == math.inf
    assert r.verdict == "fail"
    row = _row(r)
    assert math.isnan(float(row["s"])) and math.isnan(float(row["value"]))
    assert not _report([1.0, math.nan]).passed
    assert not _report([1.0, math.inf]).passed


def test_report_row_layout():
    row = _row(_report([2.0, 1.02], tol=0.1))
    assert list(row) == ["check_id", "model", "params", "s", "value", "target",
                         "tolerance", "error", "verdict"]
    assert row["check_id"] == "demo"
    assert row["params"] == "p=1"
    assert float(row["s"]) == pytest.approx(0.01)
    assert float(row["value"]) == pytest.approx(1.02)
    assert row["verdict"] == "pass"


# -- domain probe -------------------------------------------------------


@pytest.mark.parametrize(
    "model", FAST_GUMBEL + [LogNormal()], ids=lambda m: str(m)
)
def test_domain_check_accepts_gumbel_models(model):
    r = domain_check(model)
    assert r.check_id == "domain_ratio"
    assert r.target == pytest.approx(2.0)
    assert r.passed, r.values


def test_domain_check_exponential_is_exact():
    r = domain_check(Exponential(1.0))
    for v in r.values:
        assert v == pytest.approx(2.0, abs=1e-12)


def test_domain_check_rejects_polynomial_and_short_tails():
    r1 = domain_check(Pareto(1.0))
    assert r1.values[-1] == pytest.approx(1.5, abs=1e-9)
    assert not r1.passed

    r2 = domain_check(Pareto(2.0))
    assert r2.values[-1] == pytest.approx(0.5 / (1.0 - 2.0**-0.5), abs=1e-9)
    assert r2.values[-1] == pytest.approx(1.70710678, abs=1e-6)
    assert not r2.passed

    r3 = domain_check(Uniform())
    assert r3.values[-1] == pytest.approx(3.0, abs=1e-8)
    assert not r3.passed


def test_domain_check_excludes_out_of_range_points():
    grid = SGrid((0.5, 0.1, 0.01))
    with pytest.warns(UserWarning, match="excluded 1 grid point"):
        r = domain_check(Exponential(1.0), grid=grid)
    assert r.grid == (0.1, 0.01)      # 4 * 0.5 = 2 leaves (0, 1)
    assert "excluded 1" in r.note
    assert r.passed


def test_domain_check_probe_validation():
    m = Exponential(1.0)
    with pytest.raises(ValueError):
        domain_check(m, probe=(4.0, 1.0, 2.0, 2.0))   # y == w
    with pytest.raises(ValueError):
        domain_check(m, probe=(0.0, 1.0, 2.0, 1.0))   # zero mass
    with pytest.raises(ValueError):
        domain_check(m, probe=(-1.0, 1.0, 2.0, 1.0))


# -- slow variation -----------------------------------------------------


def test_slow_variation_check_basic():
    grid = SGrid.geometric(1e-2, 0.1, 3)
    r = slow_variation_check(lambda s: math.log(1.0 / s), 2.0, grid, 0.2)
    assert r.check_id == "scale_slow_variation"
    assert r.passed
    # log is slowly varying: ratio approaches 1 from below for lam = 2
    assert all(v < 1.0 for v in r.values)
    assert r.values[-1] > r.values[0]


def test_slow_variation_check_rejects_fast_variation():
    grid = SGrid.geometric(1e-2, 0.1, 3)
    r = slow_variation_check(lambda s: s, 2.0, grid, 0.2)
    assert not r.passed
    assert r.values[-1] == pytest.approx(2.0)


def test_slow_variation_check_errors():
    grid = SGrid.geometric(1e-2, 0.1, 3)
    with pytest.raises(ValueError):
        slow_variation_check(lambda s: -1.0, 2.0, grid, 0.1)
    with pytest.raises(ValueError):
        slow_variation_check(lambda s: 1.0, 0.0, grid, 0.1)
    with pytest.raises(ValueError):
        slow_variation_check(lambda s: 1.0, 300.0, SGrid((0.5,)), 0.1)


# -- scale functional is slowly varying (grid property) -----------------


@pytest.mark.parametrize("model", FAST_GUMBEL, ids=lambda m: str(m))
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scale_slow_variation_property(model, beta, lam):
    grid = SGrid.geometric(1e-2, 0.1, 5)      # ends at 1e-6
    r = slow_variation_check(
        lambda s: tail_scale(model, s, beta=beta), lam, grid, 0.05
    )
    assert r.passed, r.values[-1]


def test_scale_slow_variation_lognormal_actuals():
    # the slowest tail in the catalog: still outside the 0.05 band at
    # s = 1e-6, by an amount that shrinks like 1 / ln(1/s)
    m = LogNormal()
    half = tail_scale(m, 0.5e-6) / tail_scale(m, 1e-6)
    double = tail_scale(m, 2e-6) / tail_scale(m, 1e-6)
    assert half == pytest.approx(1.1141054654, abs=1e-4)
    assert double == pytest.approx(0.8956572434, abs=1e-4)
    assert 0.05 < abs(half - 1.0) < 0.2
    assert 0.05 < abs(double - 1.0) < 0.2


# -- beta-scale ratio ---------------------------------------------------


@pytest.mark.parametrize("model", FAST_GUMBEL, ids=lambda m: str(m))
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_scale_beta_ratio_near_reciprocal(model, beta):
    assert abs(scale_beta_ratio(model, 1e-6, beta) - 1.0 / beta) <= 0.1


def test_scale_beta_ratio_exponential_exact():
    for beta in (0.5, 2.0):
        assert abs(scale_beta_ratio(Exponential(1.0), 1e-6, beta) - 1.0 / beta) <= 1e-9


def test_scale_beta_ratio_lognormal_actuals():
    # beta = 1/2 overweights the far tail; the lognormal correction decays
    # like 1 / sqrt(ln(1/s)) and is nowhere near gone at s = 1e-6
    assert scale_beta_ratio(LogNormal(), 1e-6, 0.5) == pytest.approx(
        2.4172981487, abs=1e-3
    )
    assert scale_beta_ratio(LogNormal(), 1e-6, 2.0) == pytest.approx(
        0.4579674759, abs=1e-3
    )


# -- variance/scale and rate/scale ratios -------------------------------


@pytest.mark.parametrize("model", D_STAR_TRIO, ids=lambda m: str(m))
def test_variance_scale_ratio_limit(model):
    assert abs(variance_scale_ratio(model, 1e-4) - 1.0) <= 0.05


def test_variance_scale_ratio_exponential_closed():
    # sigma2 / (2 s c^2) = (2s - s^2) / (2s) = 1 - s/2 exactly
    for s in (0.5, 0.1, 1e-4):
        assert variance_scale_ratio(Exponential(1.0), s) == pytest.approx(
            1.0 - s / 2.0, abs=1e-12
        )


@pytest.mark.parametrize("model", D_STAR_TRIO, ids=lambda m: str(m))
def test_rate_over_scale_limit(model):
    ratio = float(model.tail_rate(1e-6)) / tail_scale(model, 1e-6)
    assert abs(ratio - 1.0) <= 0.05


def test_rate_over_scale_negative_control():
    # pareto's rate-like slope over its scale settles at 1 - 1/a, not 1
    m = Pareto(2.0)
    slope = 1e-6 * float(m.tail_density(1e-6))
    assert slope / tail_scale(m, 1e-6) == pytest.approx(0.5, abs=1e-9)


# -- default suite ------------------------------------------------------


def _by_check(reports):
    out = {}
    for r in reports:
        out.setdefault(r.check_id, []).append(r)
    return out


def test_suite_shape_with_and_without_rate():
    with_rate = run_limit_suite(Exponential(1.0))
    without = run_limit_suite(Normal())
    assert len(with_rate) == 14
    assert len(without) == 13
    assert [r.check_id for r in with_rate].count("scale_slow_variation") == 6
    assert [r.check_id for r in with_rate].count("scale_beta_limit") == 2
    assert "rate_scale_limit" in {r.check_id for r in with_rate}
    assert "rate_scale_limit" not in {r.check_id for r in without}


def test_suite_exponential_all_pass():
    reports = run_limit_suite(Exponential(1.0))
    assert all(r.passed for r in reports), [
        (r.check_id, r.final_error) for r in reports if not r.passed
    ]


def test_suite_normal_all_pass():
    assert all(r.passed for r in run_limit_suite(Normal()))


def test_suite_lognormal_slow_rows_fail_honestly():
    reports = run_limit_suite(LogNormal())
    assert len(reports) == 13
    failing = [r for r in reports if not r.passed]
    assert len(failing) == 9
    assert {r.check_id for r in failing} == {
        "scale_slow_variation",
        "spacing_log_limit",
        "scale_beta_limit",
        "variance_scale_limit",
    }
    beta_fails = [r for r in failing if r.check_id == "scale_beta_limit"]
    assert len(beta_fails) == 1
    assert dict(beta_fails[0].params)["beta"] == 0.5


def test_suite_pareto_one_fails_everywhere():
    reports = run_limit_suite(Pareto(1.0))
    assert len(reports) == 13
    assert not any(r.passed for r in reports)
    flagged = [r for r in reports if "evaluation failed" in r.note]
    assert flagged                # divergent scale integrals are flagged rows


def test_suite_pareto_two_only_residual_passes():
    reports = run_limit_suite(Pareto(2.0))
    passing = [r.check_id for r in reports if r.passed]
    assert passing == ["representation_residual"]
    assert len(reports) == 13


def test_suite_uniform_negative_control():
    reports = run_limit_suite(Uniform())
    passing = sorted(r.check_id for r in reports if r.passed)
    assert passing == ["representation_residual", "sequence_slowvar_limit"]


# Each check's tolerance in the exact and in the log convergence class,
# written out so that a mistyped entry of the suite's table fails.
EXACT_TOL = {
    "domain_ratio": 0.2,
    "scale_slow_variation": 1e-3,
    "representation_residual": 1e-6,
    "spacing_log_limit": 1e-3,
    "scale_beta_limit": 1e-3,
    "variance_scale_limit": 1e-3,
    "sequence_slowvar_limit": 0.01,
    "rate_scale_limit": 1e-3,
}
LOG_TOL = {
    "domain_ratio": 0.2,
    "scale_slow_variation": 0.05,
    "representation_residual": 1e-6,
    "spacing_log_limit": 0.05,
    "scale_beta_limit": 0.1,
    "variance_scale_limit": 0.05,
    "sequence_slowvar_limit": 0.01,
    "rate_scale_limit": 0.05,
}


@pytest.mark.parametrize("models, expected", [
    ([AffineModel(Gumbel(), 2.0, 1.0)], EXACT_TOL),
    # Normal carries no rate, so Weibull(2) gives the log class's rate row
    ([AffineModel(Normal(), 2.0, 1.0), AffineModel(Weibull(2.0), 2.0, 1.0)], LOG_TOL),
], ids=["exact", "log"])
def test_suite_tolerance_follows_the_base_model_class(models, expected):
    rows = run_limit_suite(models)
    assert sorted({(r.check_id, r.tolerance) for r in rows}) == sorted(expected.items())


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the default betas (1, 2) repeat the beta = 1 work; scale_slow_variation "
    "prepends beta = 1 to them, so its beta = 1 rows appear twice"))
def test_suite_rows_are_distinct_at_the_default_betas():
    rows = run_limit_suite(Exponential(), betas=(1.0, 2.0))
    keys = [(r.check_id, r.model, r.params) for r in rows]
    assert len(set(keys)) == len(keys)


def test_suite_check_subset_and_unknown():
    reports = run_limit_suite(Exponential(1.0), checks=("domain_ratio",))
    assert len(reports) == 1 and reports[0].check_id == "domain_ratio"
    with pytest.raises(ValueError):
        run_limit_suite(Exponential(1.0), checks=("no_such_check",))


def test_default_checks_exported():
    assert DEFAULT_CHECKS == (
        "domain_ratio",
        "scale_slow_variation",
        "representation_residual",
        "spacing_log_limit",
        "scale_beta_limit",
        "variance_scale_limit",
        "sequence_slowvar_limit",
        "rate_scale_limit",
    )
