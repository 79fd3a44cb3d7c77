"""Tail functionals: closed forms, dual quadrature routes, tables."""

import math

import numpy as np
import pytest

from extremesum import (
    AffineModel,
    Exponential,
    Gamma,
    Gumbel,
    LogNormal,
    Normal,
    Pareto,
    QuadratureError,
    SGrid,
    Uniform,
    UnsupportedModelError,
    Weibull,
    build_functional_table,
    catalog,
    rate_integral,
    representation_residual,
    run_limit_suite,
    sequence_slowvar_ratio,
    spacing_log_ratio,
    tail_mean,
    tail_scale,
    tail_variance,
)
from extremesum import functionals, quadrature
from extremesum.reports import functional_table_csv, limit_reports_csv

GUMBEL_MODELS = [
    Exponential(1.0), Gumbel(), Weibull(2.0), Normal(), LogNormal(), Gamma(2.0),
]


# -- grids --------------------------------------------------------------


def test_sgrid_validation():
    SGrid((0.5, 0.25, 0.125))
    with pytest.raises(ValueError):
        SGrid(())
    with pytest.raises(ValueError):
        SGrid((0.6,))          # above 1/2
    with pytest.raises(ValueError):
        SGrid((0.25, 0.25))    # not strictly decreasing
    with pytest.raises(ValueError):
        SGrid((0.1, 0.2))


def test_sgrid_geometric():
    g = SGrid.geometric(0.5, 0.5, 3)
    assert g.points == (0.5, 0.25, 0.125)
    assert g.geometry == (0.5, 0.5, 3)
    with pytest.raises(ValueError):
        SGrid.geometric(0.5, 1.5, 3)
    with pytest.raises(ValueError):
        SGrid.geometric(0.5, 0.5, 0)
    assert len(SGrid.geometric(0.5, 0.999, 10_000)) == 10_000
    for count in (10_001, 10**9, 10**400):   # refused before a point is built
        with pytest.raises(ValueError, match="count must be at most 10000"):
            SGrid.geometric(0.5, 0.5, count)


# -- exponential closed forms (everything is elementary) ----------------


def test_exponential_scale_is_one():
    m = Exponential(1.0)
    for s in (1e-4, 1e-2, 0.5):
        assert tail_scale(m, s) == pytest.approx(1.0, abs=1e-12)
        assert tail_scale(m, s, beta=2.0) == pytest.approx(0.5, abs=1e-12)


def test_exponential_variance_and_mean():
    m = Exponential(1.0)
    # sigma2(s) = 2s - s^2, mu(s) = s(1 - ln s)
    assert tail_variance(m, 0.1) == pytest.approx(0.19, abs=1e-12)
    assert tail_mean(m, 0.1) == pytest.approx(0.1 * (1 - math.log(0.1)), abs=1e-12)
    assert tail_mean(m, 0.1) == pytest.approx(0.3302585092994046, abs=1e-12)
    assert rate_integral(m, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_exponential_rate_scales_with_parameter():
    m = Exponential(2.0)
    assert tail_scale(m, 0.01) == pytest.approx(0.5, abs=1e-12)
    assert tail_variance(m, 0.1) == pytest.approx(0.19 / 4.0, rel=1e-12)


# -- closed forms vs forced quadrature ----------------------------------


@pytest.mark.parametrize("model", GUMBEL_MODELS, ids=lambda m: str(m))
@pytest.mark.parametrize("s", [0.5, 0.1, 0.01])
def test_mean_mass_closed_vs_quadrature(model, s):
    closed = tail_mean(model, s)
    quad = tail_mean(model, s, method="quadrature")
    assert quad == pytest.approx(closed, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "model", [Exponential(1.0), Gumbel(), Weibull(2.0), Weibull(0.5)],
    ids=lambda m: str(m),
)
@pytest.mark.parametrize("s", [0.5, 0.1, 0.01, 1e-4])
def test_scale_closed_vs_quadrature(model, s):
    closed = tail_scale(model, s)            # closed path
    ibp = tail_scale(model, s, method="ibp")
    assert ibp == pytest.approx(closed, rel=1e-9, abs=1e-12)


def test_analytic_agreement_bound():
    # |numeric - analytic| <= max(1e-8, 1e-6 |analytic|) across the grid
    for model in (Exponential(1.0), Gumbel(), Weibull(2.0)):
        for s in SGrid.geometric(0.5, 0.1, 4):
            a = tail_scale(model, s)
            n1 = tail_scale(model, s, method="ibp")
            n2 = tail_scale(model, s, method="stieltjes")
            bound = max(1e-8, 1e-6 * abs(a))
            assert abs(n1 - a) <= bound
            assert abs(n2 - a) <= bound


# -- dual quadrature routes never collapse ------------------------------


@pytest.mark.parametrize("model", GUMBEL_MODELS, ids=lambda m: str(m))
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_scale_routes_agree(model, beta):
    for s in SGrid.geometric(0.5, 0.1, 4):
        ibp = tail_scale(model, s, beta, method="ibp")
        sti = tail_scale(model, s, beta, method="stieltjes")
        assert abs(ibp - sti) <= 1e-7 * max(1.0, abs(ibp))


def test_pareto_scale_routes_agree_where_finite():
    m = Pareto(2.0)
    for s in (0.5, 0.1, 0.01):
        ibp = tail_scale(m, s, method="ibp")
        sti = tail_scale(m, s, method="stieltjes")
        closed = tail_scale(m, s)
        assert ibp == pytest.approx(closed, rel=1e-8)
        assert sti == pytest.approx(closed, rel=1e-8)


def test_pareto_divergent_scale_raises():
    with pytest.raises(QuadratureError):
        tail_scale(Pareto(1.0), 0.1)          # c(s, 1) infinite for index 1
    with pytest.raises(QuadratureError):
        tail_scale(Pareto(2.0), 0.1, beta=0.5)
    with pytest.raises(QuadratureError):
        tail_mean(Pareto(1.0), 0.1)
    with pytest.raises(QuadratureError, match=r"rho\(0.1\) diverges for"):
        rate_integral(Pareto(1.0), 0.1, extended=True)


@pytest.mark.parametrize("model, s", [(Weibull(0.005), 1e-4), (Weibull(1e-300), 0.1)],
                         ids=["weibull(0.005)", "weibull(1e-300)"])
def test_rate_quadrature_overflow_fails_without_a_warning(model, s):
    # r(u) overflows to inf near u = 0; pyproject makes a RuntimeWarning an error
    with pytest.raises(QuadratureError, match=rf"rho\({s:g}\): integral is not finite"):
        rate_integral(model, s, method="quadrature")


# -- frozen regression values -------------------------------------------


def test_frozen_scale_values():
    # pinned against the closed special-function forms, cross-checked by
    # both quadrature routes when first derived
    assert tail_scale(Weibull(2.0), 0.01) == pytest.approx(0.2132722341, rel=1e-9)
    assert tail_scale(Gumbel(), 1e-6) == pytest.approx(1.00000025, rel=1e-9)
    assert tail_scale(Pareto(2.0), 0.04) == pytest.approx(5.0, rel=1e-12)


def test_frozen_mean_values():
    assert tail_mean(LogNormal(), 0.01) == pytest.approx(0.152279603, rel=1e-8)
    assert tail_mean(Normal(), 0.01) == pytest.approx(0.0266521422, rel=1e-8)
    assert tail_mean(Gamma(2.0), 0.01) == pytest.approx(0.07769270359, rel=1e-8)
    assert tail_mean(Gumbel(), 0.01) == pytest.approx(0.0560266321, rel=1e-8)


def test_frozen_spacing_value():
    # true finite-s value of the spacing ratio at 1e-8 (target -ln 2)
    assert spacing_log_ratio(Weibull(2.0), 1e-8, 2.0) == pytest.approx(
        -0.717874, abs=1e-5
    )


# -- the sigma2 tensor oracle -------------------------------------------


def _tensor_sigma2(model, s, cells=1600, depth=1e-8):
    """Brute-force tensor quadrature of the symmetric double integral.

    In tail coordinates the kernel keeps the form min(x,y) - xy, so
    sigma2(s) = intint_{(0,s]^2} (min(x,y) - xy) q(x) q(y) dx dy.  The
    axis (0, s] is cut into `cells` geometric cells down to s*depth and
    each cell carries two Gauss-Legendre nodes in the log coordinate.
    """
    period = math.log(1.0 / depth)
    edges = np.linspace(0.0, period, cells + 1)
    h = edges[1] - edges[0]
    off = h * 0.5 / math.sqrt(3.0)
    mids = 0.5 * (edges[1:] + edges[:-1])
    w = np.sort(np.concatenate([mids - off, mids + off]))
    x = s * np.exp(-w)
    weights = 0.5 * h * x * np.array([model.tail_density(v) for v in x])
    kernel = np.minimum.outer(x, x) - np.outer(x, x)
    return float(weights @ kernel @ weights)


@pytest.mark.parametrize("model", [Exponential(1.0), Weibull(2.0)], ids=lambda m: str(m))
@pytest.mark.parametrize("s", [0.5, 0.1, 0.01])
def test_variance_against_tensor_oracle(model, s):
    lib = tail_variance(model, s)
    oracle = _tensor_sigma2(model, s)
    assert abs(lib - oracle) <= 1e-5 * abs(oracle)


def test_variance_monotone_in_s():
    for model in (Exponential(1.0), Weibull(2.0), Normal()):
        vals = [tail_variance(model, s) for s in (0.01, 0.05, 0.1, 0.3, 0.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


# -- rate integral ------------------------------------------------------


def test_rate_integral_strict_needs_analytic_rate():
    with pytest.raises(UnsupportedModelError):
        rate_integral(Normal(), 0.1)
    # extended mode uses rho = mu - s Q(1-s)
    v = rate_integral(Normal(), 0.1, extended=True)
    assert math.isfinite(v) and v > 0


@pytest.mark.parametrize(
    "model", [Exponential(1.0), Gumbel(), Weibull(2.0)], ids=lambda m: str(m)
)
@pytest.mark.parametrize("s", [0.5, 0.1, 0.01, 1e-4])
def test_rate_integral_identity(model, s):
    # rho(s) = mu(s) - s Q(1-s) exactly, for every differentiable model
    rho = rate_integral(model, s)
    mu = tail_mean(model, s)
    assert abs(rho - (mu - s * model.tail_quantile(s))) <= 1e-8


def test_rate_integral_frozen_value():
    assert rate_integral(Weibull(2.0), 0.01) == pytest.approx(
        0.002132722341, rel=1e-8
    )


@pytest.mark.parametrize("model", GUMBEL_MODELS, ids=lambda m: str(m))
def test_extended_rate_identity_whole_catalog(model):
    for s in SGrid.geometric(0.5, 0.1, 4):
        rho = rate_integral(model, s, extended=True)
        mu = tail_mean(model, s)
        assert abs(rho - (mu - s * model.tail_quantile(s))) <= 1e-8


_RHO_MASSES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


@pytest.mark.parametrize("model", [Uniform(), Pareto(2.0)], ids=lambda m: str(m))
def test_extended_rate_is_exact_where_scale_is_closed(model, monkeypatch):
    # rho(s) = s c(s, 1) with error 0: no mu(s) and no Q(1-s) is asked for
    def unused(*args):
        raise AssertionError("asked for mu or Q")

    monkeypatch.setattr(model, "closed_mean_mass", unused)
    monkeypatch.setattr(model, "tail_quantile", unused)
    for s in _RHO_MASSES:
        assert rate_integral(model, s, extended=True, with_error=True) == (
            s * model.closed_scale(s, 1.0), 0.0)


def _rho_sc_defect(name, c_route, rho_route, s):
    """Why rho(s) = s c(s) misses its bound here, or None: Gumbel's is a
    FOUND line of CHANGES.md (its closed c(s) is its closed rho(s) / s),
    Uniform's ibp bound is ROADMAP Direction 13."""
    if name == "gumbel" and (c_route == "auto") != (rho_route == "auto"):
        if s <= (1e-5 if c_route == "ibp" else 1e-4):
            return ("FOUND: Gumbel's closed rho = gamma + ln G + E1(G) cancels "
                    "for small G = -ln(1-s)")
    if name == "uniform" and rho_route == "auto" and c_route == "ibp" and s <= 1e-5:
        return ("Direction 13: Uniform's ibp c(s) is off the exact s/2 by more "
                "than the error bound it reports")
    return None


def _rho_sc_cases():
    for entry in catalog():
        model = entry.model
        for c_route in ("auto", "ibp", "stieltjes"):
            for rho_route in ("auto", "quadrature"):
                for s in _RHO_MASSES:
                    why = _rho_sc_defect(model.name, c_route, rho_route, s)
                    marks = [pytest.mark.xfail(strict=True, reason=why)] if why else []
                    yield pytest.param(model, c_route, rho_route, s, marks=marks,
                                       id=f"{model.describe()}-c_{c_route}-rho_{rho_route}-{s:g}")


@pytest.mark.parametrize("model, c_route, rho_route, s", list(_rho_sc_cases()))
def test_rate_integral_is_s_times_scale(model, c_route, rho_route, s):
    # rho(s) = s c(s): both are int_0^s (Q(1-t) - Q(1-s)) dt, whatever the route
    c, c_err = tail_scale(model, s, method=c_route, with_error=True)
    rho, rho_err = rate_integral(model, s, extended=True, method=rho_route,
                                 with_error=True)
    bound = rho_err + s * c_err + 8.0 * np.spacing(max(abs(rho), abs(s * c)))
    assert abs(rho - s * c) <= bound


# -- representation residual --------------------------------------------


def test_representation_exponential_everywhere():
    m = Exponential(1.0)
    for s in (0.2, 0.05, 1e-3, 1e-6):
        assert representation_residual(m, s) <= 1e-7


def test_representation_weibull_spot():
    assert representation_residual(Weibull(2.0), 1e-4, anchor=0.25) <= 1e-6


def test_representation_requires_s_below_anchor():
    with pytest.raises(ValueError):
        representation_residual(Exponential(), 0.3, anchor=0.25)


# -- sequence ratio -----------------------------------------------------


def test_sequence_ratio_constant_slowvar():
    one = lambda s: 1.0
    root = lambda n: n**-0.5
    assert sequence_slowvar_ratio(one, 1.0, root, 100) == pytest.approx(0.1)
    assert sequence_slowvar_ratio(one, 1.0, root, 10**6) == pytest.approx(1e-3)


def test_sequence_ratio_log_slowvar():
    log = lambda s: math.log(1.0 / s)
    root = lambda n: n**-0.5
    v = sequence_slowvar_ratio(log, 1.0, root, 10**4)
    assert v == pytest.approx(0.02, rel=1e-12)


def test_sequence_ratio_validates_a_n():
    with pytest.raises(ValueError):
        sequence_slowvar_ratio(lambda s: 1.0, 1.0, lambda n: 2.0, 100)


# -- tables -------------------------------------------------------------


def test_table_exponential_columns():
    grid = SGrid.geometric(0.5, 0.5, 3)
    t = build_functional_table(Exponential(1.0), grid, betas=(1.0, 2.0))
    assert t.column_order == [
        "s", "c", "c_beta_1", "c_beta_2", "sigma2", "mu", "rho", "err_max",
    ]
    assert t.columns["c"] == pytest.approx([1.0, 1.0, 1.0])
    assert t.columns["c_beta_2"] == pytest.approx([0.5, 0.5, 0.5])
    assert t.columns["rho"] == pytest.approx([0.5, 0.25, 0.125])
    assert not t.notes


def test_table_pareto_scale_column_and_flags():
    grid = SGrid.geometric(0.5, 0.5, 3)
    t = build_functional_table(Pareto(2.0), grid)
    assert t.columns["c"] == pytest.approx(
        [1.4142135623730951, 2.0, 2.8284271247461903]
    )
    # the variance driver diverges: flagged, not fatal
    assert all(math.isnan(v) for v in t.columns["sigma2"])
    assert all(math.isinf(e) for e in t.errors["sigma2"])
    assert any("sigma2" in note for note in t.notes)
    assert "rho" not in t.columns

    text = functional_table_csv(t)
    assert text.startswith("# warning: pareto(2)")
    assert "Frechet" in text.splitlines()[0]


def test_table_empty_betas_and_determinism():
    grid = SGrid.geometric(0.25, 0.1, 2)
    t1 = build_functional_table(Weibull(2.0), grid)
    assert t1.column_order == ["s", "c", "sigma2", "mu", "rho", "err_max"]
    text = functional_table_csv(t1)
    assert functional_table_csv(build_functional_table(Weibull(2.0), grid)) == text
    header = text.splitlines()[0]
    assert header == "s,c,sigma2,mu,rho,err_max"


def test_table_positive_and_error_columns():
    grid = SGrid.geometric(0.5, 0.1, 3)
    for model in (Normal(), LogNormal(), Gamma(2.0)):
        t = build_functional_table(model, grid, betas=(2.0,))
        for i in range(len(grid)):
            assert t.columns["c"][i] > 0
            assert t.columns["sigma2"][i] >= 0
            assert math.isfinite(t.columns["mu"][i])
            assert t.err_max(i) < 1e-6


def test_uniform_closed_variance():
    assert tail_variance(Uniform(), 0.3) == pytest.approx(
        0.3**3 / 3 - 0.3**4 / 4, abs=1e-15
    )


def test_scale_input_validation():
    m = Exponential()
    with pytest.raises(ValueError):
        tail_scale(m, 0.0)
    with pytest.raises(ValueError):
        tail_scale(m, 1.0)
    with pytest.raises(ValueError):
        tail_scale(m, 0.1, beta=0.0)
    with pytest.raises(ValueError):
        tail_scale(m, 0.1, method="simpson")


@pytest.mark.parametrize("functional", [tail_scale, tail_mean, rate_integral,
                                        tail_variance])
@pytest.mark.parametrize("model", [Exponential(), Normal()])
def test_unknown_method_is_rejected(functional, model):
    kwargs = {"extended": True} if functional is rate_integral else {}
    with pytest.raises(ValueError, match="unknown method 'simpson'"):
        functional(model, 0.1, method="simpson", **kwargs)


class _NaNClosedForms(Exponential):
    """Claims closed forms for sigma2 and rho, but they evaluate to NaN."""

    def closed_variance(self, s):
        return math.nan

    def closed_rate_integral(self, s):
        return math.nan


@pytest.mark.parametrize("functional, what", [(tail_variance, "sigma2"),
                                              (rate_integral, "rho")])
def test_non_finite_closed_form_raises(functional, what):
    with pytest.raises(QuadratureError, match=rf"{what}\(0.1\) diverges for"):
        functional(_NaNClosedForms(), 0.1)


# -- ibp scale requests -------------------------------------------------


@pytest.fixture
def quad_calls(monkeypatch):
    """Record the label of every quadrature, lockstepped or alone."""
    calls = []
    real = quadrature._run_quads

    def counted(rule, fn, bounds, rel_tol, whats):
        calls.extend(whats)
        return real(rule, fn, bounds, rel_tol, whats)

    monkeypatch.setattr(quadrature, "_run_quads", counted)
    return calls


def _bits(pair):
    return tuple(float(x).hex() for x in pair)


@pytest.mark.parametrize("beta", [1.0, 0.5])
@pytest.mark.parametrize("make_model", [Normal, LogNormal, lambda: Gamma(2.0)],
                         ids=["normal", "lognormal", "gamma2"])
def test_repeated_scale_is_bit_stable(quad_calls, make_model, beta):
    model = make_model()

    def route(**kw):
        return tail_scale(model, 0.01, beta, with_error=True, **kw)

    first = route()
    assert quad_calls == [f"c(0.01,{beta:g}) ibp"]
    assert _bits(route()) == _bits(first)
    assert _bits(route(method="ibp")) == _bits(first)


def test_request_keys_are_exact_floats(quad_calls):
    a, b = LogNormal(), LogNormal()
    # equal models give equal bits
    assert _bits(tail_scale(a, 0.01, with_error=True)) == \
        _bits(tail_scale(b, 0.01, with_error=True))
    calls = len(quad_calls)
    # the same s reached by another float is another key of the request
    tail_scale(a, np.array([0.01, float(np.nextafter(0.01, 1.0))]))
    assert len(quad_calls) == calls + 2


def test_array_call_integrates_each_key_once(quad_calls):
    model = LogNormal()
    first = tail_scale(model, np.array([0.01, 0.02, 0.01, 0.02]), 2.0)
    assert quad_calls == ["c(0.01,2) ibp", "c(0.02,2) ibp"]
    assert first[0] == first[2] and first[1] == first[3]


def test_identical_requests_share_each_quadrature(quad_calls):
    """The batch integrates each distinct quadrature once, whichever
    requests ask for it, and each request gets its outcomes alone."""
    keys = [(Normal(), s) for s in (0.1, 1e-3, 1e-6)]
    together = functionals._run(functionals._scale(keys, 1.0), functionals._scale(keys, 1.0))
    assert len(quad_calls) == len(keys)
    [alone] = functionals._run(functionals._scale(keys, 1.0))
    assert [[_bits(out) for out in outs] for outs in together] == \
        [[_bits(out) for out in alone]] * 2


def test_failed_quadrature_fails_again(quad_calls):
    model = Pareto(2.0)   # c(s, 1/2) diverges logarithmically
    messages = []
    for _ in range(3):
        with pytest.raises(QuadratureError) as exc:
            tail_scale(model, 0.1, 0.5, method="ibp")
        messages.append(str(exc.value))
    assert messages == [messages[0]] * 3
    assert messages[0].startswith("c(0.1,0.5) ibp: quadrature did not converge")
    assert len(quad_calls) == 3


# -- closed forms filled by identities -----------------------------------


class _RateOnly(Exponential):
    """An exponential that declares rho(s) but neither c(s) nor mu(s)."""

    def closed_scale(self, s, beta):
        return None

    def closed_mean_mass(self, s):
        return None


class _ScaleOnly(Exponential):
    """An exponential, tail rate and all, that does not declare rho(s)."""

    def closed_rate_integral(self, s):
        return None


_FILLED_MASSES = (0.5, 0.1, 1e-3, 1e-6, 1e-12)


@pytest.mark.parametrize("model, rho", [
    (_RateOnly(2.0), _RateOnly(2.0).closed_rate_integral),
    (AffineModel(_RateOnly(2.0), 3.0, -1.0), lambda s: 3.0 * (s / 2.0)),
], ids=["rate-only", "affine-over-rate-only"])
def test_a_closed_rate_closes_scale_and_mean(quad_calls, model, rho):
    """c(s) = rho(s) / s and mu(s) = rho(s) + s Q(1-s), exact with error 0,
    where the model declares only rho(s); c(s, beta) for beta != 1 has no
    such identity and is integrated."""
    for s in _FILLED_MASSES:
        assert _bits(tail_scale(model, s, with_error=True)) == _bits((rho(s) / s, 0.0))
        assert _bits(tail_mean(model, s, with_error=True)) == \
            _bits((rho(s) + s * model.tail_quantile(s), 0.0))
    assert quad_calls == []
    tail_scale(model, 0.1, 2.0)
    assert quad_calls == ["c(0.1,2) ibp"]


def test_a_closed_scale_closes_the_rate_of_a_rated_model(quad_calls):
    """rho(s) = s c(s), exact with error 0, where a model with a tail rate
    declares c(s) but not rho(s): r(u) is not integrated."""
    model = _ScaleOnly(2.0)
    for s in _FILLED_MASSES:
        assert _bits(rate_integral(model, s, with_error=True)) == \
            _bits((s * model.closed_scale(s, 1.0), 0.0))
    assert quad_calls == []


def test_limit_suite_repeats_on_one_instance():
    model = Gamma(2.0)
    first = limit_reports_csv(run_limit_suite(model))
    assert limit_reports_csv(run_limit_suite(model)) == first
