"""Model catalog: quantile correctness, tail metadata, parsing."""

import math

import numpy as np
import pytest
from scipy import stats

from extremesum import (
    AffineModel,
    Exponential,
    FRECHET_DOMAIN,
    GUMBEL_DOMAIN,
    Gamma,
    Gumbel,
    LogNormal,
    Normal,
    Pareto,
    UNKNOWN_DOMAIN,
    Uniform,
    UnsupportedModelError,
    WEIBULL_DOMAIN,
    Weibull,
    catalog,
    parse_model,
)

# Independent CDF oracles from scipy.stats for round-trip checks.
ORACLES = [
    (Exponential(1.0), stats.expon()),
    (Exponential(2.5), stats.expon(scale=1 / 2.5)),
    (Gumbel(0.0, 1.0), stats.gumbel_r()),
    (Gumbel(1.0, 2.0), stats.gumbel_r(loc=1.0, scale=2.0)),
    (Weibull(2.0), stats.weibull_min(2.0)),
    (Weibull(0.5), stats.weibull_min(0.5)),
    (Normal(), stats.norm()),
    (LogNormal(), stats.lognorm(1.0)),
    (Gamma(2.0), stats.gamma(2.0)),
    (Gamma(0.7), stats.gamma(0.7)),
    (Pareto(2.0), stats.pareto(2.0)),
    (Uniform(), stats.uniform()),
]


def test_catalog_contents():
    entries = catalog()
    names = [e.model.name for e in entries]
    assert names == [
        "exponential", "gumbel", "weibull", "normal",
        "lognormal", "gamma", "pareto", "uniform",
    ]
    labels = {e.model.name: e.model.domain_label for e in entries}
    assert labels["exponential"] == GUMBEL_DOMAIN
    assert labels["lognormal"] == GUMBEL_DOMAIN
    assert labels["pareto"] == FRECHET_DOMAIN
    assert labels["uniform"] == WEIBULL_DOMAIN


@pytest.mark.parametrize("model,frozen", ORACLES, ids=lambda m: str(m))
def test_quantile_matches_scipy(model, frozen):
    grid = np.concatenate(
        [
            np.linspace(0.001, 0.999, 201),
            [1e-6, 1e-9, 1e-12, 1 - 1e-6, 1 - 1e-9],
        ]
    )
    ours = np.array([model.quantile(s) for s in grid])
    ref = frozen.ppf(grid)
    assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("model,frozen", ORACLES, ids=lambda m: str(m))
def test_cdf_round_trip(model, frozen):
    # |F(Q(s)) - s| small on a dense grid, F the independent scipy.stats cdf.
    grid = np.linspace(1e-6, 1 - 1e-6, 500)
    q = np.array([model.quantile(s) for s in grid])
    back = frozen.cdf(q)
    assert np.max(np.abs(back - grid)) <= 1e-9
    # generalized-inverse direction
    assert np.all(back >= grid - 1e-12)


@pytest.mark.parametrize(
    "model",
    [m for m, _ in ORACLES] + [AffineModel(Exponential(), 2.0, -1.0)],
    ids=lambda m: str(m),
)
def test_quantile_monotone(model):
    rng = np.random.default_rng(2026)
    a = rng.uniform(1e-9, 1 - 1e-9, size=10_000)
    b = rng.uniform(1e-9, 1 - 1e-9, size=10_000)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    qlo = np.array([model.quantile(s) for s in lo])
    qhi = np.array([model.quantile(s) for s in hi])
    assert np.all(qlo <= qhi + 1e-12)


def test_branch_crossover_consistency():
    # quantile and tail_quantile must agree across the 1/2 hand-off
    for model, _ in ORACLES:
        for s in (0.5, 0.5 - 1e-12, 0.5 + 1e-12, 0.25, 0.75):
            assert model.quantile(s) == pytest.approx(
                model.tail_quantile(1.0 - s), rel=1e-12, abs=1e-12
            )


def test_extreme_tail_masses_stay_finite():
    # the tail branch must survive masses far below double rounding of 1-s
    for model, _ in ORACLES:
        for t in (1e-300, 1e-15, 2.0**-53):
            v = model.tail_quantile(t)
            assert math.isfinite(v)


def test_quantile_rejects_bad_probability():
    m = Exponential()
    for bad in (0.0, 1.0, -0.2, 1.2, math.nan, math.inf, -math.inf):
        # a scalar, and one bad element inside an otherwise valid array
        for arg in (bad, np.array([0.1, bad, 0.5])):
            with pytest.raises(ValueError):
                m.quantile(arg)
            with pytest.raises(ValueError):
                m.tail_quantile(arg)


@pytest.mark.parametrize("model", [Exponential(1.0), Weibull(2.0), Normal(),
                                   AffineModel(Gamma(2.0), 3.0, -1.0)],
                         ids=lambda m: str(m))
def test_tail_quantile_entry_contract(model):
    """What the argument check and the split at 1/2 promise, any input."""
    for bad in (np.array([0.1, math.nan, 0.2]), np.array([math.nan]),
                0.0, 1.0, np.array([0.0, 0.3]), np.array([0.3, 1.0])):
        with pytest.raises(ValueError, match="t must lie strictly inside"):
            model.tail_quantile(bad)
    empty = model.tail_quantile(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    # straddles 1/2 in both orders, the midpoint and its neighbours included
    mixed = np.array([0.2, 0.7, 0.5, float(np.nextafter(0.5, 1.0)), 1e-9,
                      0.999, float(np.nextafter(0.5, 0.0))])
    assert np.array_equal(model.tail_quantile(mixed),
                          [model.tail_quantile(float(t)) for t in mixed])
    for scalar in (0.3, 0.7, np.float64(0.3), np.array(0.3), np.array(0.7)):
        assert type(model.tail_quantile(scalar)) is float


@pytest.mark.parametrize("model",
                         [e.model for e in catalog()] + [AffineModel(Weibull(2.0), 3.0, -1.0)],
                         ids=lambda m: str(m))
def test_tail_density_and_rate_entry_contract(model):
    methods = [model.tail_density] + ([model.tail_rate] if model.has_tail_rate else [])
    for method in methods:
        for bad in (math.nan, 0.0, 1.0, 1.5, np.array([0.1, math.nan])):
            with pytest.raises(ValueError, match="must lie strictly inside"):
                method(bad)
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(method(scalar)) is float
        grid = np.array([[0.1, 0.2, 0.3], [0.4, 0.6, 0.9]])
        assert np.array_equal(method(grid),
                              [[method(float(t)) for t in row] for row in grid])


# -- tail rate ----------------------------------------------------------


def test_tail_rate_exponential_is_inverse_rate():
    assert Exponential(1.0).tail_rate(0.3) == pytest.approx(1.0, abs=1e-15)
    assert Exponential(4.0).tail_rate(0.3) == pytest.approx(0.25, abs=1e-15)


def test_tail_rate_frozen_values():
    # independently derived: r(u) = u * dQ(1-u)/d(-u)
    # weibull(2): r(u) = (1/2) (ln(1/u))^{-1/2}
    assert Weibull(2.0).tail_rate(0.1) == pytest.approx(
        0.5 / math.sqrt(math.log(10.0)), rel=1e-12
    )
    assert Weibull(2.0).tail_rate(0.1) == pytest.approx(0.3295051145, rel=1e-9)
    # gumbel: r(u) = -u / ((1-u) ln(1-u))
    assert Gumbel().tail_rate(0.2) == pytest.approx(
        -0.2 / (0.8 * math.log(0.8)), rel=1e-12
    )
    assert Gumbel().tail_rate(0.2) == pytest.approx(1.120355029, rel=1e-9)


@pytest.mark.parametrize(
    "model", [Exponential(1.5), Gumbel(0.5, 2.0), Weibull(2.0), Weibull(0.8)],
    ids=lambda m: str(m),
)
def test_tail_rate_matches_quantile_derivative(model):
    # r(u) = u * Q'(1-u), checked by central differences on Q
    for u in (0.4, 0.1, 0.01, 1e-4):
        h = u * 1e-6
        slope = (model.tail_quantile(u - h) - model.tail_quantile(u + h)) / (2 * h)
        assert model.tail_rate(u) == pytest.approx(u * slope, rel=1e-7)


def test_tail_rate_unavailable_outside_representation_class():
    for model in (Normal(), LogNormal(), Gamma(2.0), Pareto(2.0), Uniform()):
        with pytest.raises(UnsupportedModelError):
            model.tail_rate(0.1)
        assert not model.has_tail_rate


def test_tail_density_matches_tail_quantile_slope():
    for model, _ in ORACLES:
        for t in (0.3, 0.05, 0.01):
            h = t * 1e-6
            slope = (model.tail_quantile(t - h) - model.tail_quantile(t + h)) / (2 * h)
            assert model.tail_density(t) == pytest.approx(slope, rel=1e-6)


# -- construction and parsing ------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Exponential(-1.0)
    with pytest.raises(ValueError):
        Weibull(0.0)
    with pytest.raises(ValueError):
        Gamma(-2.0)
    with pytest.raises(ValueError):
        Pareto(0.0)
    with pytest.raises(ValueError):
        Gumbel(0.0, 0.0)
    with pytest.raises(ValueError):
        AffineModel(Exponential(), scale=0.0)


def test_parse_model_round_trip():
    for text in (
        "exponential(1.0)", "exponential", "gumbel", "gumbel(1.0,2.0)",
        "weibull(2.0)", "normal", "lognormal", "gamma(2.0)",
        "pareto(1.0)", "uniform",
    ):
        model = parse_model(text)
        again = parse_model(model.describe())
        assert type(again) is type(model)
        assert again.params == model.params


def test_parse_model_rejects_garbage():
    for bad in ("banana(1)", "weibull", "weibull()", "weibull(1,2)",
                "pareto", "exponential(1))(", "exponential(x)", ""):
        with pytest.raises(ValueError):
            parse_model(bad)


def test_parse_model_whitespace_and_case():
    assert parse_model(" Exponential( 1.0 ) ").describe() == "exponential(1)"


# -- affine wrapper -----------------------------------------------------


def test_affine_model_transforms_quantile():
    base = Exponential(1.0)
    aff = AffineModel(base, scale=3.0, shift=-2.0)
    for s in (0.1, 0.5, 0.9):
        assert aff.quantile(s) == pytest.approx(3.0 * base.quantile(s) - 2.0)
    assert aff.domain_label == base.domain_label
    assert aff.has_tail_rate
    assert aff.tail_rate(0.2) == pytest.approx(3.0 * base.tail_rate(0.2))
    assert aff.closed_mean_mass(0.1) == pytest.approx(
        3.0 * base.closed_mean_mass(0.1) + 0.1 * -2.0
    )
    assert aff.closed_variance(0.1) == pytest.approx(
        9.0 * base.closed_variance(0.1)
    )
    assert "affine[exponential]" in aff.describe()


def test_describe_formats_parameters_compactly():
    assert Exponential(1.0).describe() == "exponential(1)"
    assert Weibull(2.0).describe() == "weibull(2)"
    assert Gumbel(0.0, 1.0).describe() == "gumbel(0,1)"
