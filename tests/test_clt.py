"""Tail-sum statistics, limiting moments, replicated experiments."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from extremesum import (
    AffineModel,
    CellFunctionals,
    ConfigError,
    Exponential,
    ExperimentConfig,
    FunctionalTable,
    GaussianMoments,
    Gumbel,
    KRule,
    Normal,
    NormalityReport,
    SeedSpec,
    StatSample,
    Weibull,
    cell_functionals,
    draw_sample_max,
    draw_top_k,
    gumbel_cdf,
    gumbel_norming,
    ks_distance,
    limiting_gaussian_moments,
    mean_excess,
    run_experiment,
    statistic_T1,
    statistic_T2,
    statistic_T3,
    summarize_statistic,
    tail_scale,
    tail_variance,
)
from extremesum import quadrature
from extremesum.errors import NumericError

EXP = Exponential(1.0)


def _forced_draw(n, k, top_x, threshold_x, model=EXP):
    """A ReplicateDraw with chosen values; uniform layer backfilled."""
    d = draw_top_k(SeedSpec(0, 0), n, k, model)
    d.top_x = np.asarray(top_x, dtype=float)
    d.threshold_x = float(threshold_x)
    return d


# -- k rules ------------------------------------------------------------


def test_krule_power_resolution():
    r = KRule()
    assert r.resolve(50000) == 76           # ceil(50000^0.4)
    assert r.resolve(5000) == 31
    assert r.resolve(4) == 2
    big = [r.resolve(n) for n in (10**3, 10**5, 10**7)]
    assert big[0] < big[1] < big[2]
    assert all(r.resolve(n) / n < 0.05 for n in (10**3, 10**5, 10**7))


def test_krule_fixed_and_validation():
    assert KRule(kind="fixed", fixed_k=10).resolve(100) == 10
    with pytest.raises(ValueError):
        KRule(kind="fixed", fixed_k=10).resolve(10)
    with pytest.raises(ValueError):
        KRule(kind="banana")
    with pytest.raises(ValueError):
        KRule(coeff=0.0)
    with pytest.raises(ValueError):
        KRule(gamma=1.0)
    with pytest.raises(ValueError):
        KRule(gamma=0.0)
    with pytest.raises(ValueError):
        KRule(kind="fixed", fixed_k=0)
    with pytest.raises(ValueError):
        KRule(coeff=100.0).resolve(10)      # k >= n


# -- hand-checked statistic values --------------------------------------


def test_t1_hand_value():
    # n = 4, k = 2, top = {3, 2}: S = 5, n mu(1/2) = 2(1 - ln(1/2)),
    # c = 1, so T1 = (5 - 2 - 2 ln 2)/sqrt(2)
    d = _forced_draw(4, 2, [3.0, 2.0], 1.5)
    t1 = statistic_T1(d, EXP)
    assert t1 == pytest.approx((3.0 - 2.0 * math.log(2.0)) / math.sqrt(2.0), abs=1e-12)
    assert t1 == pytest.approx(1.1410622000910953, abs=1e-12)


def test_t1_centered_is_zero():
    target = 4 * (0.5 * (1.0 - math.log(0.5)))
    d = _forced_draw(4, 2, [target / 2, target / 2], 0.1)
    assert statistic_T1(d, EXP) == pytest.approx(0.0, abs=1e-12)


def test_t2_hand_value():
    d = _forced_draw(4, 2, [3.0, 2.0], 1.5)
    t2 = statistic_T2(d, EXP)
    assert t2 == pytest.approx(math.sqrt(2.0) * (1.5 - math.log(2.0)), abs=1e-12)
    assert t2 == pytest.approx(1.1410622000910953, abs=1e-12)


def test_t2_centered_is_zero():
    d = _forced_draw(4, 2, [3.0, 2.0], math.log(2.0))
    assert statistic_T2(d, EXP) == pytest.approx(0.0, abs=1e-12)


def test_t3_hand_value_is_zero():
    # S - k X - n rho = 5 - 3 - 4 * 0.5 = 0
    d = _forced_draw(4, 2, [3.0, 2.0], 1.5)
    assert statistic_T3(d, EXP) == pytest.approx(0.0, abs=1e-12)


def test_mean_excess_hand_values():
    d = _forced_draw(4, 2, [3.0, 2.0], 1.5)
    assert mean_excess(d) == pytest.approx(1.0, abs=1e-15)
    d2 = _forced_draw(4, 2, [1.5, 1.5], 1.5)
    assert mean_excess(d2) == pytest.approx(0.0, abs=1e-15)


# -- algebraic identity and equivariance --------------------------------


@pytest.mark.parametrize("model", [EXP, Weibull(2.0), Gumbel()], ids=lambda m: str(m))
def test_t3_equals_t1_minus_t2(model):
    cf = cell_functionals(model, 5000, 31)
    for r in range(100):
        d = draw_top_k(SeedSpec(17, r), 5000, 31, model)
        t1 = statistic_T1(d, model, cf)
        t2 = statistic_T2(d, model, cf)
        t3 = statistic_T3(d, model, cf)
        assert abs(t3 - (t1 - t2)) <= 1e-10


def test_statistics_affine_invariant():
    # T's are scale/location free: shifting and scaling the model moves
    # the draw and the functionals together
    base = Weibull(2.0)
    aff = AffineModel(base, scale=3.5, shift=-2.0)
    cf_b = cell_functionals(base, 2000, 20)
    cf_a = cell_functionals(aff, 2000, 20)
    for r in range(50):
        db = draw_top_k(SeedSpec(23, r), 2000, 20, base)
        da = draw_top_k(SeedSpec(23, r), 2000, 20, aff)
        for fn in (statistic_T1, statistic_T2, statistic_T3):
            assert fn(da, aff, cf_a) == pytest.approx(
                fn(db, base, cf_b), abs=1e-10
            )


def test_cell_functionals_mismatch_raises():
    d = draw_top_k(SeedSpec(0, 0), 100, 5, EXP)
    wrong = cell_functionals(EXP, 200, 5)
    with pytest.raises(ValueError):
        statistic_T1(d, EXP, wrong)
    with pytest.raises(ValueError):
        cell_functionals(EXP, 100, 100)


# -- limiting moments ---------------------------------------------------


def test_moments_exponential_closed():
    g = limiting_gaussian_moments(EXP, 10000, 100)
    assert g.varZ == pytest.approx(1.99, abs=1e-12)
    assert g.varY == pytest.approx(0.99, abs=1e-15)
    assert g.cov == pytest.approx(0.99, abs=1e-15)
    assert g.varDiff == pytest.approx(1.00, abs=1e-12)


def test_moments_varz_is_two_minus_s_for_exponential():
    for n, k in ((100, 10), (10**6, 500)):
        g = limiting_gaussian_moments(EXP, n, k)
        assert g.varZ == pytest.approx(2.0 - k / n, abs=1e-10)


def test_moments_limit_along_root_n():
    for model in (EXP, Gumbel()):
        g = limiting_gaussian_moments(model, 10**8, 10**4)
        assert abs(g.varZ - 2.0) < 0.01
        assert abs(g.varDiff - 1.0) < 0.01


def test_moments_edge_k():
    g = limiting_gaussian_moments(EXP, 10, 5)
    assert g.varY == pytest.approx(0.5)
    assert limiting_gaussian_moments(EXP, 10, 9).varY == pytest.approx(0.1)
    with pytest.raises(ValueError):
        limiting_gaussian_moments(EXP, 10, 10)


def test_moments_resolve_in_one_batch(monkeypatch):
    """c(k/n) and sigma2(k/n) share one lockstep batch of quadratures, and
    give the bits of the two separate calls."""
    model, n, k = Normal(), 10**4, 10**2
    s = k / n
    c = tail_scale(model, s)
    want = GaussianMoments(varZ=tail_variance(model, s) / (s * c * c), varY=1.0 - s,
                           cov=1.0 - s)
    batches = []
    real = quadrature._run_quads

    def counted(rule, fn, bounds, rel_tol, whats):
        batches.append(list(whats))
        return real(rule, fn, bounds, rel_tol, whats)

    monkeypatch.setattr(quadrature, "_run_quads", counted)
    assert limiting_gaussian_moments(model, n, k) == want
    assert batches == [["c(0.01,1) ibp", "sigma2(0.01)"]]


def test_gaussian_moments_vardiff_formula():
    g = GaussianMoments(varZ=2.0, varY=1.0, cov=0.75)
    assert g.varDiff == pytest.approx(2.0 + 1.0 - 1.5)


# -- max norming --------------------------------------------------------


def test_gumbel_norming_exponential():
    a, b = gumbel_norming(EXP, 1000)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(math.log(1000.0), abs=1e-12)
    a10, b10 = gumbel_norming(EXP, 10)
    assert (a10, b10) == pytest.approx((1.0, math.log(10.0)), abs=1e-12)
    with pytest.raises(ValueError):
        gumbel_norming(EXP, 1)


def test_normed_max_is_gumbel():
    n, reps = 10**5, 2000
    a, b = gumbel_norming(EXP, n)
    xs = np.array(
        [(draw_sample_max(SeedSpec(7, r), n, EXP) - b) / a for r in range(reps)]
    )
    assert ks_distance(xs, gumbel_cdf) <= 0.05


# -- summaries ----------------------------------------------------------


def test_summarize_normal_sample_passes():
    rng = np.random.default_rng(3)
    s = summarize_statistic("T2", rng.normal(size=2000), 0)
    assert s.verdict == "pass"
    assert s.failed_bounds == ()
    assert abs(s.mean) < 0.1 and abs(s.variance - 1.0) < 0.1
    assert s.target_variance == 1.0
    assert 0.0 <= s.ks <= 1.0


def test_summarize_flags_wrong_variance():
    rng = np.random.default_rng(3)
    s = summarize_statistic("T2", 2.0 * rng.normal(size=2000), 0)
    assert s.verdict == "fail"
    assert any("var" in b for b in s.failed_bounds)


def test_summarize_flags_shifted_mean():
    rng = np.random.default_rng(3)
    vals = np.sqrt(2.0) * rng.normal(size=2000) + 0.5
    s = summarize_statistic("T1", vals, 0)
    assert s.verdict == "fail"
    assert any("mean" in b for b in s.failed_bounds)


def test_summarize_tolerance_override():
    rng = np.random.default_rng(3)
    vals = 2.0 * rng.normal(size=2000)
    s = summarize_statistic("T2", vals, 0, {"var": (3.5, 4.5), "ks": 1.0})
    assert s.verdict == "pass"


def test_summarize_insufficient():
    s = summarize_statistic("T2", np.array([0.3]), 0)
    assert s.verdict == "insufficient"
    assert math.isnan(s.variance)
    s0 = summarize_statistic("T2", np.array([]), 2)
    assert s0.verdict == "insufficient" and s0.numeric_failures == 2


def test_summarize_bdh_spread_bound_scales_with_k():
    rng = np.random.default_rng(5)
    k = 100
    z = rng.normal(size=2000)
    s = summarize_statistic("BDH", 1.0 + z / math.sqrt(k), 0, k=k)
    assert s.verdict == "pass" and s.target_variance == 1.0 / k
    assert math.isnan(s.ks) and math.isnan(s.ad)
    wide = 1.0 + 3.0 * z / math.sqrt(k)
    s = summarize_statistic("BDH", wide, 0, k=k)
    assert s.verdict == "fail"
    assert len(s.failed_bounds) == 1
    assert s.failed_bounds[0].startswith("sd ")
    assert s.failed_bounds[0].endswith("outside factor 2 of 0.1")
    assert summarize_statistic("BDH", wide, 0, {"sd_factor": 4}, k=k).verdict == "pass"


def test_summarize_insufficient_bdh_has_no_target_variance():
    s = summarize_statistic("BDH", np.array([1.0]), 0, k=10)
    assert s.verdict == "insufficient" and math.isnan(s.target_variance)


def test_summarize_rejects_bounds_that_do_not_apply():
    vals = np.random.default_rng(3).normal(size=100)
    with pytest.raises(ConfigError, match=r"allowed for BDH: \['mean', 'var', 'sd_factor'\]"):
        summarize_statistic("BDH", 1.0 + vals, 0, {"ks": 0.1}, k=10)
    with pytest.raises(ConfigError, match="T2.var must be"):
        summarize_statistic("T2", vals, 0, {"var": (1.2, 0.8)})
    # sd_factor bounds BDH alone; a built config never carries it for T2
    with pytest.raises(ConfigError, match=r"inapplicable tolerance key T2\.sd_factor"):
        summarize_statistic("T2", vals, 0, {"sd_factor": 2})


# -- experiments --------------------------------------------------------


def _small_config(**kw):
    base = dict(
        models=("exponential(1.0)",),
        n_values=(2000,),
        replicates=200,
        master_seed=11,
        statistics=("T1", "T2", "T3", "MAX", "BDH"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_small_cell():
    res = run_experiment(_small_config())
    assert len(res.reports) == 1
    rep = res.reports[0]
    assert rep.model == "exponential(1)" and rep.n == 2000
    assert rep.k == KRule().resolve(2000)
    by_id = {s.statistic_id: s for s in rep.summaries}
    assert set(by_id) == {"T1", "T2", "T3", "MAX", "BDH"}
    assert by_id["BDH"].target_variance == pytest.approx(1.0 / rep.k)
    assert by_id["BDH"].verdict == "pass"
    samples = res.samples[("exponential(1)", 2000)]
    for stat, sample in samples.items():
        assert sample.values.shape == (200,)
        assert np.isfinite(sample.values).all()
        assert sample.numeric_failures == 0


def test_records_keep_no_copy_of_their_keys():
    """s is k/n, a report's seed is its config's, a table's betas name its
    c_beta_* columns, and result.samples[(model, n)][stat] keys a sample."""
    dropped = {CellFunctionals: {"s"}, NormalityReport: {"master_seed"},
               FunctionalTable: {"betas"}, StatSample: {"statistic_id", "n", "k"}}
    for record, names in dropped.items():
        assert not names & {f.name for f in dataclasses.fields(record)}


def test_run_experiment_streams_differ_across_cells():
    cfg = _small_config(n_values=(2000, 2500), replicates=32)
    res = run_experiment(cfg)
    a = res.samples[("exponential(1)", 2000)]["T1"].values
    b = res.samples[("exponential(1)", 2500)]["T1"].values
    assert not np.array_equal(a, b)


def test_run_experiment_rejects_bad_config():
    with pytest.raises(ConfigError):
        run_experiment(_small_config(replicates=0))
    with pytest.raises(TypeError):
        run_experiment({"models": ["exponential(1.0)"]})


def test_run_experiment_single_replicate_is_insufficient():
    res = run_experiment(_small_config(replicates=1, statistics=("T1",)))
    s = res.reports[0].summaries[0]
    assert s.verdict == "insufficient"
    assert not res.reports[0].passed


class _ZeroScale(Exponential):
    """An exponential whose tail scale is 0, as when c(s) underflows."""

    name = "zero-scale"

    def closed_scale(self, s, beta):
        return 0.0


@pytest.mark.parametrize("stat", ["T1", "MAX"])
def test_zero_scale_fails_the_cell_without_a_warning(monkeypatch, stat):
    # T1 divides by c(k/n) and MAX by c(1/n): every replicate is non-finite
    monkeypatch.setattr(ExperimentConfig, "model_objects", lambda self: [_ZeroScale()])
    config = _small_config(replicates=10, statistics=(stat,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"^10 of 10 replicates non-finite for {stat} "):
            run_experiment(config)


def test_mean_excess_ratio_concentrates():
    n, k, reps = 50000, 76, 400
    c = tail_scale(EXP, k / n)
    vals = [
        mean_excess(draw_top_k(SeedSpec(7, r), n, k, EXP)) / c
        for r in range(reps)
    ]
    assert 0.9 <= float(np.mean(vals)) <= 1.1
