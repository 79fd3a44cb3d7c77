"""Release acceptance: nine numbered criteria, one summary line each.

Every criterion prints exactly one `[criterion N] PASS/FAIL ...` line on
the real stdout (bypassing pytest capture so the lines survive into piped
logs) and then asserts.  A FAIL line lists the subchecks that missed their
stated bounds together with the measured values, so a red run documents
itself.

Criteria 4, 5, 7 and 8 share one frozen Monte Carlo run: Exponential(1),
n = 50000, k = 76, 2000 replicates, master seed 7, one Philox stream per
replicate.  Two gates are known red and asserted as stated rather than
widened:

* criterion 2, scale ratio for LogNormal at beta = 0.5: the ratio
  converges like 1/sqrt(2 ln(1/s)) and still sits at 2.417 at s = 1e-6,
  far outside 2 +- 0.1;
* criterion 2, spacing limit for Weibull(2) at s = 1e-8: off -ln 2 by
  0.0247 against the allowed 0.02;
* criterion 4, T1 mean: the centering constant carries an intrinsic
  -0.5/sqrt(k) ~ -0.057 offset at finite n, and the seed-7 realization
  lands at -0.109, just past the -0.1 bound.  Neighbouring seeds pass,
  and the variance and KS gates hold.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from extremesum import (
    AffineModel,
    ExperimentConfig,
    Exponential,
    Gamma,
    Gumbel,
    KRule,
    LogNormal,
    Normal,
    Pareto,
    SGrid,
    SeedSpec,
    Weibull,
    balkema_dehaan_stat,
    cell_functionals,
    domain_check,
    draw_sample_max,
    draw_top_k,
    gumbel_cdf,
    ks_distance,
    mean_excess,
    representation_residual,
    run_experiment,
    scale_beta_ratio,
    slow_variation_check,
    spacing_log_ratio,
    statistic_T1,
    statistic_T2,
    statistic_T3,
    tail_mean,
    tail_scale,
    tail_variance,
    variance_scale_ratio,
)

SIX_GUMBEL = (Exponential(1.0), Gumbel(), Weibull(2.0), LogNormal(), Normal(),
              Gamma(2.0))
RATE_TRIO = (Exponential(1.0), Weibull(2.0), Gumbel())


def _conclude(cap, num, dt, budget, bad, note):
    if budget is not None and dt >= budget:
        bad.append(f"runtime {dt:.1f}s over the {budget:.0f}s budget")
    status = "PASS" if not bad else "FAIL"
    detail = note if not bad else "; ".join(bad)
    with cap.disabled():
        print(f"[criterion {num}] {status}: {detail} ({dt:.2f}s)", flush=True)
    assert not bad, f"criterion {num}: " + "; ".join(bad)


def test_criterion_1_functional_oracles(capsys):
    t0 = time.perf_counter()
    bad = []
    exp = Exponential(1.0)
    for s in (1e-4, 1e-2, 0.5):
        c1 = tail_scale(exp, s)
        if abs(c1 - 1.0) > 1e-6:
            bad.append(f"c({s:g}) = {c1:.8f} vs 1 +- 1e-6")
        c2 = tail_scale(exp, s, beta=2.0)
        if abs(c2 - 0.5) > 1e-6:
            bad.append(f"c({s:g}, 2) = {c2:.8f} vs 0.5 +- 1e-6")
    v = tail_variance(exp, 0.1)
    if abs(v - 0.19) > 1e-6:
        bad.append(f"sigma2(0.1) = {v:.8f} vs 0.19 +- 1e-6")
    mu = tail_mean(exp, 0.1)
    if abs(mu - 0.3302585) > 1e-6:
        bad.append(f"mu(0.1) = {mu:.8f} vs 0.3302585 +- 1e-6")
    _conclude(capsys, 1, time.perf_counter() - t0, 1.0, bad,
              "Exponential(1) closed-form oracles for c, c(., 2), sigma2, mu")


def test_criterion_2_limit_suite_values(capsys):
    t0 = time.perf_counter()
    bad = []
    for m in SIX_GUMBEL:
        for beta in (0.5, 2.0):
            tol = 1e-9 if isinstance(m, Exponential) else 0.1
            r = scale_beta_ratio(m, 1e-6, beta)
            if abs(r - 1.0 / beta) > tol:
                bad.append(f"scale ratio {m.describe()} beta={beta:g}: "
                           f"{r:.4f} vs {1.0 / beta:g} +- {tol:g}")
    for m in RATE_TRIO:
        v = variance_scale_ratio(m, 1e-4)
        if abs(v - 1.0) > 0.05:
            bad.append(f"variance-scale ratio {m.describe()}: {v:.4f}")
    for m in (Exponential(1.0), Weibull(2.0)):
        resid = abs(representation_residual(m, 1e-4))
        if resid > 1e-6:
            bad.append(f"representation residual {m.describe()}: {resid:.2e}")
        spc = spacing_log_ratio(m, 1e-8, 2.0)
        if abs(spc + math.log(2.0)) > 0.02:
            bad.append(f"spacing {m.describe()} at x=2: {spc:.5f} "
                       f"vs -ln 2 +- 0.02")
    for m in RATE_TRIO:
        ratio = m.tail_rate(1e-6) / tail_scale(m, 1e-6)
        if abs(ratio - 1.0) > 0.05:
            bad.append(f"rate/scale {m.describe()}: {ratio:.4f}")
    _conclude(capsys, 2, time.perf_counter() - t0, 30.0, bad,
              "scale-ratio, variance-scale, representation, spacing and "
              "rate/scale limits at desk s")


def test_criterion_3_negative_controls(capsys):
    t0 = time.perf_counter()
    bad = []
    rep = domain_check(Pareto(1.0))
    ratio = rep.values[-1]
    if rep.passed:
        bad.append("Pareto(1) unexpectedly passes the domain ratio check")
    if abs(ratio - 1.5) > 1e-9:
        bad.append(f"Pareto(1) domain ratio {ratio:.6f} != 1.5")
    if abs(ratio - rep.target) < 0.3:
        bad.append(f"Pareto(1) margin {abs(ratio - rep.target):.3f} < 0.3")
    grid = SGrid((1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    p2 = Pareto(2.0)
    rep2 = slow_variation_check(lambda s: tail_scale(p2, s), 2.0, grid, 0.05)
    ratio2 = rep2.values[-1]
    if rep2.passed:
        bad.append("Pareto(2) unexpectedly passes slow variation of c")
    if abs(ratio2 - 2.0 ** -0.5) > 1e-9:
        bad.append(f"Pareto(2) c(2s)/c(s) = {ratio2:.6f} != 2^-1/2")
    if abs(ratio2 - 1.0) < 0.25:
        bad.append(f"Pareto(2) deviation {abs(ratio2 - 1.0):.3f} < 0.25")
    _conclude(capsys, 3, time.perf_counter() - t0, None, bad,
              "Pareto(1) and Pareto(2) fail their checks with the stated "
              "margins")


@pytest.fixture(scope="module")
def desk_run():
    """The shared seed-7 cell plus the same cell through the experiment engine."""
    model = Exponential(1.0)
    n, k, replicates = 50000, 76, 2000
    cf = cell_functionals(model, n, k)
    t1 = np.empty(replicates)
    t2 = np.empty(replicates)
    t3 = np.empty(replicates)
    bdh = np.empty(replicates)
    ratio_me = np.empty(replicates)
    for r in range(replicates):
        d = draw_top_k(SeedSpec(7, r), n, k, model)
        t1[r] = statistic_T1(d, model, cf)
        t2[r] = statistic_T2(d, model, cf)
        t3[r] = statistic_T3(d, model, cf)
        bdh[r] = balkema_dehaan_stat(d)
        ratio_me[r] = mean_excess(d) / cf.scale
    cfg = ExperimentConfig(models=["exponential(1.0)"], n_values=[n],
                           replicates=replicates, master_seed=7,
                           statistics=("T1", "T2", "T3", "BDH"))
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    engine_seconds = time.perf_counter() - t0
    engine = {sid: samp.values
              for sid, samp in next(iter(res.samples.values())).items()}
    return {
        "model": model, "n": n, "k": k,
        "t1": t1, "t2": t2, "t3": t3, "bdh": bdh, "ratio_me": ratio_me,
        "engine": engine, "engine_seconds": engine_seconds,
    }


def test_criterion_4_gaussian_limits_at_desk_scale(desk_run, capsys):
    bad = []
    n, k = desk_run["n"], desk_run["k"]
    if KRule().resolve(n) != k:
        bad.append(f"default k rule gives {KRule().resolve(n)} != {k}")
    for sid in ("T1", "T2", "T3"):
        direct = desk_run[sid.lower()]
        if not np.array_equal(desk_run["engine"][sid], direct):
            bad.append(f"{sid}: parallel engine deviates from direct draws")
    t1, t2, t3 = desk_run["t1"], desk_run["t2"], desk_run["t3"]
    m1 = t1.mean()
    if not -0.1 <= m1 <= 0.1:
        bad.append(f"T1 mean {m1:+.6f} outside [-0.1, 0.1]")
    v1 = t1.var(ddof=1)
    if not 1.8 <= v1 <= 2.2:
        bad.append(f"T1 variance {v1:.6f} outside [1.8, 2.2]")
    ks1 = ks_distance(t1, lambda x: stats.norm.cdf(x, scale=math.sqrt(2.0)))
    if ks1 > 0.05:
        bad.append(f"T1 KS vs N(0,2) = {ks1:.4f} > 0.05")
    for sid, arr in (("T2", t2), ("T3", t3)):
        v = arr.var(ddof=1)
        if not 0.85 <= v <= 1.15:
            bad.append(f"{sid} variance {v:.6f} outside [0.85, 1.15]")
        ks = ks_distance(arr, stats.norm.cdf)
        if ks > 0.05:
            bad.append(f"{sid} KS vs N(0,1) = {ks:.4f} > 0.05")
    _conclude(capsys, 4, desk_run["engine_seconds"], 60.0, bad,
              "T1/T2/T3 match their Gaussian limits at n=50000, k=76, "
              "R=2000, seed 7")


def test_criterion_5_threshold_tail_concentration(desk_run, capsys):
    t0 = time.perf_counter()
    bad = []
    bdh = desk_run["bdh"]
    k = desk_run["k"]
    m = bdh.mean()
    if not 0.9 <= m <= 1.1:
        bad.append(f"BDH mean {m:.6f} outside [0.9, 1.1]")
    sd = bdh.std(ddof=1)
    ref = 1.0 / math.sqrt(k)
    if not ref / 2.0 <= sd <= ref * 2.0:
        bad.append(f"BDH sd {sd:.6f} not within factor 2 of {ref:.6f}")
    _conclude(capsys, 5, time.perf_counter() - t0, None, bad,
              f"n(1-U)/k concentrates at 1 (mean {m:.4f}, sd {sd:.4f})")


def test_criterion_6_normalized_maximum_law(capsys):
    t0 = time.perf_counter()
    bad = []
    model = Exponential(1.0)
    n, replicates = 100000, 2000
    mx = np.empty(replicates)
    for r in range(replicates):
        mx[r] = draw_sample_max(SeedSpec(7, r), n, model) - math.log(n)
    ks = ks_distance(mx, gumbel_cdf)
    if ks > 0.05:
        bad.append(f"KS of normalized maximum vs Gumbel = {ks:.4f} > 0.05")
    _conclude(capsys, 6, time.perf_counter() - t0, None, bad,
              f"(max - ln n) follows the Gumbel law at n=1e5 (KS {ks:.4f})")


def test_criterion_7_mean_excess_ratio(desk_run, capsys):
    t0 = time.perf_counter()
    bad = []
    m = desk_run["ratio_me"].mean()
    if not 0.9 <= m <= 1.1:
        bad.append(f"mean_excess / c(k/n) mean {m:.6f} outside [0.9, 1.1]")
    _conclude(capsys, 7, time.perf_counter() - t0, None, bad,
              f"mean excess over the threshold tracks c(k/n) (mean {m:.4f})")


def test_criterion_8_identity_and_equivariance(desk_run, capsys):
    t0 = time.perf_counter()
    bad = []
    gap = np.max(np.abs(desk_run["t3"] - (desk_run["t1"] - desk_run["t2"])))
    if gap > 1e-9:
        bad.append(f"per-replicate |T3 - (T1 - T2)| up to {gap:.2e} > 1e-9")
    base = Weibull(2.0)
    aff = AffineModel(base, scale=3.5, shift=-2.0)
    n, k = 5000, 31
    cf_base = cell_functionals(base, n, k)
    cf_aff = cell_functionals(aff, n, k)
    worst = 0.0
    for r in range(200):
        d_base = draw_top_k(SeedSpec(55, r), n, k, base)
        d_aff = draw_top_k(SeedSpec(55, r), n, k, aff)
        for f in (statistic_T1, statistic_T2, statistic_T3):
            worst = max(worst, abs(f(d_aff, aff, cf_aff)
                                   - f(d_base, base, cf_base)))
    if worst > 1e-10:
        bad.append(f"affine transform moves a T statistic by {worst:.2e} "
                   "> 1e-10")
    _conclude(capsys, 8, time.perf_counter() - t0, None, bad,
              f"T3 = T1 - T2 (gap {gap:.1e}) and affine equivariance "
              f"(gap {worst:.1e})")


def test_criterion_9_byte_identical_reports(tmp_path, capsys, subprocess_env):
    t0 = time.perf_counter()
    bad = []
    doc = {
        "models": ["exponential(1.0)"],
        "n_values": [2000],
        "replicates": 150,
        "master_seed": 11,
        "statistics": ["T1", "T2", "T3"],
    }
    outputs = {}
    codes = []
    for threads, sub in (("1", "a"), ("8", "b")):
        cwd = tmp_path / sub
        cwd.mkdir()
        (cwd / "cfg.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "extremesum", "simulate",
             "--config", "cfg.json", "--output-dir", "out",
             "--threads", threads],
            cwd=cwd, capture_output=True, text=True, env=subprocess_env,
        )
        codes.append(proc.returncode)
        outputs[sub] = {name: (cwd / "out" / name).read_bytes()
                        for name in ("report.json", "report.csv")}
    if codes[0] != codes[1] or codes[0] not in (0, 4):
        bad.append(f"exit codes {codes} (want equal, 0 or 4)")
    for name in ("report.json", "report.csv"):
        if outputs["a"][name] != outputs["b"][name]:
            bad.append(f"{name} differs between --threads 1 and --threads 8")
    _conclude(capsys, 9, time.perf_counter() - t0, None, bad,
              "simulate reports byte-identical for --threads 1 and 8")
