"""Top-k order-statistic sampling: reproducibility, laws, O(k) cost."""

import time

import numpy as np
import pytest
import scipy.stats as st

from extremesum import (
    Exponential,
    SeedSpec,
    balkema_dehaan_stat,
    draw_batch,
    draw_sample_max,
    draw_top_k,
    ks_distance,
)
from extremesum import sampling
from extremesum.clt import STATISTICS
from extremesum.sampling import _descending_tails

EXP = Exponential(1.0)


# -- seeds --------------------------------------------------------------


def test_seedspec_masks_to_64_bits():
    s = SeedSpec(2**64 + 5, -1)
    assert s.master_seed == 5
    assert s.stream_id == 2**64 - 1


def test_seedspec_child_offsets():
    s = SeedSpec(7, 10)
    assert s.child(3) == SeedSpec(7, 13)
    assert s.child(0) == s
    # wraps rather than overflows
    assert SeedSpec(7, 2**64 - 1).child(1) == SeedSpec(7, 0)


def test_generators_differ_across_streams_and_seeds():
    a = SeedSpec(42, 0).generator().random(4)
    b = SeedSpec(42, 1).generator().random(4)
    c = SeedSpec(43, 0).generator().random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- reproducibility ----------------------------------------------------

def test_draw_is_bit_identical_across_calls():
    d1 = draw_top_k(SeedSpec(42, 0), 10, 3, EXP)
    d2 = draw_top_k(SeedSpec(42, 0), 10, 3, EXP)
    assert np.array_equal(d1.top_x, d2.top_x)
    assert np.array_equal(d1.top_tail, d2.top_tail)
    assert d1.threshold_x == d2.threshold_x
    assert d1.threshold_tail == d2.threshold_tail

    d3 = draw_top_k(SeedSpec(42, 1), 10, 3, EXP)
    assert not np.array_equal(d1.top_x, d3.top_x)


def test_draw_frozen_values():
    # regression pin: Philox key (42, 0), n = 10, k = 3, unit exponential
    d = draw_top_k(SeedSpec(42, 0), 10, 3, EXP)
    assert list(d.top_x) == [
        3.930910803583047,
        1.686424284627914,
        1.611884026608503,
    ]
    assert d.threshold_x == 1.207000763368144
    assert d.threshold_tail == 0.2990929861806843


# -- structure ----------------------------------------------------------


def test_draw_ordering_and_consistency():
    for stream in range(20):
        d = draw_top_k(SeedSpec(11, stream), 1000, 12, EXP)
        assert d.n == 1000 and d.k == 12
        assert d.top_x.shape == (12,) and d.top_tail.shape == (12,)
        # descending values, ascending tail masses
        assert np.all(np.diff(d.top_x) <= 0)
        assert np.all(np.diff(d.top_tail) >= 0)
        assert d.top_x[-1] >= d.threshold_x
        assert d.top_tail[-1] <= d.threshold_tail
        assert not d.clamped
        assert np.all(d.top_tail > 0) and d.threshold_tail < 1


def test_draw_k_validation():
    with pytest.raises(ValueError):
        draw_top_k(SeedSpec(1), 10, 0, EXP)
    with pytest.raises(ValueError):
        draw_top_k(SeedSpec(1), 10, 10, EXP)
    with pytest.raises(ValueError):
        draw_top_k(SeedSpec(1), 10, 11, EXP)
    with pytest.raises(ValueError):
        draw_sample_max(SeedSpec(1), 0, EXP)


def test_forced_boundary_stream_clamps_and_flags():
    # V = 1 drives every uniform to the upper boundary; the row must
    # clamp into the open interval and flag itself rather than emit 1.0,
    # while an ordinary row beside it stays unflagged
    v = np.vstack([np.full(4, 0.5), np.ones(4)])
    tails, clamped = _descending_tails(v, 10)
    assert list(clamped) == [False, True]
    assert np.all(tails[1, :3] == 2.0**-53)
    assert np.isfinite(EXP.tail_quantile(tails[1])).all()


def test_forced_half_stream_sample_max():
    # V = 0.5, n = 1: X_{1,1} = Q(0.5) = ln 2 for the unit exponential
    tails, _ = _descending_tails(np.full((1, 1), 0.5), 1)
    assert EXP.tail_quantile(tails)[0, 0] == pytest.approx(
        np.log(2.0), abs=1e-15
    )


def test_clamp_flag_on_degenerate_draws():
    # at n = 1e18 the top tail mass sits near 1e-18, far below 2^-53, so
    # essentially every draw trips the clamp
    hits = 0
    for stream in range(10):
        d = draw_top_k(SeedSpec(9, stream), 10**18, 2, EXP)
        if d.clamped:
            hits += 1
            assert d.top_tail[0] >= 2.0**-53
            assert np.isfinite(d.top_x).all()
    assert hits > 0


# -- exact distributions ------------------------------------------------


def test_top_of_two_is_beta_2_1():
    # with n = 2, k = 1 the records construction gives U_{2,2} = V^{1/2}
    # exactly; bind the API to that identity stream by stream, then run
    # the 10^6-draw Monte Carlo on the identity vectorized (same law,
    # without paying for a million generator setups)
    for r in range(200):
        d = draw_top_k(SeedSpec(5, r), 2, 1, EXP)
        v = SeedSpec(5, r).generator().random(2)
        assert 1.0 - d.top_tail[0] == pytest.approx(np.sqrt(v[0]), abs=1e-15)
        assert 1.0 - d.threshold_tail == pytest.approx(
            np.sqrt(v[0]) * v[1], abs=1e-15
        )

    v = SeedSpec(5, 10**9).generator().random(10**6)
    vals = np.sqrt(v)
    assert abs(vals.mean() - 2.0 / 3.0) < 0.002
    assert abs(vals.std() - np.sqrt(1.0 / 18.0)) < 0.002


def test_threshold_tail_is_beta_k1_nk():
    # 1 - U_{n-k,n} ~ Beta(k+1, n-k); n = 100, k = 5 -> Beta(6, 95)
    # streams (31, r) for r < reps, drawn as one batch
    n, k, reps = 100, 5, 10**5
    tails, _, _ = draw_batch(SeedSpec(31, 0), reps, n, k + 1, EXP)
    d = ks_distance(tails[:, k], st.beta(k + 1, n - k).cdf)
    assert d <= 0.01


def test_exponential_excesses_follow_the_exact_law():
    # Renyi (1953): for Exponential(1) the excesses S_k - k X_{n-k,n} are
    # exactly Gamma(k, 1) and independent of X_{n-k,n}, and
    # E[X_{n-k,n}] = H_n - H_k.  The desk cell's n and k, no asymptotics.
    n, k, reps = 50000, 76, 20000
    _, xs, clamped = draw_batch(SeedSpec(11, 0), reps, n, k + 1, EXP)
    assert not clamped.any()
    threshold = xs[:, k]
    excess = xs[:, :k].sum(axis=1) - k * threshold
    assert st.kstest(excess, st.gamma(k).cdf).pvalue > 0.01
    mean = sum(1.0 / j for j in range(k + 1, n + 1))
    assert abs(threshold.mean() - mean) < 4.0 * threshold.std(ddof=1) / np.sqrt(reps)
    assert abs(np.corrcoef(excess, threshold)[0, 1]) < 4.0 / np.sqrt(reps)


def test_sample_max_matches_power_law():
    # U_{n,n} ~ u^n; with the uniform "model" layer removed via exponential
    # quantiles, X_{n,n} has cdf exp(-n e^{-x})
    n, reps = 50, 4000
    xs = draw_batch(SeedSpec(71, 0), reps, n, 1, EXP)[1][:, 0]
    d = ks_distance(xs, lambda x: np.exp(-n * np.exp(-np.asarray(x))))
    assert d <= 1.63 / np.sqrt(reps) * 1.5


def test_balkema_dehaan_stat_plugin():
    d = draw_top_k(SeedSpec(1, 0), 1000, 10, EXP)
    d.threshold_tail = 10 / 1000
    assert balkema_dehaan_stat(d) == pytest.approx(1.0)
    d.threshold_tail = 20 / 1000
    assert balkema_dehaan_stat(d) == pytest.approx(2.0)


def test_balkema_dehaan_concentrates():
    n, k, reps = 10**6, 100, 400
    tails, _, _ = draw_batch(SeedSpec(13, 0), reps, n, k + 1, EXP)
    vals = STATISTICS["BDH"].value(n, k, tails[:, k])
    assert abs(vals.mean() - 1.0) < 0.03
    assert abs(vals.std() * np.sqrt(k) - 1.0) < 0.2


def test_balkema_dehaan_experiment_cell():
    n, k, reps = 50000, 76, 2000
    tails, _, _ = draw_batch(SeedSpec(7, 0), reps, n, k + 1, EXP)
    vals = STATISTICS["BDH"].value(n, k, tails[:, k])
    assert 0.9 <= vals.mean() <= 1.1


def test_sample_max_gumbel_mean():
    # X_{n,n} - ln n for the unit exponential approaches a Gumbel law
    # whose mean is the Euler constant
    n, reps = 10**5, 2000
    xs = draw_batch(SeedSpec(7, 0), reps, n, 1, EXP)[1][:, 0]
    assert abs((xs - np.log(n)).mean() - np.euler_gamma) < 0.1


# -- cost ---------------------------------------------------------------


def test_cost_is_independent_of_n():
    k, reps = 50, 60

    def clock(n):
        best = np.inf
        for trial in range(5):
            t0 = time.perf_counter()
            for r in range(reps):
                draw_top_k(SeedSpec(3, r), n, k, EXP)
            best = min(best, time.perf_counter() - t0)
        return best

    small = clock(10**3)
    big = clock(10**9)
    assert big <= 2.0 * small, (small, big)


def test_draw_work_is_independent_of_n(monkeypatch):
    """The O(k) cost as counts, free of the host's timing noise: a draw
    asks for one row of k+1 uniforms and k+1 quantile elements at any n."""
    k = 50
    model = Exponential(1.0)
    rows, elements = [], []
    uniform_rows, tail_quantile = sampling._uniform_rows, model.tail_quantile

    def counted_rows(seed, count_rows, count):
        rows.append((count_rows, count))
        return uniform_rows(seed, count_rows, count)

    def counted_quantile(t):
        elements.append(np.size(t))
        return tail_quantile(t)

    monkeypatch.setattr(sampling, "_uniform_rows", counted_rows)
    monkeypatch.setattr(model, "tail_quantile", counted_quantile)
    for n in (10**3, 10**9, 10**18):
        rows.clear()
        elements.clear()
        draw = draw_top_k(SeedSpec(3, 0), n, k, model)
        assert (rows, elements) == ([(1, k + 1)], [k + 1]), n
        assert draw.top_x.size == k
