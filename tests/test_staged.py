"""An experiment runs stage by stage and equals its one-cell pieces.

``run_experiment`` resolves every cell's functionals in one request per
functional, draws the rows of all the models at each n in chunks that may
span models, and summarises every (cell, statistic) sample in one array
pass per sample length.  None of that may change a report byte: the
batched summaries must equal the one-sample ones field by field, and a
whole experiment must equal one assembled cell by cell from
``cell_functionals``, ``draw_batch`` and ``summarize_statistic``.  The
first failing cell, models first, still decides the error.
"""

import math
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum import (
    STATISTIC_IDS,
    ExperimentConfig,
    NumericError,
    ReplicateDraw,
    SeedSpec,
    balkema_dehaan_stat,
    cell_functionals,
    clt,
    draw_batch,
    gumbel_norming,
    models,
    parse_model,
    run_experiment,
    statistic_T1,
    statistic_T2,
    statistic_T3,
    summarize_statistic,
)
from extremesum.clt import (BOUNDS, STATISTICS, ExperimentResult, NormalityReport, StatSample,
                            _summaries)
from extremesum.gof import distances
from extremesum.reports import normality_report_csv, normality_report_json

# -- batched summaries ----------------------------------------------------


def _bits(x):
    return "nan" if isinstance(x, float) and math.isnan(x) else struct.pack("<d", x)


def _fields(summary):
    return [_bits(v) if isinstance(v, float) else v for v in vars(summary).values()]


def _tolerances(stat):
    """Valid bounds for ``stat``, each key present or not."""
    values = {
        "mean": st.tuples(st.floats(-3, 3), st.floats(0, 3)).map(lambda p: (p[0], p[0] + p[1])),
        "var": st.tuples(st.floats(0, 3), st.floats(0, 3)).map(lambda p: (p[0], p[0] + p[1])),
        "ks": st.floats(0, 1),
        "sd_factor": st.floats(1, 10),
    }
    keys = [key for key, bound in BOUNDS.items() if bound.applies(STATISTICS[stat])]
    return st.fixed_dictionaries({}, optional={key: values[key] for key in keys})


@st.composite
def _samples(draw):
    stat = draw(st.sampled_from(STATISTIC_IDS))
    size = draw(st.sampled_from([0, 1, 2, 7, 8, 9, 2001]))
    if size <= 9:
        values = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=size, max_size=size)), dtype=np.float64)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        loc, scale = draw(st.sampled_from([0.0, 1.0, -1e6])), draw(st.sampled_from([1e-3, 1.0]))
        values = loc + scale * np.random.default_rng(seed).standard_normal(size)
    tolerances = draw(st.none() | _tolerances(stat))
    return stat, values, draw(st.integers(0, 3)), tolerances, draw(st.integers(1, 5000))


def _equal_constant(size):
    return ("T2", np.full(size, 0.25), 0, None, 10)


def _near_1e300(stat):
    return (stat, 1e300 * (1.0 + np.arange(9) * 1e-3), 0, None, 10)


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(_samples(), min_size=1, max_size=8))
@example(batch=[_equal_constant(2), _equal_constant(9), _equal_constant(2001)])
@example(batch=[_near_1e300(stat) for stat in STATISTIC_IDS] + [_equal_constant(9)])
def test_batched_summaries_equal_one_sample_summaries(batch):
    batched = _summaries(batch)
    for (stat, values, failures, tolerances, k), summary in zip(batch, batched):
        alone = summarize_statistic(stat, values, failures, tolerances, k)
        assert _fields(summary) == _fields(alone)
        if values.size >= 2:
            with np.errstate(over="ignore", invalid="ignore"):
                assert _bits(summary.mean) == _bits(float(np.mean(values)))
                assert _bits(summary.variance) == _bits(float(np.var(values, ddof=1)))
        if values.size >= 2 and STATISTICS[stat].cdf is not None:
            assert [_bits(d) for d in distances(values, STATISTICS[stat].cdf)] == [
                _bits(summary.ks), _bits(summary.ad)]


# -- whole experiments ----------------------------------------------------


def _reference(config):
    """The experiment cell by cell from the public one-cell pieces, each
    replicate's statistics from its own ReplicateDraw."""
    result = ExperimentResult()
    seed, reps = config.master_seed, config.replicates
    for ordinal, (desc, n) in enumerate(product(config.models, config.n_values)):
        model = parse_model(desc)
        k = config.k_rule.resolve(n)
        base = ordinal * 2 * reps
        cf = cell_functionals(model, n, k)
        a_n, b_n = gumbel_norming(model, n)
        values = {stat: [] for stat in STATISTIC_IDS}
        for lo in range(0, reps, 4):
            rows = min(4, reps - lo)
            tails, xs, clamped = draw_batch(SeedSpec(seed, base + lo), rows, n, k + 1, model)
            for r in range(rows):
                draw = ReplicateDraw(n=n, k=k, top_tail=tails[r, :k],
                                     threshold_tail=float(tails[r, k]), top_x=xs[r, :k],
                                     threshold_x=float(xs[r, k]), clamped=bool(clamped[r]))
                values["T1"].append(statistic_T1(draw, model, cf))
                values["T2"].append(statistic_T2(draw, model, cf))
                values["T3"].append(statistic_T3(draw, model, cf))
                values["BDH"].append(balkema_dehaan_stat(draw))
            _, maxima, _ = draw_batch(SeedSpec(seed, base + reps + lo), rows, n, 1, model)
            values["MAX"] += [(float(x) - b_n) / a_n for x in maxima[:, 0]]
        arrays = {stat: np.array(values[stat]) for stat in config.statistics}
        assert all(np.isfinite(a).all() for a in arrays.values())
        result.reports.append(NormalityReport(
            model=model.describe(), n=n, k=k, replicates=reps,
            summaries=[summarize_statistic(stat, arrays[stat], 0, None, k)
                       for stat in config.statistics]))
        result.samples[(model.describe(), n)] = {
            stat: StatSample(values=arrays[stat], seed=SeedSpec(seed, base))
            for stat in config.statistics}
    return result


def test_staged_experiment_equals_cell_by_cell_reference(monkeypatch):
    # 64 order statistics a chunk: at n = 5000 (k = 31) every chunk holds two
    # rows, and with R = 9 some hold the last row of one model and the first
    # of the next; the 27 sample maxima of each n are one chunk over all three
    monkeypatch.setattr(clt, "_CHUNK_ORDER_STATS", 64)
    config = ExperimentConfig(models=("weibull(2)", "normal", "gamma(2)"),
                              n_values=(5000, 10**9), replicates=9, master_seed=23,
                              statistics=STATISTIC_IDS)
    staged, reference = run_experiment(config), _reference(config)
    assert normality_report_csv(staged) == normality_report_csv(reference)
    assert normality_report_json(staged, config) == normality_report_json(reference, config)
    assert staged.samples.keys() == reference.samples.keys()
    for key, cell in staged.samples.items():
        for stat, sample in cell.items():
            assert sample.values.tobytes() == reference.samples[key][stat].values.tobytes()
            assert sample.seed == reference.samples[key][stat].seed
    # the one-cell case of the staged draws, cell 3 (normal at n = 1e9)
    model, n = parse_model("normal"), 10**9
    arrays, cf = clt._run_cell(model, n, 3982, 9, 23, 3 * 18, STATISTIC_IDS)
    assert cf == cell_functionals(model, n, 3982)
    for stat in STATISTIC_IDS:
        assert arrays[stat].tobytes() == staged.samples[(model.describe(), n)][stat].values.tobytes()


def test_first_cell_with_failed_functionals_decides_the_error():
    config = ExperimentConfig(models=("exponential(1)", "pareto(0.5)"),
                              n_values=(5000, 50000), replicates=9, statistics=STATISTIC_IDS)
    with pytest.raises(NumericError) as info:
        run_experiment(config)
    assert str(info.value) == (
        "functionals failed for pareto(0.5) at n=5000: c(0.0062,1) diverges for pareto(0.5)")


def test_first_cell_over_the_failure_budget_decides_the_error(monkeypatch):
    # Gumbel's top values are inf at n = 50000 (k + 1 = 77 per row) and
    # Normal's at n = 5000 (32): models first, Gumbel's cell comes first
    def infinite_at(columns, tail_quantile):
        def patched(self, t):
            x = tail_quantile(self, t)
            return np.full_like(x, np.inf) if np.ndim(x) == 2 and x.shape[1] == columns else x
        return patched

    monkeypatch.setattr(models.Gumbel, "tail_quantile",
                        infinite_at(77, models.TailModel.tail_quantile))
    monkeypatch.setattr(models.Normal, "tail_quantile",
                        infinite_at(32, models.TailModel.tail_quantile))
    config = ExperimentConfig(models=("exponential(1)", "gumbel(0,1)", "normal"),
                              n_values=(5000, 50000), replicates=9, statistics=STATISTIC_IDS)
    with pytest.raises(NumericError, match=r"^9 of 9 replicates non-finite for T1 "
                                           r"\(gumbel\(0,1\), n=50000\)$"):
        run_experiment(config)
