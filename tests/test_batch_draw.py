"""The batch draw is the per-stream draw, row by row.

A batch either re-keys one Philox per row or, for many rows of at most
one Philox block, computes that block for every row in numpy; neither
builds a generator per stream.  Row r must carry exactly the uniforms of
``SeedSpec(seed, stream0 + r).generator()`` and, from them, exactly the
tail masses, model values and clamp flag of the single draw of that
stream, including where stream ids wrap past 2^64.  An experiment's
reports must not depend on how its cells are cut into row chunks, which
also decides which of the two paths draws them.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum import (
    STATISTIC_IDS,
    ExperimentConfig,
    SeedSpec,
    catalog,
    clt,
    draw_batch,
    draw_sample_max,
    draw_top_k,
    run_experiment,
)
from extremesum import sampling
from extremesum.reports import normality_report_csv, normality_report_json
from extremesum.sampling import _BLOCK_KERNEL_MIN_ROWS, _uniform_rows

_MAX64 = 2**64 - 1
_TINY = 2.0**-53

seeds = st.one_of(st.sampled_from([0, _MAX64]), st.integers(0, _MAX64))
# stream0 near 2^64 makes the later rows wrap around to small ids
stream0s = st.one_of(st.integers(_MAX64 - 8, _MAX64), st.integers(0, _MAX64))
sizes = st.sampled_from([2, 50, 5 * 10**4, 10**9, 10**18])
models = st.sampled_from([entry.model for entry in catalog()])


def _reference_draw(seed, stream, n, count, model):
    """One stream drawn alone: its own generator and 1-d arithmetic."""
    v = SeedSpec(seed, stream).generator().random(count)
    denom = np.arange(n, n - count, -1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        tails = -np.expm1(np.cumsum(np.log(v) / denom))
    clamped = bool(np.any(tails < _TINY) or np.any(tails > 1.0 - _TINY))
    tails = np.clip(tails, _TINY, 1.0 - _TINY)
    return tails, model.tail_quantile(tails), clamped


@settings(max_examples=60, deadline=None)
@given(seed=seeds, stream0=stream0s, rows=st.integers(1, 12),
       count=st.integers(1, 100))
@example(seed=_MAX64, stream0=_MAX64 - 4, rows=9, count=77)
@example(seed=0, stream0=0, rows=1, count=1)
def test_rekeyed_uniforms_equal_stream_generators(seed, stream0, rows, count):
    v = _uniform_rows(SeedSpec(seed, stream0), rows, count)
    assert v.shape == (rows, count)
    for r in range(rows):
        ref = SeedSpec(seed, stream0 + r).generator().random(count)
        assert np.array_equal(v[r], ref)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, stream0=stream0s, count=st.integers(1, 6),
       rows=st.sampled_from([_BLOCK_KERNEL_MIN_ROWS - 1, _BLOCK_KERNEL_MIN_ROWS,
                             _BLOCK_KERNEL_MIN_ROWS + 37]))
@example(seed=_MAX64, stream0=_MAX64 - 60, count=4, rows=_BLOCK_KERNEL_MIN_ROWS)
@example(seed=_MAX64, stream0=_MAX64, count=1, rows=_BLOCK_KERNEL_MIN_ROWS - 1)
@example(seed=3, stream0=0, count=5, rows=_BLOCK_KERNEL_MIN_ROWS)
def test_block_kernel_uniforms_equal_stream_generators(seed, stream0, count, rows):
    # Rows of at most 4 uniforms come from the numpy Philox block from
    # _BLOCK_KERNEL_MIN_ROWS rows on; fewer or wider rows are re-keyed.
    v = _uniform_rows(SeedSpec(seed, stream0), rows, count)
    assert v.shape == (rows, count)
    assert v.flags.c_contiguous
    for r in range(rows):
        ref = SeedSpec(seed, stream0 + r).generator().random(count)
        assert np.array_equal(v[r], ref), r


@settings(max_examples=60, deadline=None)
@given(model=models, seed=seeds, stream0=stream0s, n=sizes,
       k=st.integers(1, 80), rows=st.integers(1, 8))
@example(model=catalog()[0].model, seed=_MAX64, stream0=_MAX64 - 4,
         n=10**18, k=3, rows=8)
def test_batch_rows_equal_single_draws(model, seed, stream0, n, k, rows):
    k = min(k, n - 1)
    tails, xs, clamped = draw_batch(SeedSpec(seed, stream0), rows, n, k + 1, model)
    assert tails.shape == xs.shape == (rows, k + 1)
    assert clamped.shape == (rows,)
    for r in range(rows):
        ref_tails, ref_xs, ref_clamped = _reference_draw(seed, stream0 + r, n, k + 1, model)
        assert np.array_equal(tails[r], ref_tails)
        assert np.array_equal(xs[r], ref_xs)
        assert clamped[r] == ref_clamped

        d = draw_top_k(SeedSpec(seed, stream0 + r), n, k, model)
        assert np.array_equal(d.top_tail, tails[r, :k])
        assert np.array_equal(d.top_x, xs[r, :k])
        assert d.threshold_tail == tails[r, k]
        assert d.threshold_x == xs[r, k]
        assert d.clamped == clamped[r]


@settings(max_examples=30, deadline=None)
@given(model=models, seed=seeds, stream0=stream0s, n=sizes,
       rows=st.integers(1, 12))
def test_batch_maxima_equal_sample_max(model, seed, stream0, n, rows):
    _, xs, _ = draw_batch(SeedSpec(seed, stream0), rows, n, 1, model)
    for r in range(rows):
        assert xs[r, 0] == draw_sample_max(SeedSpec(seed, stream0 + r), n, model)
        assert xs[r, 0] == _reference_draw(seed, stream0 + r, n, 1, model)[1][0]


def _experiment_digest(config):
    result = run_experiment(config)
    h = hashlib.sha256(normality_report_csv(result).encode())
    h.update(normality_report_json(result, config).encode())
    for cell in result.samples.values():
        for stat in sorted(cell):
            h.update(cell[stat].values.tobytes())
    return h.hexdigest()


# R = 500 at k = 76 spans three default chunks, the last one partial; the
# Gumbel sweep has cells at k = 31 and k = 3982.
_CONFIGS = {
    "desk": dict(models=("exponential(1)",), n_values=(50000,), replicates=500),
    "gumbel_sweep": dict(models=("gumbel(0,1)", "normal", "lognormal"),
                         n_values=(5000, 10**9), replicates=9),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_reports_do_not_depend_on_row_chunks(monkeypatch, name):
    config = ExperimentConfig(master_seed=7, statistics=STATISTIC_IDS, **_CONFIGS[name])
    kernel_rows = []
    block = sampling._philox_first_block
    monkeypatch.setattr(sampling, "_philox_first_block",
                        lambda seed, rows: kernel_rows.append(rows) or block(seed, rows))
    default = _experiment_digest(config)
    # The desk's 500 sample maxima come from the block kernel by default.
    assert (sum(kernel_rows) == 500) == (name == "desk")
    # 1: one row per chunk everywhere; 7: the sample maxima in 7-row chunks
    # (both re-keyed); 7 * 77: the desk's top-k rows in 7-row chunks
    for chunk in (1, 7, 7 * 77):
        kernel_rows.clear()
        monkeypatch.setattr(clt, "_CHUNK_ORDER_STATS", chunk)
        assert _experiment_digest(config) == default, chunk
        assert (sum(kernel_rows) == 500) == (name == "desk" and chunk == 7 * 77), chunk


def test_batch_rejects_impossible_row_lengths():
    model = catalog()[0].model
    for count in (0, 11):
        with pytest.raises(ValueError):
            draw_batch(SeedSpec(1), 3, 10, count, model)
