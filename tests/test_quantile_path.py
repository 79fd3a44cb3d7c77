"""One quantile path: array calls agree bit for bit with scalar calls.

``quantile`` and ``tail_quantile`` split their argument at 1/2 and send
each side to the accurate branch; ``draw_top_k`` evaluates all its tail
masses in one array call.  Both must give exactly the numbers the
per-element scalar calls give, on both sides of 1/2 and at the clamp
values 2^-53 and 1 - 2^-53 that sampling can produce.  An argument
wholly in (0, 1/2], a scalar included, goes to the near branch unmasked
as one 1-d array; it must match the scalar calls, and no result may
alias its input.  The tail density and rate, which quadrature evaluates
one array per batch of nodes, must match their scalar calls as well.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum import AffineModel, SeedSpec, Weibull, catalog, draw_top_k

_TINY = 2.0**-53
_EDGES = [_TINY, 0.5, float(np.nextafter(0.5, 1.0)), float(np.nextafter(0.5, 0.0)),
          1.0 - _TINY]

_BASES = [entry.model for entry in catalog()]

models = st.one_of(
    st.sampled_from(_BASES),
    st.builds(AffineModel, st.sampled_from(_BASES),
              st.floats(0.01, 100.0), st.floats(-100.0, 100.0)),
)

probabilities = st.lists(st.floats(_TINY, 1.0 - _TINY), max_size=20).flatmap(lambda xs: st.permutations(xs + _EDGES)).map(np.array)


@settings(max_examples=60, deadline=None)
@given(model=models, p=probabilities)
def test_array_call_equals_scalar_calls(model, p):
    assert np.array_equal(model.tail_quantile(p),
                          [model.tail_quantile(float(t)) for t in p])
    assert np.array_equal(model.quantile(p),
                          [model.quantile(float(u)) for u in p])


def _one_sided(lo, hi, **kw):
    return st.lists(st.floats(lo, hi, **kw), min_size=1, max_size=20).map(np.array)


@settings(max_examples=60, deadline=None)
@given(model=models, p=st.one_of(_one_sided(_TINY, 0.5),
                                 _one_sided(0.5, 1.0 - _TINY, exclude_min=True)))
# a 0-d p would take Weibull(2)'s x ** 0.5 as pow, not sqrt: one ulp off
@example(model=Weibull(2.0), p=np.array([0.028300802425061087]))
def test_one_sided_array_equals_scalar_calls(model, p):
    """Arrays wholly on one side of 1/2: on (0, 1/2] both methods call
    their near branch on all of p, on (1/2, 1) both take the masked path."""
    kept = p.copy()
    for method in (model.tail_quantile, model.quantile):
        out = method(p)
        assert np.array_equal(out, [method(float(x)) for x in p])
        out[...] = 7.0     # the result never aliases the input
        assert np.array_equal(p, kept)


_DENSITY_GRID = np.geomspace(1e-300, 0.5, 20_000)


@pytest.mark.parametrize("model", _BASES + [AffineModel(Weibull(2.0))],
                         ids=lambda m: m.describe())
def test_density_and_rate_arrays_equal_scalar_calls(model):
    """Quadrature evaluates q and r once per batch of nodes, so an array
    call must give each point exactly what a scalar call gives; Weibull's
    power is C pow on both paths."""
    methods = [model.tail_density] + ([model.tail_rate] if model.has_tail_rate else [])
    with np.errstate(over="ignore"):
        for method in methods:
            assert np.array_equal(method(_DENSITY_GRID),
                                  [method(float(t)) for t in _DENSITY_GRID])


def test_weibull_power_overflow_gives_inf():
    model = Weibull(0.005)   # (-ln t)^199 overflows for t below about e^-35
    for method in (model.tail_density, model.tail_rate):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert method(1e-300) == math.inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = method(np.array([1e-300, 0.1]))
        assert out[0] == math.inf and math.isfinite(out[1])


@settings(max_examples=30, deadline=None)
@given(model=models, seed=st.integers(0, 2**64 - 1),
       n=st.integers(2, 10**9), k=st.integers(1, 200))
def test_draw_top_k_equals_scalar_tail_quantiles(model, seed, n, k):
    k = min(k, n - 1)
    draw = draw_top_k(SeedSpec(seed), n, k, model)
    assert np.array_equal(draw.top_x,
                          [model.tail_quantile(float(t)) for t in draw.top_tail])
    assert draw.threshold_x == model.tail_quantile(draw.threshold_tail)
