"""Lockstep quadrature: an array of tail masses integrates together and
gives exactly what one scalar call per mass gives.

``tail_scale`` and ``tail_variance`` on an array run their quadratures in
one lockstep batch, one integrand call per bisection round.  Every value
and error bound must equal the scalar call's bits, duplicates included,
and an array that holds a failing mass raises the scalar call's error
for the first of them.  Each quadrature's numbers must not depend on the
batch around it: its order in the batch, or which other quadratures,
failing ones included, share its rounds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum import (
    LogNormal,
    Normal,
    Pareto,
    QuadratureError,
    catalog,
    functionals,
    quadrature,
    tail_scale,
    tail_variance,
)

_MODELS = [entry.model for entry in catalog()]

masses = st.one_of(st.sampled_from([0.3, 0.1, 1e-2, 3e-3, 1e-4, 1e-6, 1e-8]),
                   st.floats(1e-9, 0.6))
# a few masses, some of them repeated
mass_lists = st.tuples(st.lists(masses, min_size=1, max_size=4),
                       st.integers(0, 3)).map(lambda p: p[0] + p[0][:p[1]])


def _outcome(fn, *args, **kwargs):
    """(value bits, error bits) of one call on an empty ibp cache, or the
    message of the QuadratureError it raises."""
    functionals._IBP_CACHE.clear()
    try:
        val, err = fn(*args, with_error=True, **kwargs)
    except QuadratureError as exc:
        return str(exc)
    if np.ndim(val):
        return [(v.hex(), e.hex()) for v, e in zip(val.tolist(), err.tolist())]
    return val.hex(), err.hex()


def _check_array_call(fn, model, ss, *args, **kwargs):
    scalars = [_outcome(fn, model, s, *args, **kwargs) for s in ss]
    failed = [out for out in scalars if isinstance(out, str)]
    array = _outcome(fn, model, np.array(ss), *args, **kwargs)
    assert array == (failed[0] if failed else scalars)


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(_MODELS), ss=mass_lists,
       beta=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       method=st.sampled_from(["auto", "ibp", "stieltjes"]))
@example(model=Pareto(2.0), ss=[0.1, 1e-4, 0.1], beta=0.5, method="ibp")
def test_scale_array_equals_scalar_calls(model, ss, beta, method):
    _check_array_call(tail_scale, model, ss, beta, method=method)


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(_MODELS), ss=mass_lists)
def test_variance_array_equals_scalar_calls(model, ss):
    _check_array_call(tail_variance, model, ss)


def test_array_call_keeps_its_shape():
    ss = np.array([[0.1, 1e-3], [1e-5, 0.1]])
    vals, errs = tail_scale(Normal(), ss, with_error=True)
    assert vals.shape == errs.shape == (2, 2)
    assert vals[0, 0] == vals[1, 1] == tail_scale(Normal(), 0.1)
    assert isinstance(tail_scale(Normal(), 0.1), float)


# -- one batch, many quadratures ------------------------------------------


def _recorded(calls):
    """Run each call with tail_quads recorded; returns (fn, s, rel_tol, what)
    of every quadrature the calls ran."""
    quads = []
    real = functionals.tail_quads

    def recording(fn, ss, rel_tol, whats):
        for i, (s, what) in enumerate(zip(ss, whats)):
            quads.append((lambda rows, ws, ts, fn=fn, i=i:
                          fn(np.full(len(rows), i), ws, ts), s, rel_tol, what))
        return real(fn, ss, rel_tol, whats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "tail_quads", recording)
        for call in calls:
            functionals._IBP_CACHE.clear()
            try:
                call()
            except QuadratureError:
                pass
    return quads


def _mixed(quads):
    """One integrand for a batch of recorded quadratures: row k is quads[k]."""
    def fn(rows, ws, ts):
        out = np.empty(ws.size)
        for k in np.unique(rows).tolist():
            at = rows == k
            out[at] = quads[k][0](rows[at], ws[at], ts[at])
        return out

    return fn


def _bits(outs):
    return [str(o) if isinstance(o, QuadratureError) else (o[0].hex(), o[1].hex())
            for o in outs]


_QUADS = _recorded([
    lambda: tail_scale(Pareto(2.0), 0.1, 0.5, method="ibp"),   # does not converge
    lambda: tail_scale(Normal(), np.array([0.1, 1e-6]), 2.0),
    lambda: tail_scale(LogNormal(), 1e-4, method="stieltjes"),
    lambda: tail_variance(LogNormal(), np.array([1e-2, 1e-7])),
    lambda: tail_variance(Pareto(2.0), 1e-3),                 # diverges
])


@settings(max_examples=15, deadline=None)
@given(order=st.permutations(range(len(_QUADS))), size=st.integers(1, len(_QUADS)))
def test_quadrature_does_not_depend_on_its_batch(order, size):
    """Any sub-batch, in any order, gives each quadrature its lone bits;
    a batch makes max(last) integrand calls."""
    batch = [_QUADS[k] for k in order[:size]]
    calls, lasts = [], []
    real = quadrature._lockstep

    def counting(rule, fn, bounds, *args):
        def counted(rows, xs):
            calls.append(len(rows))
            return fn(rows, xs)

        out = real(rule, counted, bounds, *args)
        lasts.append(max(last for *_, last in out))
        return out

    def run(quads):
        return _bits(quadrature.tail_quads(_mixed(quads), [q[1] for q in quads],
                                           quads[0][2], [q[3] for q in quads]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_lockstep", counting)
        together = run(batch)
    assert len(calls) == lasts[0]
    assert calls[0] == len(batch)
    assert together == [run([q])[0] for q in batch]


def test_recorded_batch_holds_a_failure():
    outs = _bits(quadrature.tail_quads(_mixed(_QUADS), [q[1] for q in _QUADS],
                                       _QUADS[0][2], [q[3] for q in _QUADS]))
    assert outs[0].startswith("c(0.1,0.5) ibp: quadrature did not converge")
    assert sum(isinstance(o, tuple) for o in outs) >= 5
