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

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum import (
    Exponential,
    Gamma,
    LogNormal,
    Normal,
    Pareto,
    QuadratureError,
    SGrid,
    UnsupportedModelError,
    build_functional_table,
    catalog,
    clt,
    functionals,
    limits,
    quadrature,
    representation_residual,
    run_limit_suite,
    scale_beta_ratio,
    sequence_slowvar_ratio,
    spacing_log_ratio,
    tail_scale,
    tail_variance,
    variance_scale_ratio,
)
from extremesum.reports import functional_table_csv, limit_reports_csv

_MODELS = [entry.model for entry in catalog()]

masses = st.one_of(st.sampled_from([0.3, 0.1, 1e-2, 3e-3, 1e-4, 1e-6, 1e-8]),
                   st.floats(1e-9, 0.6))
# a few masses, some of them repeated
mass_lists = st.tuples(st.lists(masses, min_size=1, max_size=4),
                       st.integers(0, 3)).map(lambda p: p[0] + p[0][:p[1]])


def _outcome(fn, *args, **kwargs):
    """(value bits, error bits) of one call, or the message of the
    QuadratureError it raises."""
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
    """Run each call with tail_quads recorded; returns (fn, s, rel_tol, what,
    beta) of every quadrature the calls ran."""
    quads = []
    real = functionals.tail_quads

    def recording(fn, ss, betas, rel_tol, whats):
        for i, (s, beta, what) in enumerate(zip(ss, betas, whats)):
            quads.append((lambda rows, ts, ews, fn=fn, i=i:
                          fn(np.full(len(rows), i), ts, ews), s, rel_tol, what, beta))
        return real(fn, ss, betas, rel_tol, whats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "tail_quads", recording)
        for call in calls:
            try:
                call()
            except QuadratureError:
                pass
    return quads


def _mixed(quads):
    """One integrand for a batch of recorded quadratures: row k is quads[k]."""
    def fn(rows, ts, ews):
        out = np.empty(ts.size)
        for k in np.unique(rows).tolist():
            at = rows == k
            out[at] = quads[k][0](rows[at], ts[at], ews[at])
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
    # c(s, 1), c(s, 2) and sigma2(s) at one (model, s): their nodes share
    # intervals, and e^{-w} serves t and beta = 1
    lambda: tail_scale(LogNormal(), 1e-3),
    lambda: tail_scale(LogNormal(), 1e-3, 2.0),
    lambda: tail_variance(LogNormal(), 1e-3),
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
        def counted(rows, *nodes):
            calls.append(len(rows))
            return (yield from fn(rows, *nodes))

        out = yield from real(rule, counted, bounds, *args)
        lasts.append(max(last for *_, last in out))
        return out

    def run(quads):
        return _bits(quadrature.tail_quads(_mixed(quads), [q[1] for q in quads],
                                           [q[4] for q in quads], quads[0][2],
                                           [q[3] for q in quads]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_lockstep", counting)
        together = run(batch)
    assert len(calls) == lasts[0]
    assert calls[0] == len(batch)
    assert together == [run([q])[0] for q in batch]


def test_recorded_batch_holds_a_failure():
    outs = _bits(quadrature.tail_quads(_mixed(_QUADS), [q[1] for q in _QUADS],
                                       [q[4] for q in _QUADS], _QUADS[0][2],
                                       [q[3] for q in _QUADS]))
    assert outs[0].startswith("c(0.1,0.5) ibp: quadrature did not converge")
    assert sum(isinstance(o, tuple) for o in outs) >= 5


def test_node_table_evaluates_each_distinct_node_once(monkeypatch):
    """Each round takes libm exp once per node of every distinct (interval,
    beta) pair: beta = 1 for every interval, since t = s e^{-w} needs it,
    and each other beta for the intervals of its quadratures.  The pairs
    are counted from the intervals the rule is handed, quadrature by
    quadrature."""
    elements, triples, shared = [], set(), []
    batch = {}
    real_exp, real_rule, real_tail = quadrature.exp_each, quadrature._qk15i, \
        functionals.tail_quads

    def exp_each(x):
        elements.append(np.size(x))
        return real_exp(x)

    def rule(fn, rows, at, a, b):
        assert len(set(zip(a.tolist(), b.tolist()))) == a.size   # one row per interval
        batch["round"] += 1
        for j, i in enumerate(rows):
            for k in at[j].tolist():
                interval = (batch["id"], batch["round"], a[k], b[k])
                triples.update({(*interval, 1.0), (*interval, batch["betas"][i])})
        shared.append(a.size < at.size)
        return real_rule(fn, rows, at, a, b)

    def tail_quads(fn, ss, betas, *args):
        batch.update(id=len(shared), round=0, betas=list(betas))
        return real_tail(fn, ss, betas, *args)

    assert not hasattr(functionals, "exp_each")   # integrands read the table
    monkeypatch.setattr(quadrature, "exp_each", exp_each)
    monkeypatch.setattr(quadrature, "_qk15i", rule)
    monkeypatch.setattr(functionals, "tail_quads", tail_quads)
    for beta in (1.0, 2.0):
        tail_scale(LogNormal(), _GRID.points, beta)
    scale_beta_ratio(LogNormal(), _GRID.points, 2.0)
    build_functional_table([Normal(), LogNormal()], _GRID, betas=(0.5, 2.0))
    assert any(shared) and len(triples) > len(shared)
    assert sum(elements) == 15 * len(triples)


# -- one request across models ---------------------------------------------


_BATCH_MODELS = [entry.model for entry in catalog()] + [Normal(), Pareto(0.5)]
_GRID = SGrid.geometric(0.1, 0.1, 8)


def _alone_and_together(run):
    """run(models) once per model and once over all of them; returns both
    results model by model."""
    alone = [run([model]) for model in _BATCH_MODELS]
    return alone, run(_BATCH_MODELS)


def _suite(models):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_limit_suite(models, betas=(1.0, 2.0))


def _row(report):
    """The report's line of limit_checks.csv: its floats at %.17g, so two
    rows are equal exactly when their values are, NaN included."""
    return limit_reports_csv([report]).splitlines()[1]


@pytest.fixture(scope="module")
def suites():
    alone, together = _alone_and_together(_suite)
    return [report for reports in alone for report in reports], together


def test_limit_suite_over_all_models_equals_one_call_per_model(suites):
    alone, together = suites
    assert [(_row(r), r.note) for r in together] == \
        [(_row(r), r.note) for r in alone]
    # the first model's scalar call is the single-model signature
    assert [_row(r) for r in run_limit_suite(_BATCH_MODELS[0], betas=(1.0, 2.0))] == \
        [_row(r) for r in alone if r.model == "exponential(1)"]


def _residual_by_definition(model, s=1e-4, anchor=0.25):
    """The anchored residual from one QAGS of tail_scale(u)/u, evaluated
    in the order of its formula."""
    integral, _ = quadrature.log_interval_quad(lambda us: tail_scale(model, us) / us,
                                               s, anchor, rel_tol=1e-10)
    lhs = model.tail_quantile(s) - model.tail_quantile(anchor)
    return abs(lhs - (-tail_scale(model, s) + tail_scale(model, anchor) + integral))


def _outcome_of(call):
    try:
        return call().hex()
    except QuadratureError as exc:
        return str(exc)


def test_residual_equals_its_definition(suites):
    _, together = suites
    rows = [r for r in together if r.check_id == "representation_residual"]
    for model, row in zip(_BATCH_MODELS, rows):
        expected = _outcome_of(lambda: _residual_by_definition(model))
        assert _outcome_of(lambda: representation_residual(model, 1e-4)) == expected
        assert (row.values[0].hex() if row.values else row.note) in (
            expected, f"evaluation failed: {expected}")


def _scalar_points(model, report):
    """One scalar evaluation per point of a suite row, in the order the
    row's grid evaluation reads them."""
    params = dict(report.params)
    grid = limits._default_grid
    return {
        "scale_slow_variation": lambda: [
            lambda p=p: tail_scale(model, p, params["beta"]) for s in grid(1e-6).points
            for p in (s, params["lam"] * s)],
        "representation_residual": lambda: [
            lambda: _residual_by_definition(model)],
        "spacing_log_limit": lambda: [
            lambda s=s: spacing_log_ratio(model, s, 2.0) for s in grid(1e-8).points],
        "scale_beta_limit": lambda: [
            lambda s=s: scale_beta_ratio(model, s, params["beta"]) for s in grid(1e-6).points],
        "variance_scale_limit": lambda: [
            lambda s=s: variance_scale_ratio(model, s) for s in grid(1e-4, count=3).points],
        "sequence_slowvar_limit": lambda: [
            lambda s=s: sequence_slowvar_ratio(lambda u: tail_scale(model, u), 1.0,
                                               lambda m: m**-0.5, 1.0 / s)
            for s in (1e-2, 1e-4, 1e-6)],
        "rate_scale_limit": lambda: [
            lambda s=s: model.tail_rate(s) / tail_scale(model, s) for s in grid(1e-6).points],
    }[report.check_id]()


def test_failed_rows_carry_the_error_of_their_first_failing_point(suites):
    _, together = suites
    failed = [r for r in together if r.note.startswith("evaluation failed: ")]
    assert {r.model for r in failed} == {"pareto(2)", "pareto(0.5)"}
    assert len([r for r in failed if r.model == "pareto(0.5)"]) == 12
    models = {model.describe(): model for model in _BATCH_MODELS}
    for report in failed:
        for point in _scalar_points(models[report.model], report):
            try:
                point()
            except (QuadratureError, UnsupportedModelError, ValueError) as exc:
                assert report.note == f"evaluation failed: {exc}"
                break
        else:
            pytest.fail(f"no point of {report} fails on its own")


def _csv(table):
    return functional_table_csv(table), table.notes


def test_tables_over_all_models_equal_one_call_per_model():
    alone, together = _alone_and_together(
        lambda models: build_functional_table(models, _GRID, betas=(1.0, 2.0)))
    assert [_csv(t) for t in together] == [_csv(t) for [t] in alone]
    notes = {t.model.describe(): t.notes for t in together}
    assert len(notes["pareto(2)"]) == 8 and len(notes["pareto(0.5)"]) == 40
    assert notes["uniform()"] == []
    single = build_functional_table(_BATCH_MODELS[0], _GRID, betas=(1.0, 2.0))
    assert _csv(single) == _csv(together[0])


class _Raising(Normal):
    """A model whose tail quantile raises inside the quadrature's nodes."""

    name = "raising"

    def tail_quantile(self, t):
        if np.ndim(t) and np.min(t) < 1e-9:
            raise ValueError("no quantile that far out")
        return super().tail_quantile(t)


def test_model_error_fails_only_that_models_rows():
    models = [Normal(), _Raising(), Gamma(2.0)]
    together = _suite(models)
    alone = [r for model in models for r in _suite([model])]
    assert [(_row(r), r.note) for r in together] == \
        [(_row(r), r.note) for r in alone]
    raised = [r for r in together if "no quantile that far out" in r.note]
    assert raised and all(r.model == "raising()" for r in raised)
    assert len(raised) < len(together) // 3


def test_model_error_flags_only_that_models_entries():
    models = [Normal(), _Raising(), Gamma(2.0)]
    together = build_functional_table(models, _GRID, betas=(1.0, 2.0))
    assert [_csv(t) for t in together] == \
        [_csv(build_functional_table(m, _GRID, betas=(1.0, 2.0))) for m in models]
    normal, raising, gamma = (t.notes for t in together)
    assert normal == gamma == []
    assert raising and all(note.endswith("no quantile that far out") for note in raising)


class _Broken(Normal):
    """A model whose tail quantile has a fault inside the quadrature's
    nodes: not an error a model is expected to raise."""

    name = "broken"

    def tail_quantile(self, t):
        if np.ndim(t) and np.min(t) < 1e-9:
            raise TypeError("a fault, not a model error")
        return super().tail_quantile(t)


def test_a_fault_in_a_model_call_propagates():
    with pytest.raises(TypeError, match="a fault, not a model error"):
        build_functional_table([Normal(), _Broken()], _GRID, betas=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TypeError, match="a fault, not a model error"):
            run_limit_suite([Normal(), _Broken()], checks=("spacing_log_limit",))


def test_rate_check_requests_points_only_for_rated_models(monkeypatch):
    asked = []

    def scale(keys, beta):
        asked.extend(keys)
        return functionals._scale(keys, beta)

    monkeypatch.setattr(limits, "_scale", scale)
    rated, unrated = Exponential(), Normal()
    reports = run_limit_suite([unrated, rated], checks=("rate_scale_limit",))
    assert [r.model for r in reports] == [rated.describe()]
    assert asked and {model for model, _ in asked} == {rated}


# -- outcomes do not depend on the batch -----------------------------------


class _Floor(Normal):
    """A normal whose tail quantile or tail density raises on an array
    that holds a t below ``floor``: deep enough, only later rounds of a
    quadrature reach it."""

    def __init__(self, quantity, floor):
        super().__init__()
        self.quantity, self.floor = quantity, floor
        self.name, self.params = f"{quantity}-floor", (floor,)

    def _guard(self, quantity, t):
        if quantity == self.quantity and np.min(t) < self.floor:
            raise ValueError(f"no {quantity} below t={self.floor:g}")

    def tail_quantile(self, t):
        self._guard("quantile", t)
        return super().tail_quantile(t)

    def tail_density(self, t):
        self._guard("density", t)
        return super().tail_density(t)


_KEY_MODELS = [Normal(), Gamma(2.0), Pareto(2.0), _Floor("quantile", 1e-3),
               _Floor("quantile", 1e-150), _Floor("density", 1e-60),
               _Floor("density", 1e-250)]
request_keys = st.lists(st.tuples(st.sampled_from(_KEY_MODELS), masses), min_size=1,
                        max_size=6)


def _key_bits(out):
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    return out[0].hex(), out[1].hex()


@settings(max_examples=20, deadline=None)
@given(keys=request_keys, beta=st.sampled_from([0.5, 1.0, 2.0]))
def test_outcome_of_a_key_does_not_depend_on_its_request(keys, beta):
    """Each key of a request gets the value bits, or the error, of a
    request for that key alone, whichever models and keys share it."""
    requests = (lambda ks: functionals._run(functionals._scale(ks, beta))[0],
                lambda ks: functionals._run(functionals._variance(ks))[0])
    for request in requests:
        assert [_key_bits(out) for out in request(keys)] == \
            [_key_bits(request([key])[0]) for key in keys]
    # both requests resolved as one step, in one lockstep batch
    together = functionals._run(functionals._scale(keys, beta), functionals._variance(keys))
    assert [_key_bits(out) for outs in together for out in outs] == \
        [_key_bits(request([key])[0]) for request in requests for key in keys]


def test_cell_functionals_raise_the_model_error():
    # c(k/n) integrates below t = 1e-9, where _Raising's quantile raises
    with pytest.raises(ValueError, match="no quantile that far out"):
        clt.cell_functionals(_Raising(), 10**9, 20)


class _ThresholdFloor(Exponential):
    """An exponential, closed forms and all, whose tail quantile raises on
    an array that holds a t below 1e-3."""

    name = "threshold-floor"

    def tail_quantile(self, t):
        if np.min(t) < 1e-3:
            raise ValueError("no threshold below t=0.001")
        return super().tail_quantile(t)


def test_a_cell_whose_threshold_raises_fails_alone():
    model = _ThresholdFloor()
    # Q(1-k/n) fails at k/n = 5e-4, the maximum's Q(1-1/n) at 1/n = 2e-4
    cells = [(Normal(), 1000, 20), (model, 10000, 5), (model, 100, 20), (model, 5000, 20)]
    together = clt._functionals(cells, clt.CELL_FUNCTIONALS)
    assert [repr(out) for out in together] == \
        [repr(clt._functionals([cell], clt.CELL_FUNCTIONALS)[0]) for cell in cells]
    assert [isinstance(out, ValueError) for out in together] == [False, True, False, True]


def test_a_cell_requests_only_the_functionals_it_reads():
    # T1 reads c and mu at k/n; MAX reads Q(1-1/n), which raises at n = 5000
    cells = [(Normal(), 1000, 20), (_ThresholdFloor(), 5000, 20)]
    for (cf, norming), (model, n, k) in zip(clt._functionals(cells, clt.STATISTICS["T1"].reads),
                                            cells):
        full = clt.cell_functionals(model, n, k)
        assert (cf.scale, cf.mean_mass) == (full.scale, full.mean_mass)
        assert np.isnan([cf.rate_mass, cf.threshold_q, *norming]).all()
    maxima = clt._functionals(cells, clt.STATISTICS["MAX"].reads)
    assert [isinstance(out, ValueError) for out in maxima] == [False, True]


def test_experiment_names_the_cell_whose_threshold_raises(monkeypatch):
    from extremesum.config import ExperimentConfig
    from extremesum.errors import NumericError

    monkeypatch.setattr(ExperimentConfig, "model_objects",
                        lambda self: [Exponential(), _ThresholdFloor()])
    # k/n = 0.004 holds, the maximum's 1/n = 1e-4 does not
    config = ExperimentConfig(models=("exponential(1)", "exponential(2)"), n_values=(10000,),
                              replicates=10, statistics=("T1", "MAX"))
    with pytest.raises(NumericError, match="functionals failed for threshold-floor.* at "
                       "n=10000: no threshold below t=0.001"):
        clt.run_experiment(config)
