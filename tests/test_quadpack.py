"""The QUADPACK port in ``quadrature`` against ``scipy.integrate.quad``.

scipy is the reference here and only here: the package never imports
``scipy.integrate``.  Each comparison asserts the same value bits, the
same error-bound bits, the same subinterval count and the same first
line of scipy's warning message, at the package's epsabs and on the
rule the port uses (QAGI on (0, inf), QAGS on a finite interval).
The port evaluates both halves of a bisection in one integrand call;
the last tests pin that call shape.  The package runs most quadratures
in lockstep batches; each of them is compared on its own.
"""

import json
import math
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from extremesum import (
    Normal,
    SGrid,
    Weibull,
    build_functional_table,
    catalog,
    cli,
    functionals,
    quadrature,
    rate_integral,
    run_limit_suite,
    tail_mean,
    tail_scale,
    tail_variance,
)
from extremesum.errors import QuadratureError


def _alone(rule, fn, a, b, epsrel, limit=quadrature._LIMIT):
    """One quadrature of a list integrand through the lockstep driver:
    ``fn`` maps a list of nodes (Python floats) to their values, so Python
    float arithmetic, and its ZeroDivisionError, reach it unchanged."""
    def listwise(rows, at, xs):
        return np.asarray(fn(xs[at].ravel().tolist()), dtype=float)

    return quadrature._lockstep(rule, listwise, [(a, b)], epsrel, limit)[0]


def _port(rule, fn, a, b, epsrel, limit):
    value, abserr, ier, last = _alone(rule, fn, a, b, epsrel, limit)
    message = quadrature._MESSAGES[ier].format(limit=limit) if ier else None
    return float(value).hex(), float(abserr).hex(), message, last


def _scipy(rule, fn, a, b, epsrel, limit):
    lo, hi = (0.0, math.inf) if rule is quadrature._qk15i else (a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = quad(lambda x: fn([x])[0], lo, hi, epsabs=quadrature._ABS_FLOOR,
                   epsrel=epsrel, limit=limit, full_output=1)
    message = out[3].splitlines()[0] if len(out) > 3 else None
    return float(out[0]).hex(), float(out[1]).hex(), message, out[2]["last"]


# -- every quadrature of the catalog limit suite and tables --------------


@pytest.fixture(scope="module")
def catalog_quadratures():
    """(what, rule, fn, a, b, rel_tol) of every quadrature that the limit
    suite and the functional tables run over the catalog, plus the routes
    neither of them takes there: the stieltjes cross-check, and the mean
    mass and rate integral by quadrature (the catalog has them closed).
    Every quadrature of a lockstep batch is recorded on its own: ``fn``
    maps a list of nodes to their values through the batch integrand, as
    that quadrature's row."""
    calls = []
    real = quadrature._run_quads

    def recording(rule, fn, bounds, rel_tol, whats):
        for i, ((lo, hi), what) in enumerate(zip(bounds, whats)):
            def alone(xs, i=i):
                return np.asarray(fn([i], np.zeros((1, 1), dtype=int),
                                     np.array([xs]))).ravel().tolist()

            calls.append((what, rule, alone, lo, hi, rel_tol))
        return real(rule, fn, bounds, rel_tol, whats)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(quadrature, "_run_quads", recording)
        warnings.simplefilter("ignore")
        grid = SGrid.geometric(0.1, 0.1, 8)
        for entry in catalog():
            model = entry.model
            run_limit_suite(model, betas=(1.0, 2.0))
            build_functional_table(model, grid, betas=(1.0, 2.0))
            for s in (0.1, 1e-4, 1e-8):
                forced = [lambda: tail_mean(model, s, method="quadrature")]
                if model.has_tail_rate:
                    forced.append(lambda: rate_integral(model, s, method="quadrature"))
                forced += [lambda b=b: tail_scale(model, s, b, method="stieltjes")
                           for b in (1.0, 2.0)]
                for route in forced:
                    try:
                        route()
                    except QuadratureError:
                        pass
    return calls


def _batches(run):
    """The labels of every ``_run_quads`` batch that run() makes, batch by
    batch."""
    batches = []
    real = quadrature._run_quads

    def recording(rule, fn, bounds, rel_tol, whats):
        batches.append(list(whats))
        return real(rule, fn, bounds, rel_tol, whats)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(quadrature, "_run_quads", recording)
        warnings.simplefilter("ignore")
        run()
    return batches


@pytest.mark.parametrize("command, most", [("lemmas", 14), ("functionals", 4)])
def test_catalog_commands_batch_across_models(tmp_path, capsys, command, most):
    """The CLI integrates the catalog in one request per functional step:
    few batches, and the quadratures of one call per model."""
    models = [entry.model for entry in catalog()]
    grid = SGrid.geometric(0.1, 0.1, 8)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"models": [m.describe() for m in models],
                                  "s_grid": {"start": 0.1, "ratio": 0.1, "count": 8}}))
    together = _batches(lambda: cli.main([command, "--config", str(config),
                                          "--output-dir", str(tmp_path)]))
    per_model = _batches(lambda: [
        run_limit_suite(m, betas=(1.0, 2.0)) if command == "lemmas"
        else build_functional_table(m, grid, betas=(1.0, 2.0)) for m in models])
    assert len(together) <= most < len(per_model)
    assert Counter(w for b in together for w in b) == Counter(w for b in per_model for w in b)


_GUMBEL_SWEEP = {"models": [entry.model.describe() for entry in catalog()][:6],
                 "n_values": [5000, 50000, 10**9], "replicates": 5,
                 "statistics": ["T1", "T2", "T3", "BDH", "MAX"]}
_CATALOG_GRID = {"models": [entry.model.describe() for entry in catalog()],
                 "s_grid": {"start": 0.1, "ratio": 0.1, "count": 8}}


@pytest.mark.parametrize("command, config, most", [
    ("lemmas", _CATALOG_GRID, 6), ("functionals", _CATALOG_GRID, 3),
    ("simulate", _GUMBEL_SWEEP, 1)])
def test_catalog_commands_integrate_each_ibp_key_once(tmp_path, capsys, command, config,
                                                      most):
    """A command asks for each functional step once: at most ``most``
    ``_run_quads`` batches, and no ibp scale quadrature, a (model, s, beta)
    key, integrated twice.  A key is told apart by its label, its exact s
    and its integrand's values at fixed nodes, which differ between
    models."""
    batches, ibp = [], []
    real_run, real_tail = quadrature._run_quads, functionals.tail_quads
    ws, ts = np.array([0.1, 1.0, 5.0]), np.array([0.3, 1e-3, 1e-9])

    def run(rule, fn, bounds, rel_tol, whats):
        batches.append(whats)
        return real_run(rule, fn, bounds, rel_tol, whats)

    def tail(fn, ss, betas, rel_tol, whats):
        for i, (s, what) in enumerate(zip(ss, whats)):
            if what.endswith(" ibp"):
                values = fn(np.full(ws.size, i), ts, np.exp(-betas[i] * ws)).tolist()
                ibp.append((what, s.hex(), rel_tol, tuple(v.hex() for v in values)))
        return real_tail(fn, ss, betas, rel_tol, whats)

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(quadrature, "_run_quads", run)
        mp.setattr(functionals, "tail_quads", tail)
        warnings.simplefilter("ignore")
        cli.main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert 0 < len(batches) <= most
    assert ibp and len(set(ibp)) == len(ibp)


def test_catalog_quadratures_cover_every_route(catalog_quadratures):
    labels = [what for what, *_ in catalog_quadratures]
    for route in ("ibp", "stieltjes", "mu(", "sigma2(", "rho(", "int c(u)/u"):
        assert any(route in what for what in labels), route
    assert len(labels) > 400


def test_catalog_quadratures_match_scipy(catalog_quadratures):
    mismatches = []
    for what, rule, fn, lo, hi, rel_tol in catalog_quadratures:
        args = (rule, fn, lo, hi, rel_tol, quadrature._LIMIT)
        port, ref = _port(*args), _scipy(*args)
        if port != ref:
            mismatches.append((what, port, ref))
    assert mismatches == []


# -- a synthetic battery that reaches every warning ----------------------


def _pole(x, at):
    return math.inf if x == at else 1.0 / (x - at)


_QAGI_BATTERY = {
    "exp": lambda w: math.exp(-w),
    "slow": lambda w: (1.0 + w) ** -1.01,
    "oscillating": lambda w: math.sin(w) * math.exp(-0.1 * w),
    "step": lambda w: (1.0 if w < math.pi else 0.5) * math.exp(-w),
    "divergent-linear": lambda w: w,
    "principal-value": lambda w: _pole(w, 2.0) * math.exp(-w),
    "abs-pole": lambda w: abs(_pole(w, 2.0)) * math.exp(-w),
    "near-1/w": lambda w: w ** -0.999 * math.exp(-w) if w else math.inf,
    "nan": lambda w: math.nan,
    "nan-patch": lambda w: math.nan if 0.5 < w < 0.6 else math.exp(-w),
    "square-wave": lambda w: (1.0 if math.sin(8.0 * w) > 0.0 else 0.5) * math.exp(-0.2 * w),
    "inf": lambda w: math.inf,
    "zero": lambda w: 0.0,
}
_QAGS_BATTERY = {
    "cubic": lambda x: x**3 - x,
    "sqrt-singular": lambda x: abs(x) ** -0.5 if x else math.inf,
    "log-singular": lambda x: math.log(abs(x)) if x else -math.inf,
    "oscillating": lambda x: math.sin(50.0 * x),
    "principal-value": lambda x: _pole(x, 0.3),
    "abs-pole": lambda x: abs(_pole(x, 0.3)),
    "near-1/x": lambda x: abs(x) ** -0.9999 if x else math.inf,
    "square-wave": lambda x: 1.0 if math.sin(80.0 * x) > 0.0 else 0.5,
    "nan": lambda x: math.nan,
    "inf": lambda x: math.inf,
    "zero": lambda x: 0.0,
}
_TOLERANCES = [(epsrel, limit) for epsrel in (1e-11, 1e-8, 1e-4)
               for limit in (1, 3, 10, 200)]


def _battery():
    for name, f in _QAGI_BATTERY.items():
        yield f"qagi-{name}", quadrature._qk15i, f, 0.0, 1.0
    for name, f in _QAGS_BATTERY.items():
        for a, b in ((0.0, 1.0), (-1.0, 0.5)):
            yield f"qags-{name}-({a:g},{b:g})", quadrature._qk21, f, a, b


def _batched(f):
    return lambda xs: [f(x) for x in xs]


@pytest.mark.parametrize("name,rule,f,a,b", list(_battery()),
                         ids=[case[0] for case in _battery()])
def test_battery_matches_scipy(name, rule, f, a, b):
    fn = _batched(f)
    for epsrel, limit in _TOLERANCES:
        args = (rule, fn, a, b, epsrel, limit)
        assert _port(*args) == _scipy(*args), (epsrel, limit)


def test_battery_reaches_every_warning():
    seen = {quadrature._qk15i: set(), quadrature._qk21: set()}
    for _, rule, f, a, b in _battery():
        for epsrel, limit in _TOLERANCES:
            seen[rule].add(_alone(rule, _batched(f), a, b, epsrel, limit)[2])
    assert seen[quadrature._qk15i] == {0, 1, 2, 3, 4, 5}
    assert seen[quadrature._qk21] >= {0, 1, 2, 3, 5}


def test_battery_fills_the_interval_list():
    """Both rules pass last > limit // 2 + 2, where QPSRT sorts only the
    lower part of the interval list, at a small and at the full limit."""
    for rule in (quadrature._qk15i, quadrature._qk21):
        for limit in (10, 200):
            lasts = [_alone(rule, _batched(f), a, b, epsrel, limit)[3]
                     for _, rul, f, a, b in _battery() if rul is rule
                     for epsrel, lim in _TOLERANCES if lim == limit]
            assert max(lasts) > limit // 2 + 2, (rule, limit)


# -- scipy.integrate stays off the import path ---------------------------


def test_default_import_leaves_scipy_integrate_out(subprocess_env):
    code = ("import sys, extremesum, extremesum.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- one integrand call per bisection step --------------------------------


def _batch_sizes(rule, f, a, b):
    sizes = []

    def fn(xs):
        sizes.append(len(xs))
        return [f(x) for x in xs]

    last = _alone(rule, fn, a, b, 1e-11)[3]
    return sizes, last


@pytest.mark.parametrize("rule,f,n", [
    (quadrature._qk15i, _QAGI_BATTERY["oscillating"], 15),
    (quadrature._qk21, _QAGS_BATTERY["oscillating"], 21),
], ids=["qagi", "qags"])
def test_one_integrand_call_per_bisection_step(rule, f, n):
    """The whole range once, then both halves of each bisection together."""
    sizes, last = _batch_sizes(rule, f, 0.0, 1.0)
    assert last > 5
    assert sizes == [n] + [2 * n] * (last - 1)


@pytest.mark.parametrize("rule,node", [
    (quadrature._qk15i, (1.0 - 0.75) / 0.75),
    (quadrature._qk21, 0.75),
], ids=["qagi", "qags"])
def test_error_on_a_second_half_node_propagates(rule, node):
    """1/(x - node) raises at the centre of (1/2, 1), the second half of the
    first bisection, and at no node of the first call."""
    sizes = []

    def fn(xs):
        sizes.append(len(xs))
        return [1.0 / (x - node) for x in xs]

    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        _alone(rule, fn, 0.0, 1.0, 1e-11)
    assert len(sizes) == 2


def test_one_model_call_per_integrand_call(monkeypatch):
    """Inside an integrand each model quantity is one array call."""
    counts = dict.fromkeys(("integrand", "tail_quantile", "tail_density",
                            "tail_rate"), 0)
    inside = []
    real_run = quadrature._run_quads

    def run(rule, fn, *args):
        def counted(*nodes):
            counts["integrand"] += 1
            inside.append(True)
            try:
                return fn(*nodes)
            finally:
                inside.pop()

        return real_run(rule, counted, *args)

    monkeypatch.setattr(quadrature, "_run_quads", run)

    def counting(model):
        for name in ("tail_quantile", "tail_density", "tail_rate"):
            def method(t, real=getattr(model, name), name=name):
                if inside:
                    counts[name] += 1
                return real(t)

            monkeypatch.setattr(model, name, method)
        return model

    def model_calls(route):
        """(tail_quantile, tail_density, tail_rate) calls per integrand call."""
        for key in counts:
            counts[key] = 0
        route()
        n = counts["integrand"]
        assert n > 2
        return tuple(counts[key] / n for key in
                     ("tail_quantile", "tail_density", "tail_rate"))

    normal = counting(Normal())
    weibull = counting(Weibull(2.0))
    assert model_calls(lambda: tail_scale(normal, 1e-4, 2.0, method="ibp")) == (1, 0, 0)
    assert model_calls(lambda: tail_variance(normal, 1e-4)) == (1, 1, 0)
    assert model_calls(lambda: tail_scale(weibull, 1e-4, 2.0,
                                          method="stieltjes")) == (0, 1, 0)
    assert model_calls(lambda: rate_integral(weibull, 1e-4,
                                             method="quadrature")) == (0, 0, 1)
