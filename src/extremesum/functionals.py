"""Tail functionals of a quantile function.

For a model with quantile Q and tail mass s in (0, 1) the package works
with four quantities:

    c(s, beta) = s^{-beta} int_{1-s}^{1} (1-u)^beta dQ(u)      (tail scale)
    sigma2(s)  = int int_{(1-s,1]^2} (min(u,v) - uv) dQ dQ     (variance driver)
    mu(s)      = int_{1-s}^{1} Q(u) du                         (mean mass)
    rho(s)     = int_0^s r(u) du                               (rate integral)

c(s) is shorthand for c(s, 1).  Each functional prefers an exact closed
form when the model provides one and otherwise falls back to adaptive
quadrature in logarithmic tail coordinates.  Two independent quadrature
routes exist for the scale functional and are kept separate on purpose:

* ``method="ibp"`` uses the integrated-by-parts representation, written
  in the cancellation-free form
  c = beta s^{-beta} int_0^s t^{beta-1} (Q(1-t) - Q(1-s)) dt,
  which touches only the quantile function;
* ``method="stieltjes"`` integrates t^beta against the tail density of
  dQ directly and serves as the cross-check route.

The variance driver is evaluated through the exact reduction

    sigma2(s) = 2 int_0^s y q(y) (Q(1-y) - Q(1-s)) dy - rho(s)^2,

obtained from the symmetric double integral by two integrations by
parts; q is the density of dQ in the tail coordinate and rho(s) equals
mu(s) - s Q(1-s) for any differentiable model.

``tail_scale``, ``tail_mean``, ``rate_integral`` and ``tail_variance``
take a tail mass or an array of them; an array gives arrays of its shape
(a scalar gives a float), each value and error bound the bits of the
scalar call for that s, and raises the error the scalar call for its
first failing s raises.  Inside, a request asks one functional at a list
of (model, s) keys that may span models, and maps them to per-key
outcomes, (value, error) or an error.  A request is a generator over its
steps: it resolves closed forms key by key, yields the tail quadratures
it still needs as data, (model, s, kind, beta), and finishes its
outcomes from theirs (the beta scaling of the ibp route, sigma2 = 2 J2 -
rho^2, the divergence check); ``_KINDS`` holds the five kinds (c by ibp
or stieltjes, mu, rho, J2).  ``_run`` drives any number of requests
together, so one step of a command is one lockstep batch (see
``quadrature``), which integrates each distinct quadrature once:
``build_functional_table`` resolves all its columns at once, and the
limit suite (see ``limits``) runs its checks, themselves requests, at
once.  The representation residual's outer QAGS is a request too: each
of its rounds asks for c(u) at its nodes, so a round is a step of the
request that holds it, and no batch runs inside another.  Nothing is
kept between batches.

A key's outcome does not depend on the batch around it, nor on the
requests that share the batch.  Quadrature arithmetic is elementwise,
and so is every model quantity: where a model call (a closed form,
Q(1-s), or an array call inside an integrand) raises a ValueError, an
ArithmeticError or a model or quadrature error of this package, the call
is retried quadrature by quadrature: each quadrature whose own call
raises gets that error as its outcome and its later nodes read NaN, and
the rest of the batch runs on.  Any other error propagates.

A batch takes Q(1-s) in one array call per model, and each round makes
one array call per model quantity (``tail_quantile``, ``tail_density``,
``tail_rate``) for each kind and model present, on the nodes of every
unfinished quadrature; the values equal the scalar ones bit for bit.  The
weights e^{-beta w} come from the round's node table in
``quadrature.tail_quads``, libm's exp once per distinct interval and
beta: np.exp differs from math.exp in the last bit on some doubles.

``build_functional_table`` gives a FunctionalTable: columns, error
bounds, notes and, for a model outside the Gumbel domain, a warning.
``reports`` lays it out as a CSV file.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnsupportedModelError
from .models import GUMBEL_DOMAIN, TailModel
from .quadrature import DEFAULT_REL_TOL, log_interval_quads, tail_quads

# The errors a model, a quadrature or a limit ratio is expected to raise:
# a request gives them to their key, and the limit suite fails rows on them.
_FAILURES = (QuadratureError, UnsupportedModelError, ValueError, ArithmeticError)

# The residual's outer integrand c(u)/u is itself a quadrature at
# DEFAULT_REL_TOL unless closed, so its outer QAGS asks one digit less.
_RESIDUAL_REL_TOL = 1e-10

# A config's s_grid.count reaches SGrid.geometric unchecked: bound it
# before any point is built, or a billion points exhaust memory.
_MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class SGrid:
    """A strictly decreasing geometric grid of tail masses in (0, 1/2].

    ``geometry`` remembers the (start, ratio, count) a geometric grid was
    built from, so configs serialize back to exactly the numbers they
    were parsed from; hand-built grids leave it unset.
    """

    points: tuple
    geometry: tuple = field(default=None, compare=False)

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("grid must contain at least one point")
        if any(not 0.0 < p <= 0.5 for p in pts):
            raise ValueError("grid points must lie in (0, 1/2]")
        if any(b >= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly decreasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def geometric(cls, start: float, ratio: float, count: int) -> "SGrid":
        if not 0.0 < ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if count < 1:
            raise ValueError("count must be at least 1")
        if count > _MAX_GRID_POINTS:
            raise ValueError(f"count must be at most {_MAX_GRID_POINTS}")
        return cls(
            tuple(start * ratio**i for i in range(count)),
            geometry=(float(start), float(ratio), int(count)),
        )

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _check_s(s):
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError("tail mass s must lie strictly inside (0, 1)")
    return s


def _masses(s):
    """s as a list of checked tail masses, and its shape (None for a scalar)."""
    arr = np.asarray(s, dtype=float)
    return [_check_s(x) for x in arr.ravel().tolist()], (arr.shape if arr.ndim else None)


def _shaped(vals, shape):
    """A list of floats as the caller's shape: a float for a scalar."""
    return vals[0] if shape is None else np.array(vals).reshape(shape)


def _values(*columns):
    """The values of per-s outcome lists, read s by s in argument order;
    raises the first error met that way, the one a scalar call per s would
    raise."""
    for row in zip(*columns):
        for out in row:
            if isinstance(out, Exception):
                raise out
    return [[val for val, _ in col] for col in columns]


def _settle(request, shape, with_error):
    """A functional's return value from the per-s outcomes of its request."""
    [outs] = _run(request)
    vals = _shaped(_values(outs)[0], shape)
    return (vals, _shaped([err for _, err in outs], shape)) if with_error else vals


def _per_group(groups, failed):
    """A function ``each(rows, compute)``: the values at the entries
    ``rows`` of a batch whose entry i belongs to ``groups[i]``, a tuple of
    a model or of a kind and a model (a dict key, like the (model, s)
    keys), from one ``compute(*group, i, at)`` call per group present;
    ``i`` are that group's entries and ``at`` their mask in ``rows``.
    A call that raises one of ``_FAILURES`` is retried entry by entry: an
    entry whose own call raises is mapped to that error in the dict
    ``failed`` and from then on reads NaN without a call.  Each model
    quantity is elementwise, so a retried call gives the same bits."""
    index = {}
    owner = np.array([index.setdefault(group, len(index)) for group in groups], dtype=int)
    members = list(index)

    def each(rows, compute):
        vals = np.full(rows.size, math.nan)
        who = owner[rows]
        if failed:   # no call for a failed entry
            who = np.where(np.isin(rows, list(failed)), len(members), who)
        for j in np.flatnonzero(np.bincount(who)[:len(members)]).tolist():
            at = who == j
            try:
                vals[at] = compute(*members[j], rows[at], at)
            except _FAILURES:
                for i in np.unique(rows[at]).tolist():
                    one = at & (rows == i)
                    try:
                        vals[one] = compute(*members[j], rows[one], one)
                    except _FAILURES as exc:
                        failed[i] = exc
        return vals

    return each


def _at_s(keys, failed):
    """Q(1-s) of every key, one array call per model; a key whose own call
    raises is mapped to that error in ``failed``."""
    ss = np.array([s for _, s in keys])
    return _per_group([(model,) for model, _ in keys], failed)(
        np.arange(ss.size), lambda model, i, at: model.tail_quantile(ss[i]))


# -- requests -------------------------------------------------------------
#
# A request is a generator: it yields the tail quadratures of a step,
# (model, s, kind, beta) each, is sent their outcomes and returns one
# outcome per key.  ``_run`` runs a step of every request as one batch.


def _densities(model, ts):
    """q(t) at one round's nodes; only the overflow warning is silenced."""
    with np.errstate(over="ignore"):
        return model.tail_density(ts)


def _ibp(model, rows, ts, ews, qs):
    with np.errstate(invalid="ignore"):   # inf - inf, as Python floats
        return ews * (model.tail_quantile(ts) - qs[rows])


def _stieltjes(model, rows, ts, ews, qs):
    # q(t) can exceed double range once t is astronomically small
    # (heavy-tailed controls); the e^{-beta w} factor has crushed the
    # true integrand long before that point, so such a node gives 0.
    d = _densities(model, ts)
    vals = np.zeros(d.size)
    ok = np.isfinite(d)
    vals[ok] = ews[ok] * ts[ok] * d[ok]
    return vals


def _mu(model, rows, ts, ews, qs):
    return ts * model.tail_quantile(ts)


def _rho(model, rows, us, ews, qs):
    with np.errstate(over="ignore"):   # a tiny shape: r is inf
        return us * model.tail_rate(us)


def _j2(model, rows, ys, ews, qs):
    # an inf density is the honest divergence signal (heavy tails)
    d, q = _densities(model, ys), model.tail_quantile(ys)
    with np.errstate(over="ignore", invalid="ignore"):   # as Python floats
        return ys * (ys * d) * (q - qs[rows])


# Each kind's integrand g(model, rows, ts, ews, qs), which gets t and
# e^{-beta w} at the nodes ``rows`` of the batch, its label and whether its q is Q(1-s).
_Kind = namedtuple("_Kind", "integrand label at_s")
_KINDS = {
    "ibp": _Kind(_ibp, "c({s:g},{beta:g}) ibp", True),
    "stieltjes": _Kind(_stieltjes, "c({s:g},{beta:g}) stieltjes", False),
    "mu": _Kind(_mu, "mu({s:g})", False),
    "rho": _Kind(_rho, "rho({s:g})", False),
    "sigma2": _Kind(_j2, "sigma2({s:g})", True),   # J2, see _variance_quad
}


def _integrate(quads):
    """Outcomes of the tail quadratures ``quads``, each distinct one run
    once in one lockstep batch; one whose Q(1-s) or own model call raises
    gets that error.  Each round calls each (kind, model) integrand once."""
    once = list(dict.fromkeys(quads))
    reads = [quad for quad in once if _KINDS[quad[2]].at_s]
    failed = {}
    q_of = dict(zip(reads, _at_s([quad[:2] for quad in reads], failed).tolist()))
    outs = {reads[i]: exc for i, exc in failed.items()}
    live = [quad for quad in once if quad not in outs]
    if live:
        models, ss, kinds, betas = zip(*live)
        qs = np.array([q_of.get(quad, math.nan) for quad in live])
        failed = {}
        each = _per_group(list(zip(kinds, models)), failed)
        got = tail_quads(
            lambda rows, ts, ews: each(rows, lambda kind, model, i, at: _KINDS[
                kind].integrand(model, i, ts[at], ews[at], qs)),
            ss, betas, DEFAULT_REL_TOL,
            [_KINDS[kind].label.format(s=s, beta=beta) for _, s, kind, beta in live])
        outs.update((quad, failed.get(j, out)) for j, (quad, out) in enumerate(zip(live, got)))
    return [outs[quad] for quad in quads]


def _tail_quads(keys, kind, beta=1.0):
    """The request for the ``kind`` tail quadratures of ``keys``."""
    return (yield [(model, s, kind, beta) for model, s in keys])


def _together(requests):
    """One request from several: each step yields the quadratures of the
    step of every unfinished request; returns their outcomes."""
    outs = [None] * len(requests)
    asks = {}
    for i, request in enumerate(requests):
        try:
            asks[i] = next(request)
        except StopIteration as done:
            outs[i] = done.value
    while asks:
        got = yield [quad for quads in asks.values() for quad in quads]
        sent, asks, start = asks, {}, 0
        for i, quads in sent.items():
            try:
                asks[i] = requests[i].send(got[start:start + len(quads)])
            except StopIteration as done:
                outs[i] = done.value
            start += len(quads)
    return outs


def _run(*requests):
    """The outcomes of each request; each step integrates the quadratures
    of every request in one lockstep batch."""
    steps = _together(requests)
    try:
        quads = next(steps)
        while True:
            quads = steps.send(_integrate(quads) if quads else [])
    except StopIteration as done:
        return done.value


def _scale_ibp(keys, beta):
    outs = yield from _tail_quads(keys, "ibp", beta)
    return [out if isinstance(out, Exception) else (beta * out[0], beta * out[1])
            for out in outs]


def _resolve(keys, what, method, closed, **routes):
    """The request for ``keys``, (model, s) pairs that may span models:
    the closed form where the model has one, else quadrature.

    ``method="auto"`` takes ``closed(model, s)`` unless it returns None,
    and the first of ``routes`` for the other keys; any other method must
    name a route and forces it.  A route maps a list of keys to their
    request.  An outcome is (value, error bound) or the error of that
    key's own evaluation: a QuadratureError, or one of ``_FAILURES`` its
    closed form or model call raised.  A value that is not finite, closed
    or not, becomes "<what(s)> diverges for <model>".
    """
    if method != "auto" and method not in routes:
        raise ValueError(f"unknown method {method!r}")
    outs = [None] * len(keys)
    if method == "auto":
        for i, (model, s) in enumerate(keys):
            try:
                val = closed(model, s)
                outs[i] = None if val is None else (float(val), 0.0)
            except _FAILURES as exc:
                outs[i] = exc
    rest = [i for i, out in enumerate(outs) if out is None]
    if rest:
        route = routes[next(iter(routes)) if method == "auto" else method]
        for i, out in zip(rest, (yield from route([keys[i] for i in rest]))):
            outs[i] = out
    for i, out in enumerate(outs):
        if not isinstance(out, Exception) and not math.isfinite(out[0]):
            model, s = keys[i]
            outs[i] = QuadratureError(f"{what(s)} diverges for {model.describe()}",
                                      estimate=out[0], error_bound=out[1])
    return outs


def _scale(keys, beta, method="auto"):
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError("beta must be strictly positive")
    return _resolve(keys, lambda s: f"c({s:g},{beta:g})", method,
                    lambda model, s: model.closed_scale(s, beta),
                    ibp=lambda keys: _scale_ibp(keys, beta),
                    stieltjes=lambda keys: _tail_quads(keys, "stieltjes", beta))


def tail_scale(model: TailModel, s, beta: float = 1.0, method: str = "auto",
               with_error: bool = False):
    """Tail scale c(s, beta); c(s) is the beta = 1 case.

    ``s`` is a tail mass or an array of them; an array gives arrays of its
    shape and integrates its quadratures together.  ``method`` selects the
    evaluation route: "auto" prefers a closed form and falls back to
    "ibp"; "ibp" and "stieltjes" force the two quadrature routes described
    in the module docstring.
    """
    ss, shape = _masses(s)
    return _settle(_scale(_keys(model, ss), beta, method), shape, with_error)


def _keys(model, ss):
    return [(model, s) for s in ss]


def _mean(keys, method="auto"):
    return _resolve(keys, lambda s: f"mu({s:g})", method,
                    lambda model, s: model.closed_mean_mass(s),
                    quadrature=lambda keys: _tail_quads(keys, "mu"))


def tail_mean(model: TailModel, s, method: str = "auto", with_error: bool = False):
    """Mean mass mu(s) = int_{1-s}^1 Q(u) du of the top s fraction."""
    ss, shape = _masses(s)
    return _settle(_mean(_keys(model, ss), method), shape, with_error)


def _rate(keys, extended=False, method="auto"):
    rated = [key for key in keys if key[0].has_tail_rate]
    unrated = [key for key in keys if not key[0].has_tail_rate]
    if unrated and not extended:
        raise UnsupportedModelError(
            f"{unrated[0][0].describe()} has no analytic tail rate; "
            "pass extended=True for the mean-mass identity"
        )
    what = lambda s: f"rho({s:g})"
    rates, extended_rates = yield from _together([
        _resolve(rated, what, method, lambda model, s: model.closed_rate_integral(s),
                 quadrature=lambda keys: _tail_quads(keys, "rho")),
        _resolve(unrated, what, method, _rate_from_scale,
                 quadrature=lambda keys: _rate_from_mean(keys, method))])
    outs = dict(zip(rated + unrated, rates + extended_rates))
    return [outs[key] for key in keys]


def _rate_from_scale(model, s):
    # rho(s) = s c(s), exact where c(s, 1) is closed
    c = model.closed_scale(s, 1.0)
    return None if c is None else s * c


def _rate_from_mean(keys, method):
    """The request for rho(s) = mu(s) - s Q(1-s), with ``method`` passed
    on to the mean mass."""
    mus = yield from _mean(keys, method)
    failed = {}
    qs = _at_s(keys, failed).tolist()
    return [mu if isinstance(mu, Exception) else failed.get(i, (mu[0] - s * q, mu[1]))
            for i, ((_, s), q, mu) in enumerate(zip(keys, qs, mus))]


def rate_integral(model: TailModel, s, extended: bool = False,
                  method: str = "auto", with_error: bool = False):
    """Rate integral rho(s) = int_0^s r(u) du.

    Models without an analytic slowly varying rate raise unless
    ``extended`` is set.  Then ``method="auto"`` takes the exact
    rho(s) = s c(s) where the model's c(s) is closed, and otherwise the
    identity rho(s) = mu(s) - s Q(1-s) supplies the value, with
    ``method`` passed on to the mean mass.
    """
    ss, shape = _masses(s)
    return _settle(_rate(_keys(model, ss), extended, method), shape, with_error)


def _variance_quad(keys):
    # rho and J2 share a step; a key whose rho fails keeps that error
    outs, j2s = yield from _together([
        _rate(keys, extended=True),
        _tail_quads(keys, "sigma2")])
    for i, (rho, j2) in enumerate(zip(outs, j2s)):
        if not isinstance(rho, Exception):
            outs[i] = j2 if isinstance(j2, Exception) else (
                2.0 * j2[0] - rho[0] * rho[0], 2.0 * j2[1] + 2.0 * abs(rho[0]) * rho[1])
    return outs


def _variance(keys, method="auto"):
    return _resolve(keys, lambda s: f"sigma2({s:g})", method,
                    lambda model, s: model.closed_variance(s),
                    quadrature=_variance_quad)


def tail_variance(model: TailModel, s, method: str = "auto", with_error: bool = False):
    """Variance driver sigma2(s) of the extreme-sum limit theorem."""
    ss, shape = _masses(s)
    return _settle(_variance(_keys(model, ss), method), shape, with_error)


# -- limit ratios -------------------------------------------------------
#
# Each ratio takes a tail mass or an array of them.  An array integrates
# each functional once for all its s and raises the error that the first
# failing scalar call would raise.  The limit suite computes the same
# ratios from outcomes it requested across models.


def _ratios(nums, dens):
    # Python division, as for scalars: a zero denominator raises
    return [a / b for a, b in zip(nums, dens)]


def _spacings(model, ss, x, cs):
    """(Q(1-xs) - Q(1-s)) / c(s) from the outcomes ``cs`` of c(s)."""
    xs = np.array([x * s for s in ss])
    with np.errstate(invalid="ignore"):   # inf - inf, as Python floats
        nums = (model.tail_quantile(xs) - model.tail_quantile(np.array(ss))).tolist()
    return _ratios(nums, *_values(cs))


def spacing_log_ratio(model: TailModel, s, x: float):
    """(Q(1-xs) - Q(1-s)) / c(s); tends to -ln x in the Gumbel domain."""
    ss, shape = _masses(s)
    x = float(x)
    if not x > 0.0:
        raise ValueError("x must be strictly positive")
    for s in ss:
        _check_s(x * s)
    return _shaped(_spacings(model, ss, x, *_run(_scale(_keys(model, ss), 1.0))), shape)


def scale_beta_ratio(model: TailModel, s, beta: float):
    """c(s, beta) / c(s); tends to 1/beta in the Gumbel domain."""
    ss, shape = _masses(s)
    keys = _keys(model, ss)
    return _shaped(_ratios(*_values(*_run(_scale(keys, beta), _scale(keys, 1.0)))), shape)


def _variance_ratios(ss, cs, sigmas):
    """sigma2(s) / (2 s c(s)^2) from the outcomes of c(s) and sigma2(s)."""
    cs, sig = _values(cs, sigmas)
    return _ratios(sig, [2.0 * s * c * c for s, c in zip(ss, cs)])


def variance_scale_ratio(model: TailModel, s):
    """sigma2(s) / (2 s c(s)^2); tends to 1 in the Gumbel domain."""
    ss, shape = _masses(s)
    keys = _keys(model, ss)
    return _shaped(_variance_ratios(ss, *_run(_scale(keys, 1.0), _variance(keys))), shape)


def _residual_integrals(keys, anchor):
    """The request for int_s^anchor c(u)/u du at ``keys``, (model, s)
    pairs that may span models: one lockstep QAGS, each of whose rounds
    asks for c(u) at every key's nodes at once, so a round whose c(u)
    needs quadratures is a step of this request.  A key whose c(u) fails
    gets the first error of its round, in node order, and its later nodes
    read NaN, which ends its QAGS within ten rounds (each NaN round adds
    one to iroff1 + iroff2, and ten of them set ier)."""
    failed = {}

    def c_over_u(rows, us):
        rows, nodes = rows.tolist(), us.tolist()
        todo = [j for j, i in enumerate(rows) if i not in failed]
        vals = np.full(us.size, math.nan)
        cs = yield from _scale([(keys[rows[j]][0], nodes[j]) for j in todo], 1.0)
        for j, out in zip(todo, cs):
            if isinstance(out, Exception):
                failed.setdefault(rows[j], out)
            else:
                vals[j] = out[0]
        return vals / us

    outs = yield from log_interval_quads(
        c_over_u, [(s, anchor) for _, s in keys], _RESIDUAL_REL_TOL,
        [f"int c(u)/u over ({s:g},{anchor:g})" for _, s in keys])
    return [failed.get(i, out) for i, out in enumerate(outs)]


def _residual(model, s, anchor, integral, c_s, c_anchor):
    """The anchored representation residual from the outcomes of its
    integral, c(s) and c(anchor); raises the first error in that order."""
    [integral], [c_s], [c_anchor] = _values([integral], [c_s], [c_anchor])
    lhs = model.tail_quantile(s) - model.tail_quantile(anchor)
    return abs(lhs - (-c_s + c_anchor + integral))


def representation_residual(model: TailModel, s, anchor: float = 0.25) -> float:
    """Defect of the exact scale representation of the tail quantile.

    The representation Q(1-s) = b - c(s) + int_s^1 u^{-1} c(u) du holds
    with a single constant b; fitting b at ``anchor`` and subtracting
    leaves the anchored residual

        | Q(1-s) - Q(1-anchor) + c(s) - c(anchor) - int_s^anchor c(u)/u du |

    which is pure quadrature noise for any differentiable model.
    """
    s = _check_s(s)
    anchor = _check_s(anchor)
    if not s < anchor:
        raise ValueError("need s < anchor")
    [integral], cs = _run(_residual_integrals([(model, s)], anchor),
                          _scale([(model, s), (model, anchor)], 1.0))
    return _residual(model, s, anchor, integral, *cs)


def sequence_slowvar_ratio(slowvar, beta: float, a_of_n, n) -> float:
    """n^{-beta} L(1/n) / (a_n^beta L(a_n)) for a slowly varying L.

    ``slowvar`` maps a tail mass to L; ``a_of_n`` maps n to the sequence
    a_n with a_n -> 0 and n a_n -> infinity.  The ratio tends to zero,
    which is what makes n^{-beta}-sized remainders negligible against
    a_n-sized tail blocks.
    """
    n = float(n)
    a_n = float(a_of_n(n))
    if not 0.0 < a_n < 1.0:
        raise ValueError("a_n must fall in (0, 1)")
    return n ** (-beta) * slowvar(1.0 / n) / (a_n**beta * slowvar(a_n))


# -- tabulation ---------------------------------------------------------


@dataclass
class FunctionalTable:
    """Functionals evaluated on a grid, with per-entry error estimates;
    ``reports.functional_table_csv`` writes one as a file."""

    model: TailModel
    grid: SGrid
    columns: dict          # name -> list of floats (nan where flagged)
    errors: dict           # name -> list of error bounds (inf where flagged)
    notes: list            # human-readable flags for failed entries

    @property
    def column_order(self):
        return ["s", *self.columns, "err_max"]

    def err_max(self, i: int) -> float:
        return max((self.errors[name][i] for name in self.errors), default=0.0)

    @property
    def warning(self) -> str:
        """Why the table's model is off target, or "" for a Gumbel-domain model."""
        if self.model.domain_label == GUMBEL_DOMAIN:
            return ""
        return (f"{self.model.describe()} has domain label {self.model.domain_label}; "
                "tail functionals target Gumbel-domain models")


def build_functional_table(model, grid: SGrid, betas=()):
    """Evaluate c, c(., beta), sigma2, mu (and rho when analytic) on a grid.

    ``model`` is a TailModel, which gives its FunctionalTable, or a
    sequence of them, which gives a list with one table per model; each
    column is then one request across every model, and all columns are
    resolved together: a beta = 1 column shares the c column's
    quadratures.  Entries whose evaluation
    fails or diverges are flagged with NaN and an infinite error bound;
    the build itself never aborts.
    """
    models = [model] if isinstance(model, TailModel) else list(model)
    betas = tuple(sorted(float(b) for b in betas))
    ss = list(grid.points)
    keys = [(m, s) for m in models for s in ss]
    rated = [i for i, (m, _) in enumerate(keys) if m.has_tail_rate]
    *scales, sigma2, mu, rho = _run(*(_scale(keys, b) for b in (1.0, *betas)),
                                    _variance(keys), _mean(keys), _rate([keys[i] for i in rated]))
    columns = dict(zip(["c", *(f"c_beta_{format(b, 'g')}" for b in betas)], scales))
    columns.update(sigma2=sigma2, mu=mu, rho=dict(zip(rated, rho)))
    tables = []
    for k, m in enumerate(models):
        names = [name for name in columns if name != "rho" or m.has_tail_rate]
        values = {name: [] for name in names}
        errors = {name: [] for name in names}
        notes: list = []
        # entries are flagged one by one, s by s
        for i, s in enumerate(ss, start=k * len(ss)):
            for name in names:
                out = columns[name][i]
                if isinstance(out, Exception):
                    notes.append(f"{name} at s={format(s, 'g')}: {out}")
                    out = (math.nan, math.inf)
                values[name].append(out[0])
                errors[name].append(out[1])
        tables.append(FunctionalTable(model=m, grid=grid, columns=values, errors=errors,
                                      notes=notes))
    return tables[0] if isinstance(model, TailModel) else tables
