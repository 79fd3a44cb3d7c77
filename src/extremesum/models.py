"""Distribution catalog presented through quantile functions.

Every model exposes the quantile Q and the tail-side quantities the
functional layer needs: the tail quantile Q(1-t) evaluated stably for
tiny t, and the density q(t) of the Stieltjes measure dQ expressed in
the tail coordinate t = 1-u.  Nothing here needs the CDF F, so no model
carries one.

Models in the representation subclass of the Gumbel domain additionally
expose the slowly varying rate r(u) with

    Q(1-s) = a + int_s^1 u^{-1} r(u) du,      r(u) = u * Q'(1-u).

Only models whose r has an elementary closed form carry the flag; the
remaining Gumbel-domain members (normal, lognormal, gamma) are served by
the extended identity rho(s) = mu(s) - s Q(1-s) further up the stack.

Every tail quantity (``quantile``, ``tail_quantile``, ``tail_density``,
``tail_rate``) has one entry on ``TailModel``: it checks that its
argument lies strictly inside (0, 1), NaN included, runs the subclass
formula on the argument flattened to 1-d, and returns the input's
shape, a float for a scalar.  So an array call gives each element
exactly the scalar call's value, and quadrature can batch its nodes.
Weibull's density and rate keep C pow on each element for the power
(-ln t)^(1/k - 1), the arithmetic a scalar has always taken.

A model declares only the closed forms it has (``closed_scale``,
``closed_mean_mass``, ``closed_variance``, ``closed_rate_integral``; None
where it has none).  It never restates one through another: the
functional layer fills a gap by the exact identities rho(s) = s c(s) and
rho(s) = mu(s) - s Q(1-s) before it falls back to quadrature.

The families built on ``scipy.special`` (Gumbel, Weibull, Normal,
LogNormal, Gamma) import it when constructed, so a config naming one
pays for the import while it is validated, and a command on the other
models never loads scipy.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

import numpy as np

from .cephes import ndtr
from .errors import UnsupportedModelError

GUMBEL_DOMAIN = "Gumbel"
FRECHET_DOMAIN = "Frechet"
WEIBULL_DOMAIN = "Weibull-domain"
UNKNOWN_DOMAIN = "unknown"

_EULER_GAMMA = 0.5772156649015328606

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


special = None  # scipy.special, once a model that calls it is built


def _load_special():
    """Bind scipy.special here; called by the constructors that need it."""
    global special
    from scipy import special


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2 - _HALF_LOG_2PI)


def _check_prob(s, name="s"):
    arr = np.asarray(s, dtype=float)
    # min and max propagate NaN, and every comparison with NaN is False,
    # so NaN fails too; an empty array has nothing to check
    if arr.size and not (np.minimum.reduce(arr, axis=None) > 0.0
                         and np.maximum.reduce(arr, axis=None) < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return arr


def _on_flat(fn, p):
    """fn on p flattened to 1-d, as p's shape; a 0-d p gives a float."""
    out = fn(p.ravel()).reshape(p.shape)
    return out if out.ndim else float(out)


def _split_at_half(p, near, far):
    """near(p) where p <= 1/2 and far(1 - p) elsewhere, as p's shape.

    Each branch sees a 1-d array, possibly empty, of arguments in
    (0, 1/2] only, where it is accurate.  When every p <= 1/2 (a scalar tail mass, say) near gets
    all of p, flattened, and no masks are built.  Never a 0-d array:
    numpy unwraps it to a scalar, whose arithmetic can differ from the
    array's in the last bit (x ** 0.5 is pow there, sqrt on an array).
    A 0-d p comes back as a float.
    """
    if not p.size or np.maximum.reduce(p, axis=None) <= 0.5:
        return _on_flat(near, p)
    lower = p <= 0.5
    out = np.empty_like(p)
    out[lower] = near(p[lower])
    out[~lower] = far(1.0 - p[~lower])
    return out if out.ndim else float(out)


class TailModel:
    """Base class: a distribution seen through its quantile function."""

    name: str = "model"
    params: tuple = ()
    domain_label: str = UNKNOWN_DOMAIN
    has_tail_rate: bool = False

    # -- quantile surface ------------------------------------------------

    def quantile(self, s):
        """Q(s) for s in (0,1); scalar or array.

        Delegates to the stable tail branch for s > 1/2 so that the tail
        mass 1-s is never formed from a rounded upper probability.
        """
        return _split_at_half(_check_prob(s), self._quantile_lower,
                              self._tail_quantile_small)

    def tail_quantile(self, t):
        """Q(1-t) for tail mass t in (0,1), stable as t -> 0."""
        return _split_at_half(_check_prob(t, "t"), self._tail_quantile_small,
                              self._quantile_lower)

    def _quantile_lower(self, s):
        raise NotImplementedError

    def _tail_quantile_small(self, t):
        raise NotImplementedError

    # -- tail measure ----------------------------------------------------

    def tail_density(self, t):
        """Density q(t) = -d/dt Q(1-t) of dQ in the tail coordinate."""
        return _on_flat(self._tail_density, _check_prob(t, "t"))

    def tail_rate(self, u):
        """Slowly varying rate r(u) = u * Q'(1-u) of the representation class."""
        if not self.has_tail_rate:
            raise UnsupportedModelError(
                f"{self.describe()} carries no analytic slowly varying tail rate"
            )
        return _on_flat(self._tail_rate, _check_prob(u, "u"))

    # The formulas behind them see a 1-d float array inside (0, 1).
    def _tail_density(self, t):
        raise NotImplementedError

    def _tail_rate(self, u):
        raise NotImplementedError

    # -- optional closed forms; None means "not declared" ----------------

    def closed_mean_mass(self, s):
        """mu(s) = int_{1-s}^1 Q(u) du, when an exact form is known."""
        return None

    def closed_scale(self, s, beta):
        """c(s, beta), when an exact form is known."""
        return None

    def closed_variance(self, s):
        """sigma^2(s), when an exact form is known."""
        return None

    def closed_rate_integral(self, s):
        """rho(s) = int_0^s r(u) du, when an exact form is known."""
        return None

    # -- bookkeeping -----------------------------------------------------

    def describe(self) -> str:
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.name}({inner})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class Exponential(TailModel):
    """Exponential(rate); Q(1-t) = -ln(t)/rate, r(u) = 1/rate."""

    name = "exponential"
    domain_label = GUMBEL_DOMAIN
    has_tail_rate = True

    def __init__(self, rate: float = 1.0):
        if not rate > 0.0:
            raise ValueError("rate must be strictly positive")
        self.rate = float(rate)
        self.params = (self.rate,)

    def _quantile_lower(self, s):
        return -np.log1p(-s) / self.rate

    def _tail_quantile_small(self, t):
        return -np.log(t) / self.rate

    def _tail_density(self, t):
        return 1.0 / (self.rate * t)

    def _tail_rate(self, u):
        return np.full_like(u, 1.0 / self.rate)

    def closed_mean_mass(self, s):
        return s * (1.0 - math.log(s)) / self.rate

    def closed_scale(self, s, beta):
        return 1.0 / (self.rate * beta)

    def closed_variance(self, s):
        return (2.0 * s - s * s) / self.rate**2

    def closed_rate_integral(self, s):
        return s / self.rate


class Gumbel(TailModel):
    """Gumbel(loc, scale); Q(s) = loc - scale*ln(-ln s)."""

    name = "gumbel"
    domain_label = GUMBEL_DOMAIN
    has_tail_rate = True

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        if not scale > 0.0:
            raise ValueError("scale must be strictly positive")
        _load_special()
        self.loc = float(loc)
        self.scale = float(scale)
        self.params = (self.loc, self.scale)

    def _quantile_lower(self, s):
        return self.loc - self.scale * np.log(-np.log(s))

    def _tail_quantile_small(self, t):
        return self.loc - self.scale * np.log(-np.log1p(-t))

    def _tail_density(self, t):
        return self.scale / ((1.0 - t) * (-np.log1p(-t)))

    def _tail_rate(self, u):
        return self.scale * u / ((1.0 - u) * (-np.log1p(-u)))

    def closed_rate_integral(self, s):
        # int_0^s r = scale * int_0^G (1-e^{-g})/g dg, G = -ln(1-s),
        # and the integral is gamma + ln G + E1(G).
        big_g = -math.log1p(-s)
        return self.scale * (_EULER_GAMMA + math.log(big_g) + float(special.exp1(big_g)))


class Weibull(TailModel):
    """Weibull(shape) with unit scale; Q(1-t) = (ln(1/t))^{1/shape}."""

    name = "weibull"
    domain_label = GUMBEL_DOMAIN
    has_tail_rate = True

    def __init__(self, shape: float = 1.0):
        if not shape > 0.0:
            raise ValueError("shape must be strictly positive")
        _load_special()
        self.shape = float(shape)
        self.params = (self.shape,)

    def _quantile_lower(self, s):
        return (-np.log1p(-s)) ** (1.0 / self.shape)

    def _tail_quantile_small(self, t):
        with np.errstate(over="ignore"):   # a tiny shape: Q is inf
            return (-np.log(t)) ** (1.0 / self.shape)

    def _log_power(self, t):
        """(-ln t)^(1/k - 1) by a numpy float64 ``**`` on each element.

        That is C pow, the arithmetic a scalar t has always taken; numpy's
        array power loop can differ from it in the last bit.  An overflow
        gives inf with numpy's overflow warning (Python's float ``**``
        would raise).
        """
        e = 1.0 / self.shape - 1.0
        return np.array([x**e for x in -np.log(t)])

    def _tail_density(self, t):
        return self._log_power(t) / (self.shape * t)

    def _tail_rate(self, u):
        return self._log_power(u) / self.shape

    def closed_rate_integral(self, s):
        k = self.shape
        big_l = -math.log(s)
        return float(special.gamma(1.0 / k) / k * special.gammaincc(1.0 / k, big_l))

    def closed_mean_mass(self, s):
        k = self.shape
        big_l = -math.log(s)
        return float(special.gamma(1.0 + 1.0 / k) * special.gammaincc(1.0 + 1.0 / k, big_l))


class Normal(TailModel):
    """Standard normal; quantile via the library inverse CDF."""

    name = "normal"
    domain_label = GUMBEL_DOMAIN

    def __init__(self):
        _load_special()
        self.params = ()

    def _quantile_lower(self, s):
        return special.ndtri(s)

    def _tail_quantile_small(self, t):
        return -special.ndtri(t)

    def _tail_density(self, t):
        return 1.0 / _norm_pdf(special.ndtri(t))

    def closed_mean_mass(self, s):
        # int_z^inf x phi(x) dx = phi(z)
        return float(_norm_pdf(self.tail_quantile(s)))


class LogNormal(TailModel):
    """Lognormal(0, 1); Q(s) = exp(Phi^{-1}(s))."""

    name = "lognormal"
    domain_label = GUMBEL_DOMAIN

    def __init__(self):
        _load_special()
        self.params = ()

    def _quantile_lower(self, s):
        return np.exp(special.ndtri(s))

    def _tail_quantile_small(self, t):
        return np.exp(-special.ndtri(t))

    def _tail_density(self, t):
        z = -special.ndtri(t)
        return np.exp(z) / _norm_pdf(z)

    def closed_mean_mass(self, s):
        # int_z^inf e^x phi(x) dx = sqrt(e) * Phi(1 - z), z the normal tail quantile
        z = -float(special.ndtri(s)) if s <= 0.5 else float(special.ndtri(1.0 - s))
        return math.sqrt(math.e) * ndtr(1.0 - z)


class Gamma(TailModel):
    """Gamma(shape) with unit rate."""

    name = "gamma"
    domain_label = GUMBEL_DOMAIN

    def __init__(self, shape: float):
        if not shape > 0.0:
            raise ValueError("shape must be strictly positive")
        _load_special()
        self.shape = float(shape)
        self.params = (self.shape,)

    def _quantile_lower(self, s):
        return special.gammaincinv(self.shape, s)

    def _tail_quantile_small(self, t):
        return special.gammainccinv(self.shape, t)

    def _pdf(self, x):
        k = self.shape
        with np.errstate(divide="ignore"):   # a tiny shape: x = 0, ln x = -inf
            return np.exp((k - 1.0) * np.log(x) - x - special.gammaln(k))

    def _tail_density(self, t):
        return 1.0 / self._pdf(self.tail_quantile(t))

    def closed_mean_mass(self, s):
        # int_x^inf u f(u) du = shape * Gammaincc(shape+1, x)
        x = self.tail_quantile(s)
        return float(self.shape * special.gammaincc(self.shape + 1.0, x))


class Pareto(TailModel):
    """Pareto(index a); Q(1-t) = t^{-1/a}.  Frechet domain, negative control."""

    name = "pareto"
    domain_label = FRECHET_DOMAIN

    def __init__(self, index: float):
        if not index > 0.0:
            raise ValueError("index must be strictly positive")
        self.index = float(index)
        self.params = (self.index,)

    def _quantile_lower(self, s):
        return np.exp(-np.log1p(-s) / self.index)

    def _tail_quantile_small(self, t):
        with np.errstate(over="ignore"):   # a tiny index: Q is inf
            return np.asarray(t, dtype=float) ** (-1.0 / self.index)

    def _tail_density(self, t):
        a = self.index
        return t ** (-1.0 / a - 1.0) / a

    def closed_mean_mass(self, s):
        a = self.index
        if a <= 1.0:
            return math.inf
        return a * s ** (1.0 - 1.0 / a) / (a - 1.0)

    def closed_scale(self, s, beta):
        a = self.index
        if a * beta <= 1.0:
            return math.inf
        return s ** (-1.0 / a) / (a * beta - 1.0)


class Uniform(TailModel):
    """Uniform(0, 1); short upper tail, negative control."""

    name = "uniform"
    domain_label = WEIBULL_DOMAIN

    def __init__(self):
        self.params = ()

    def _quantile_lower(self, s):
        return np.asarray(s, dtype=float) + 0.0

    def _tail_quantile_small(self, t):
        return 1.0 - np.asarray(t, dtype=float)

    def _tail_density(self, t):
        return np.ones_like(t)

    def closed_mean_mass(self, s):
        return s - 0.5 * s * s

    def closed_scale(self, s, beta):
        return s / (beta + 1.0)

    def closed_variance(self, s):
        return s**3 / 3.0 - s**4 / 4.0


class AffineModel(TailModel):
    """scale * X + shift for a base model X; Q_Y = scale * Q_X + shift."""

    def __init__(self, base: TailModel, scale: float = 1.0, shift: float = 0.0):
        if not scale > 0.0:
            raise ValueError("scale must be strictly positive")
        self.base = base
        self.scale = float(scale)
        self.shift = float(shift)
        self.name = f"affine[{base.name}]"
        self.params = base.params + (self.scale, self.shift)
        self.domain_label = base.domain_label
        self.has_tail_rate = base.has_tail_rate

    def _quantile_lower(self, s):
        return self.scale * self.base._quantile_lower(s) + self.shift

    def _tail_quantile_small(self, t):
        return self.scale * self.base._tail_quantile_small(t) + self.shift

    def _tail_density(self, t):
        return self.scale * self.base._tail_density(t)

    def _tail_rate(self, u):
        return self.scale * self.base._tail_rate(u)

    def closed_mean_mass(self, s):
        return _affine(self.base.closed_mean_mass(s), lambda mu: self.scale * mu + s * self.shift)

    def closed_scale(self, s, beta):
        return _affine(self.base.closed_scale(s, beta), lambda c: self.scale * c)

    def closed_variance(self, s):
        return _affine(self.base.closed_variance(s), lambda var: self.scale**2 * var)

    def closed_rate_integral(self, s):
        return _affine(self.base.closed_rate_integral(s), lambda rho: self.scale * rho)


def _affine(inner, transform):
    """transform(inner), a base model's closed form carried over, or None
    where the base has none."""
    return None if inner is None else transform(inner)


# A catalog model plus a note on where its closed forms come from.
CatalogEntry = namedtuple("CatalogEntry", "model notes")

# Each family once: its class, the least and most parameters a descriptor
# gives (one names Weibull's shape although its constructor has a
# default), and the parameters and note of its catalog entry.
_FAMILIES = (
    (Exponential, 0, 1, (1.0,), "all tail functionals in elementary closed form"),
    (Gumbel, 0, 2, (0.0, 1.0), "rate integral closed via the exponential integral E1"),
    (Weibull, 1, 1, (2.0,), "rate integral and mean mass closed via incomplete gamma"),
    (Normal, 0, 0, (), "mean mass closed: mu(s) = phi(Q(1-s))"),
    (LogNormal, 0, 0, (), "mean mass closed: mu(s) = sqrt(e) Phi(1 - ln Q(1-s))"),
    (Gamma, 1, 1, (2.0,), "mean mass closed via incomplete gamma"),
    (Pareto, 1, 1, (2.0,), "polynomial tail, scale functional closed for a*beta > 1"),
    (Uniform, 0, 0, (), "bounded support, everything elementary"),
)

# name -> (class, min arity, max arity)
_MODEL_FACTORIES = {cls.name: (cls, lo, hi) for cls, lo, hi, _, _ in _FAMILIES}


def catalog() -> list[CatalogEntry]:
    """Default model catalog used by demos and the limit-check suite."""
    return [CatalogEntry(cls(*params), notes) for cls, _, _, params, notes in _FAMILIES]


_DESCRIPTOR_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_model(text: str) -> TailModel:
    """Build a model from a descriptor like ``"weibull(2.0)"``.

    The descriptor grammar is ``name(p1,p2,...)``; the parameter list may
    be empty or absent when the model has defaults.  Every parameter
    must be a finite number.
    """
    m = _DESCRIPTOR_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse model descriptor {text!r}")
    name = m.group(1).lower()
    if name not in _MODEL_FACTORIES:
        known = ", ".join(sorted(_MODEL_FACTORIES))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    raw = m.group(2)
    params = []
    if raw is not None and raw.strip():
        for piece in raw.split(","):
            try:
                value = float(piece)
            except ValueError:
                value = math.nan
            # inf and nan would slip past the constructors' `> 0` guards
            if not math.isfinite(value):
                raise ValueError(
                    f"bad parameter {piece.strip()!r} in descriptor {text!r}; "
                    "parameters must be finite numbers"
                )
            params.append(value)
    factory, lo, hi = _MODEL_FACTORIES[name]
    if not lo <= len(params) <= hi:
        raise ValueError(
            f"model {name!r} takes between {lo} and {hi} parameters, got {len(params)}"
        )
    return factory(*params)
