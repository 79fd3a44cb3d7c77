"""Centered and scaled tail-sum statistics and their replicated experiments.

Three statistics are computed from the top k order statistics of a sample
of size n, each normalized by sqrt(k) and the tail scale c(k/n):

    T1 = (S_k - n*mu(k/n)) / (sqrt(k) c(k/n))          limit N(0, 2)
    T2 = sqrt(k) (X_{n-k,n} - Q(1-k/n)) / c(k/n)       limit N(0, 1)
    T3 = (S_k - k X_{n-k,n} - n*rho(k/n)) / (sqrt(k) c(k/n))   limit N(0, 1)

where S_k sums the top k values.  Because rho(s) = mu(s) - s Q(1-s)
exactly, T3 = T1 - T2 holds replicate by replicate up to quadrature noise;
that identity is a strong internal consistency check and is exercised in
the tests.  Two auxiliary statistics ride along: MAX, the normalized
sample maximum against its Gumbel limit, and BDH, the rescaled uniform
tail mass n(1-U_{n-k,n})/k which concentrates at 1.

STATISTICS is the one place that says what each statistic is checked
against: its target CDF (BDH has none), its target variance (BDH's is
1/k, from the cell) and its default bounds.  BOUNDS says, per bound key,
which values are valid, which statistics it applies to and when a
summary fails it; the config validates tolerances against it.

Experiments draw a cell as a matrix, one replicate per row, in row
chunks of about 2^14 order statistics so memory stays flat in the number
of replicates.  Reproducibility comes from the streams, not the schedule:
every replicate owns a counter-based stream keyed by (master_seed,
stream id), its row equals the single draw of that stream bit for bit,
and its statistics land in its own slot of a preallocated array, so the
chunk size never changes a report byte.  Each statistic is one formula
evaluated on floats for a single draw and on arrays for a chunk; row sums
use math.fsum on both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .errors import ConfigError, NumericError, QuadratureError
from .functionals import rate_integral, tail_mean, tail_scale
from .models import TailModel
from .sampling import ReplicateDraw, SeedSpec, _rescaled_threshold_tail, draw_batch

# Fraction of replicates allowed to produce non-finite statistics before
# the experiment is considered numerically broken.
FAILURE_BUDGET = 0.001

# A cell is drawn in row chunks of about this many order statistics, so
# its working arrays stay small however many replicates it has.
_CHUNK_ORDER_STATS = 2**14


@dataclass(frozen=True)
class KRule:
    """Rule mapping a sample size n to the number of top values k.

    The power rule k = ceil(coeff * n^gamma) with 0 < gamma < 1 keeps
    k -> infinity while k/n -> 0 along any growing n grid, which is the
    regime all the limits here assume.  A fixed rule is provided for
    diagnostics and does not promise that regime.
    """

    kind: str = "power"
    coeff: float = 1.0
    gamma: float = 0.4
    fixed_k: int = 0

    def __post_init__(self):
        if self.kind not in ("power", "fixed"):
            raise ValueError("k rule kind must be 'power' or 'fixed'")
        if self.kind == "power":
            if not self.coeff > 0.0:
                raise ValueError("power rule needs coeff > 0")
            if not 0.0 < self.gamma < 1.0:
                raise ValueError("power rule needs gamma in (0, 1)")
        elif self.fixed_k < 1:
            raise ValueError("fixed rule needs fixed_k >= 1")

    def resolve(self, n: int) -> int:
        n = int(n)
        if self.kind == "power":
            k = math.ceil(self.coeff * n**self.gamma)
        else:
            k = self.fixed_k
        if not 1 <= k < n:
            raise ValueError(f"k rule gives k={k} outside [1, {n - 1}] for n={n}")
        return k


@dataclass(frozen=True)
class CellFunctionals:
    """Model functionals at s = k/n, computed once per experiment cell."""

    n: int
    k: int
    s: float
    scale: float        # c(k/n)
    mean_mass: float    # mu(k/n)
    rate_mass: float    # rho(k/n)
    threshold_q: float  # Q(1 - k/n)


def cell_functionals(model: TailModel, n: int, k: int) -> CellFunctionals:
    n = int(n)
    k = int(k)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    s = k / n
    return CellFunctionals(
        n=n,
        k=k,
        s=s,
        scale=tail_scale(model, s),
        mean_mass=tail_mean(model, s),
        rate_mass=rate_integral(model, s, extended=True),
        threshold_q=model.tail_quantile(s),
    )


def _functionals_for(draw: ReplicateDraw, model, cf):
    if cf is None:
        return cell_functionals(model, draw.n, draw.k)
    if (cf.n, cf.k) != (draw.n, draw.k):
        raise ValueError("cell functionals do not match the draw's (n, k)")
    return cf


# The statistics as functions of the top-k sum s_k and the threshold x_k,
# each a float for one draw or an array over a chunk of rows.
def _t1(s_k, cf: CellFunctionals):
    return (s_k - cf.n * cf.mean_mass) / (math.sqrt(cf.k) * cf.scale)


def _t2(x_k, cf: CellFunctionals):
    return math.sqrt(cf.k) * (x_k - cf.threshold_q) / cf.scale


def _t3(s_k, x_k, cf: CellFunctionals):
    return (s_k - cf.k * x_k - cf.n * cf.rate_mass) / (math.sqrt(cf.k) * cf.scale)


def statistic_T1(draw: ReplicateDraw, model: TailModel, cf: CellFunctionals | None = None) -> float:
    """Normalized centered sum of the top k values; limit N(0, 2)."""
    return _t1(math.fsum(draw.top_x), _functionals_for(draw, model, cf))


def statistic_T2(draw: ReplicateDraw, model: TailModel, cf: CellFunctionals | None = None) -> float:
    """Normalized intermediate order statistic; limit N(0, 1)."""
    return _t2(draw.threshold_x, _functionals_for(draw, model, cf))


def statistic_T3(draw: ReplicateDraw, model: TailModel, cf: CellFunctionals | None = None) -> float:
    """Normalized sum of excesses over the threshold; limit N(0, 1)."""
    return _t3(math.fsum(draw.top_x), draw.threshold_x, _functionals_for(draw, model, cf))


def mean_excess(draw: ReplicateDraw) -> float:
    """Average exceedance of the top k values over the threshold.

    The ratio mean_excess / c(k/n) tends to 1 in probability, which ties
    the abstract tail scale to a quantity estimable from data.
    """
    return math.fsum(draw.top_x) / draw.k - draw.threshold_x


@dataclass(frozen=True)
class GaussianMoments:
    """Second moments of the two Gaussian pieces behind the sum statistic."""

    varZ: float
    varY: float
    cov: float

    @property
    def varDiff(self) -> float:
        return self.varZ + self.varY - 2.0 * self.cov


def limiting_gaussian_moments(model: TailModel, n: int, k: int) -> GaussianMoments:
    """varZ = (n/k) sigma^2(k/n)/c(k/n)^2 plus the bridge moments 1 - k/n.

    varZ tends to 2 and varDiff = varZ - varY tends to 1 as k/n -> 0,
    matching the N(0,2) and N(0,1) limits of T1 and T3.
    """
    from .functionals import tail_variance

    n = int(n)
    k = int(k)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    s = k / n
    c = tail_scale(model, s)
    var_z = tail_variance(model, s) / (s * c * c)
    return GaussianMoments(varZ=var_z, varY=1.0 - s, cov=1.0 - s)


def gumbel_norming(model: TailModel, n: int):
    """(a_n, b_n) with b_n = Q(1 - 1/n) and a_n = c(1/n).

    These norm the sample maximum: (X_{n,n} - b_n)/a_n converges to the
    standard Gumbel law for every model in the catalog's Gumbel class.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    return tail_scale(model, 1.0 / n), model.tail_quantile(1.0 / n)


def gumbel_cdf(x):
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


@dataclass(frozen=True)
class Statistic:
    cdf: object              # target law, None where there is none to test
    variance: float | None   # target variance, None for BDH's 1/k
    bounds: dict             # default bounds, keyed as in BOUNDS


STATISTICS = {
    "T1": Statistic(lambda x: special.ndtr(np.asarray(x) / math.sqrt(2.0)), 2.0,
                    {"mean": (-0.1, 0.1), "var": (1.8, 2.2), "ks": 0.05}),
    "T2": Statistic(lambda x: special.ndtr(np.asarray(x)), 1.0,
                    {"var": (0.85, 1.15), "ks": 0.05}),
    "T3": Statistic(lambda x: special.ndtr(np.asarray(x)), 1.0,
                    {"var": (0.85, 1.15), "ks": 0.05}),
    "MAX": Statistic(gumbel_cdf, math.pi**2 / 6.0, {"ks": 0.05}),
    "BDH": Statistic(None, None, {"mean": (0.9, 1.1), "sd_factor": 2.0}),
}

STATISTIC_IDS = tuple(STATISTICS)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pair(x) -> bool:
    return (isinstance(x, (list, tuple)) and len(x) == 2
            and all(map(_is_number, x)) and x[0] <= x[1])


def _outside(label, x, bound):
    lo, hi = bound
    return None if lo <= x <= hi else f"{label} {x:.4g} outside [{lo:g}, {hi:g}]"


def _sd_failure(summary, factor, k):
    sd = math.sqrt(summary.variance)
    ref = 1.0 / math.sqrt(k)
    if not ref / factor <= sd <= ref * factor:
        return f"sd {sd:.4g} outside factor {factor:g} of {ref:.4g}"


@dataclass(frozen=True)
class Bound:
    valid: object     # shape and range test for a configured value
    want: str         # what a valid value is
    applies: object   # Statistic -> whether the bound means anything for it
    failure: object   # (summary, value, k) -> failure text, None when met


_RANGE = "a [lo, hi] pair of numbers with lo <= hi"

# A summary's failed_bounds follow this order.  No valid value is one
# that no sample can meet: below 1 the sd band is empty.
BOUNDS = {
    "mean": Bound(_is_pair, _RANGE, lambda st: True,
                  lambda s, bound, k: _outside("mean", s.mean, bound)),
    "var": Bound(_is_pair, _RANGE, lambda st: True,
                 lambda s, bound, k: _outside("var", s.variance, bound)),
    "ks": Bound(lambda x: _is_number(x) and 0 <= x <= 1, "a number in [0, 1]",
                lambda st: st.cdf is not None,
                lambda s, limit, k: None if s.ks <= limit
                else f"ks {s.ks:.4g} above {limit:g}"),
    "sd_factor": Bound(lambda x: _is_number(x) and x >= 1, "a number >= 1",
                       lambda st: st.variance is None, _sd_failure),
}


def check_tolerances(tolerances) -> None:
    """Raise ConfigError unless ``tolerances`` maps statistics to bounds
    that apply to them and that some sample could meet."""
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    for stat, bounds in tolerances.items():
        if stat not in STATISTICS:
            raise ConfigError(f"unknown statistic {stat!r} in tolerances; "
                              f"allowed: {list(STATISTIC_IDS)}")
        if not isinstance(bounds, dict):
            raise ConfigError(f"tolerances for {stat} must be an object")
        allowed = [key for key, b in BOUNDS.items() if b.applies(STATISTICS[stat])]
        for key, value in bounds.items():
            if key not in allowed:
                kind = "inapplicable" if key in BOUNDS else "unknown"
                raise ConfigError(f"{kind} tolerance key {stat}.{key}; "
                                  f"allowed for {stat}: {allowed}")
            if not BOUNDS[key].valid(value):
                raise ConfigError(f"tolerance {stat}.{key} must be {BOUNDS[key].want}")


@dataclass
class StatSample:
    """Replicate values of one statistic in one (model, n, k) cell."""

    statistic_id: str
    n: int
    k: int
    values: np.ndarray
    seed: SeedSpec
    numeric_failures: int = 0


@dataclass
class StatSummary:
    statistic_id: str
    count: int
    numeric_failures: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks: float
    ad: float
    target_variance: float
    verdict: str
    failed_bounds: tuple = ()


@dataclass
class NormalityReport:
    """Summary of every configured statistic for one (model, n, k) cell."""

    model: str
    n: int
    k: int
    replicates: int
    master_seed: int
    summaries: list

    @property
    def passed(self) -> bool:
        return all(s.verdict == "pass" for s in self.summaries)


@dataclass
class ExperimentResult:
    reports: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # (model, n) -> {stat: array}

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _central_moments(values: np.ndarray):
    mean = float(np.mean(values))
    d = values - mean
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    return mean, m2, m3, m4


def summarize_statistic(stat: str, values: np.ndarray, failures: int,
                        tolerances=None, k=None) -> StatSummary:
    """Moments, GOF distances and a verdict for one statistic's replicates.

    ``tolerances`` override the default bounds key by key; BDH needs the
    cell's ``k``.  Fewer than two finite values cannot support a variance,
    so the verdict degrades to "insufficient" rather than guessing.
    """
    from .gof import anderson_darling, ks_distance

    spec = STATISTICS[stat]
    if tolerances:
        check_tolerances({stat: tolerances})
    r = int(values.size)
    nan = float("nan")

    if r < 2:
        mean = float(values[0]) if r else nan
        return StatSummary(
            statistic_id=stat, count=r, numeric_failures=failures,
            mean=mean, variance=nan, skewness=nan, excess_kurtosis=nan,
            ks=nan, ad=nan,
            target_variance=nan if spec.variance is None else spec.variance,
            verdict="insufficient", failed_bounds=("variance undefined",),
        )

    mean, m2, m3, m4 = _central_moments(values)
    cdf = spec.cdf
    summary = StatSummary(
        statistic_id=stat, count=r, numeric_failures=failures,
        mean=mean, variance=float(np.var(values, ddof=1)),
        skewness=m3 / m2**1.5 if m2 > 0.0 else nan,
        excess_kurtosis=m4 / (m2 * m2) - 3.0 if m2 > 0.0 else nan,
        ks=ks_distance(values, cdf) if cdf is not None else nan,
        ad=anderson_darling(values, cdf) if cdf is not None else nan,
        target_variance=1.0 / k if spec.variance is None else spec.variance,
        verdict="pass",
    )
    tol = {**spec.bounds, **(tolerances or {})}
    failed = tuple(filter(None, (BOUNDS[key].failure(summary, tol[key], k)
                                 for key in BOUNDS if key in tol)))
    return replace(summary, verdict="fail", failed_bounds=failed) if failed else summary


def _row_chunks(replicates: int, count: int):
    """(lo, hi) row ranges holding about _CHUNK_ORDER_STATS draws each."""
    step = max(1, _CHUNK_ORDER_STATS // count)
    for lo in range(0, replicates, step):
        yield lo, min(lo + step, replicates)


def _run_cell(model, n, k, replicates, master_seed, stream_base, statistics):
    cf = cell_functionals(model, n, k)
    arrays = {s: np.full(replicates, np.nan) for s in statistics}
    if arrays.keys() & {"T1", "T2", "T3", "BDH"}:
        for lo, hi in _row_chunks(replicates, k + 1):
            seed = SeedSpec(master_seed, stream_base + lo)
            tails, xs, _ = draw_batch(seed, hi - lo, n, k + 1, model)
            # math.fsum as for one draw; np.sum rounds differently
            s_k = np.array([math.fsum(row) for row in xs[:, :k].tolist()])
            x_k = xs[:, k]
            values = {
                "T1": _t1(s_k, cf),
                "T2": _t2(x_k, cf),
                "T3": _t3(s_k, x_k, cf),
                "BDH": _rescaled_threshold_tail(n, k, tails[:, k]),
            }
            for stat in arrays.keys() & values.keys():
                arrays[stat][lo:hi] = values[stat]
    if "MAX" in arrays:
        a_n, b_n = gumbel_norming(model, n)
        for lo, hi in _row_chunks(replicates, 1):
            seed = SeedSpec(master_seed, stream_base + replicates + lo)
            _, xs, _ = draw_batch(seed, hi - lo, n, 1, model)
            arrays["MAX"][lo:hi] = (xs[:, 0] - b_n) / a_n
    return arrays, cf


def _integrate_scales(model, config):
    """c(k/n) for every n of the config, and c(1/n) when MAX runs, in one
    tail_scale call: the cells then find each ibp quadrature in its cache.
    A failure, or a k/n outside (0, 1), is left for its own cell to raise."""
    ss = [config.k_rule.resolve(n) / n for n in config.n_values]
    if "MAX" in config.statistics:
        ss += [1.0 / n for n in config.n_values]
    try:
        tail_scale(model, ss)
    except (QuadratureError, ValueError):
        pass


def run_experiment(config) -> ExperimentResult:
    """Replicated statistics for every (model, n) cell of the config.

    Stream ids are a pure function of the cell's position and the
    replicate index, so the same config and master seed reproduce
    identical reports.
    Replicates whose statistics come back non-finite are dropped from the
    summaries and counted; more than 0.1% of them aborts the run.
    """
    from .config import ExperimentConfig

    if not isinstance(config, ExperimentConfig):
        raise TypeError("run_experiment expects an ExperimentConfig")
    config.validate()
    result = ExperimentResult()

    cell_ordinal = 0
    for model in config.model_objects():
        _integrate_scales(model, config)
        for n in config.n_values:
            k = config.k_rule.resolve(n)
            stream_base = cell_ordinal * 2 * config.replicates
            cell_ordinal += 1
            try:
                arrays, _cf = _run_cell(
                    model, n, k, config.replicates, config.master_seed,
                    stream_base, config.statistics,
                )
            except QuadratureError as exc:
                raise NumericError(
                    f"functionals failed for {model.describe()} at n={n}: {exc}"
                ) from exc

            summaries = []
            cell_samples = {}
            for stat in config.statistics:
                raw = arrays[stat]
                finite = np.isfinite(raw)
                failures = int(raw.size - np.count_nonzero(finite))
                if failures > FAILURE_BUDGET * raw.size:
                    raise NumericError(
                        f"{failures} of {raw.size} replicates non-finite for "
                        f"{stat} ({model.describe()}, n={n})"
                    )
                values = raw[finite]
                tol = (config.tolerances or {}).get(stat)
                summaries.append(summarize_statistic(stat, values, failures, tol, k))
                cell_samples[stat] = StatSample(
                    statistic_id=stat, n=n, k=k, values=raw,
                    seed=SeedSpec(config.master_seed, stream_base),
                    numeric_failures=failures,
                )
            result.reports.append(
                NormalityReport(
                    model=model.describe(), n=n, k=k,
                    replicates=config.replicates,
                    master_seed=config.master_seed,
                    summaries=summaries,
                )
            )
            result.samples[(model.describe(), n)] = cell_samples
    return result
