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
1/k, from the cell), its default bounds and the cell functionals it
reads (BDH none).  BOUNDS says, per bound key, which values are valid,
which statistics it applies to and when a summary fails it; the config
validates tolerances against it.

An experiment runs in three stages, each over all of its cells.  First,
the functionals that a run's statistics read, of c, mu, rho and Q at k/n
and c and Q at 1/n, come for every cell from one request per functional
across the models, so no other functional can fail a run.  Second, at
each n, the rows of every model, one replicate per row, are drawn one
model after another in chunks of about 2^14 order statistics that may
span models, so memory stays flat in the number of replicates.
Reproducibility comes from the streams, not the schedule: every replicate
owns a counter-based stream keyed by (master_seed, stream id) and its row
equals the single draw of that stream bit for bit, so neither the chunks
nor the grouping of models change a report byte.  Each statistic is one
formula evaluated on floats for a single draw and on arrays over rows,
each row with its cell's functionals; a single draw's top-k sum is
math.fsum, and the rows' sums come from _row_fsums, which equals
math.fsum on every row bit for bit.  Third, the samples of every (cell,
statistic) of one length are summarised as the rows of one matrix, and a
reduction along a row gives the bits of that reduction on the sample
alone.  cell_functionals, _run_cell and summarize_statistic are the
one-cell and one-sample cases of these stages.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .cephes import ndtr
from .errors import ConfigError, NumericError
from .functionals import _at_s, _mean, _rate, _run, _scale, _values, _variance, tail_scale
from .gof import distances
from .models import TailModel
from .sampling import ReplicateDraw, SeedSpec, _draw_segments, _rescaled_threshold_tail

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
    scale: float        # c(k/n)
    mean_mass: float    # mu(k/n)
    rate_mass: float    # rho(k/n)
    threshold_q: float  # Q(1 - k/n)


# The functionals a cell may read, in the order in which its first error is
# found: c, mu, rho and Q at s = k/n, then the norming c and Q of the maximum.
CELL_FUNCTIONALS = ("c(k/n)", "mu(k/n)", "rho(k/n)", "Q(1-k/n)", "c(1/n)", "Q(1-1/n)")


def _functionals(cells, reads):
    """Per (model, n, k) cell, its CellFunctionals and the norming (c(1/n),
    Q(1-1/n)) of its maximum, or the first error of the CELL_FUNCTIONALS in
    ``reads``.  Only those are requested, and the others read NaN.  One
    request per functional spans the cells, with one tail_quantile call per
    model."""
    kn = [(model, k / n) for model, n, k in cells]
    one = [(model, 1.0 / n) for model, n, _ in cells]
    at = {name: (kn if "k/n" in name else one) if name in reads else []
          for name in CELL_FUNCTIONALS}
    scales, means, rates = _run(_scale(at["c(k/n)"] + at["c(1/n)"], 1.0), _mean(at["mu(k/n)"]),
                                _rate(at["rho(k/n)"], extended=True))
    failed = {}
    qs = _at_s(at["Q(1-k/n)"] + at["Q(1-1/n)"], failed).tolist()
    qs = [failed.get(i, (q,)) for i, q in enumerate(qs)]
    # one outcome per cell for each of CELL_FUNCTIONALS, in its order
    c_kn, q_kn = len(at["c(k/n)"]), len(at["Q(1-k/n)"])
    columns = [col or [(math.nan,)] * len(cells)
               for col in (scales[:c_kn], means, rates, qs[:q_kn], scales[c_kn:], qs[q_kn:])]
    out = []
    for (_, n, k), row in zip(cells, zip(*columns)):
        error = next((o for o in row if isinstance(o, Exception)), None)
        out.append(error or (CellFunctionals(n, k, *(o[0] for o in row[:4])),
                             tuple(o[0] for o in row[4:])))
    return out


def cell_functionals(model: TailModel, n: int, k: int) -> CellFunctionals:
    n = int(n)
    k = int(k)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    [out] = _functionals([(model, n, k)], CELL_FUNCTIONALS[:4])
    if isinstance(out, Exception):
        raise out
    return out[0]


def _functionals_for(draw: ReplicateDraw, model, cf):
    if cf is None:
        return cell_functionals(model, draw.n, draw.k)
    if (cf.n, cf.k) != (draw.n, draw.k):
        raise ValueError("cell functionals do not match the draw's (n, k)")
    return cf


# The statistics as functions of the top-k sum s_k and the threshold x_k,
# each a float for one draw or an array over rows; over rows of several
# cells, the functionals hold one value per row.
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
    n = int(n)
    k = int(k)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    s = k / n
    keys = [(model, s)]
    [[c], [var]] = _values(*_run(_scale(keys, 1.0), _variance(keys)))
    var_z = var / (s * c * c)
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
    with np.errstate(over="ignore"):   # exp(-x) overflows below x = -709: F is 0
        return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


# A statistic's target law (None where there is none to test), its target
# variance (None for BDH's 1/k), its default bounds, keyed as in BOUNDS, and
# the CELL_FUNCTIONALS it reads: BDH, a function of uniforms, reads none.
Statistic = namedtuple("Statistic", "cdf variance bounds reads")


STATISTICS = {
    "T1": Statistic(lambda x: ndtr(np.asarray(x) / math.sqrt(2.0)), 2.0,
                    {"mean": (-0.1, 0.1), "var": (1.8, 2.2), "ks": 0.05}, ("c(k/n)", "mu(k/n)")),
    "T2": Statistic(ndtr, 1.0, {"var": (0.85, 1.15), "ks": 0.05}, ("c(k/n)", "Q(1-k/n)")),
    "T3": Statistic(ndtr, 1.0, {"var": (0.85, 1.15), "ks": 0.05}, ("c(k/n)", "rho(k/n)")),
    "MAX": Statistic(gumbel_cdf, math.pi**2 / 6.0, {"ks": 0.05}, ("c(1/n)", "Q(1-1/n)")),
    "BDH": Statistic(None, None, {"mean": (0.9, 1.1), "sd_factor": 2.0}, ()),
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


# A bound's shape and range test for a configured value, what a valid
# value is, whether it means anything for a Statistic, and its failure
# text for (summary, value, k), None when met.
Bound = namedtuple("Bound", "valid want applies failure")


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
    that apply to them and that some sample could meet.  Any mapping will
    do, so a built config's read-only tolerances check again unchanged."""
    if not isinstance(tolerances, Mapping):
        raise ConfigError("tolerances must be an object")
    for stat, bounds in tolerances.items():
        if stat not in STATISTICS:
            raise ConfigError(f"unknown statistic {stat!r} in tolerances; "
                              f"allowed: {list(STATISTIC_IDS)}")
        if not isinstance(bounds, Mapping):
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
    """Mean and central moments 2 to 4 of each row."""
    mean = np.mean(values, axis=-1)
    d = values - mean[..., None]
    return mean, np.mean(d * d, axis=-1), np.mean(d**3, axis=-1), np.mean(d**4, axis=-1)


def _summary(stat, count, failures, moments, variance, ks, ad, tolerances, k):
    """One sample's summary from its moments and distances, with its verdict."""
    spec = STATISTICS[stat]
    mean, m2, m3, m4 = moments
    m2 = np.float64(m2)   # so that m2**1.5 overflows to inf, as a Python float cannot
    summary = StatSummary(
        statistic_id=stat, count=count, numeric_failures=failures,
        mean=mean, variance=variance,
        skewness=float(m3 / m2**1.5) if m2 > 0.0 else math.nan,
        excess_kurtosis=float(m4 / (m2 * m2) - 3.0) if m2 > 0.0 else math.nan,
        ks=ks, ad=ad,
        target_variance=(1.0 / k if count > 1 else math.nan) if spec.variance is None
        else spec.variance,
        verdict="pass",
    )
    if count < 2:
        summary.verdict, summary.failed_bounds = "insufficient", ("variance undefined",)
        return summary
    tol = {**spec.bounds, **(tolerances or {})}
    failed = tuple(filter(None, (BOUNDS[key].failure(summary, tol[key], k)
                                 for key in BOUNDS if key in tol)))
    if failed:
        summary.verdict, summary.failed_bounds = "fail", failed
    return summary


def _summaries(samples):
    """summarize_statistic of every (stat, values, failures, tolerances, k)
    sample: the samples of one length are the rows of one matrix, reduced
    along its rows, with one ``gof.distances`` call per statistic.  The
    tolerances are taken as checked: run_experiment's come from a built
    config, and summarize_statistic checks its own."""
    nan = math.nan
    by_length = {}
    for i, (_, values, *_) in enumerate(samples):
        by_length.setdefault(values.size, []).append(i)
    out = [None] * len(samples)
    for r, at in by_length.items():
        if r < 2:
            for i in at:
                stat, values, failures, _, k = samples[i]
                mean = float(values[0]) if r else nan
                out[i] = _summary(stat, r, failures, (mean, nan, nan, nan), nan, nan, nan, None, k)
            continue
        x = np.array([samples[i][1] for i in at], dtype=np.float64)
        stats = [samples[i][0] for i in at]
        ks, ad = np.full(len(at), nan), np.full(len(at), nan)
        for stat in dict.fromkeys(stats):
            if STATISTICS[stat].cdf is not None:
                rows = [row for row, s in enumerate(stats) if s == stat]
                ks[rows], ad[rows] = distances(x[rows], STATISTICS[stat].cdf)
        # huge or tiny values give inf or nan moments, as they would on floats
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            moments = zip(*(m.tolist() for m in _central_moments(x)))
            variances = np.var(x, axis=1, ddof=1).tolist()
            for i, m, v, d_ks, d_ad in zip(at, moments, variances, ks.tolist(), ad.tolist()):
                stat, _, failures, tolerances, k = samples[i]
                out[i] = _summary(stat, r, failures, m, v, d_ks, d_ad, tolerances, k)
    return out


def summarize_statistic(stat: str, values: np.ndarray, failures: int,
                        tolerances=None, k=None) -> StatSummary:
    """Moments, GOF distances and a verdict for one statistic's replicates.

    ``tolerances`` override the default bounds key by key; BDH needs the
    cell's ``k``.  Fewer than two finite values cannot support a variance,
    so the verdict degrades to "insufficient" rather than guessing.  A
    tolerance key that does not apply to ``stat``, or a value no sample
    could meet, raises ConfigError.
    """
    if tolerances:
        check_tolerances({stat: tolerances})
    return _summaries([(stat, values, failures, tolerances, k)])[0]


def _row_fsums(x: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a 2-d float array, bit for bit.

    A pairwise TwoSum tree gives each row's float sum S and its m exact
    error terms e, so the row's exact sum is S + sum(e).  With E = fl(sum e)
    and (hi, lo) = TwoSum(S, E), the exact sum is hi + lo + (sum e - E),
    and |sum e - E| < delta = 2(m+1) 2^-53 fl(sum |e|) (plus the smallest
    subnormal, for delta's own underflow).  hi is then the correctly
    rounded sum when lo + delta < up/2 and lo - delta > -down/2, where up
    and down are the gaps from hi to its neighbours; rounding is monotone
    and up/2 is exact, so the computed test implies the exact one and a
    tie is never accepted.  A row whose magnitudes sum below 2^1021 cannot
    overflow here or in fsum's own partials.  Every other row (ties,
    zeros, inf, NaN, huge values) takes math.fsum itself, with its
    exceptions.
    """
    rows, width = x.shape
    # column-major, so every column block of the tree is one contiguous run
    s = np.array(x, dtype=np.float64, order="F")
    pos = 0
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.abs(s).sum(axis=1) < 2.0**1021
        e = np.empty((rows, width - 1), order="F")
        while width > 1:
            h = width // 2
            a, b = s[:, :h], s[:, width - h:width]  # an odd middle column stays
            hi = a + b
            bv = hi - a
            # (a - (hi - bv)) + (b - bv), formed in place to spare temporaries
            ev = np.subtract(hi, bv, out=e[:, pos:pos + h])
            np.subtract(a, ev, out=ev)
            ev += np.subtract(b, bv, out=bv)
            s[:, :h] = hi
            pos += h
            width -= h
        total = s[:, 0]
        err = e.sum(axis=1)
        delta = (2 * (pos + 1) * 2.0**-53) * np.abs(e, out=e).sum(axis=1) + 2.0**-1074
        hi = total + err
        bv = hi - total
        lo = (total - (hi - bv)) + (err - bv)
        up = np.nextafter(hi, np.inf) - hi
        down = hi - np.nextafter(hi, -np.inf)
    ok = small & (hi != 0.0) & (lo + delta < up / 2) & (lo - delta > -down / 2)
    for r in np.flatnonzero(~ok):
        hi[r] = math.fsum(x[r].tolist())
    return hi


def _run_cells(cells, n, k, replicates, master_seed, statistics):
    """The replicate arrays of ``statistics`` for every (model, cf,
    norming, stream_base) cell at one n; row r of a cell draws its top k+1
    values from stream stream_base + r and its maximum from stream_base +
    replicates + r."""
    total = len(cells) * replicates
    values = {stat: np.empty(total) for stat in statistics}

    def chunks(count, offset, columns):
        """Each chunk's rows, its draw and, per row, the cell's ``columns``."""
        step = max(1, _CHUNK_ORDER_STATS // count)
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            at = range(lo // replicates, (hi - 1) // replicates + 1)
            firsts = [max(lo - j * replicates, 0) for j in at]
            sizes = [min(hi - j * replicates, replicates) - a for j, a in zip(at, firsts)]
            segments = [(SeedSpec(master_seed, cells[j][3] + offset + a), size, cells[j][0])
                        for j, a, size in zip(at, firsts, sizes)]
            yield (slice(lo, hi), _draw_segments(segments, n, count),
                   [np.repeat(column[at.start:at.stop], sizes) for column in columns])

    if values.keys() & {"T1", "T2", "T3", "BDH"}:
        columns = np.array([[getattr(cell[1], name) for cell in cells]
                            for name in ("scale", "mean_mass", "rate_mass", "threshold_q")])
        for rows, (tails, xs, _), per_row in chunks(k + 1, 0, columns):
            cf = CellFunctionals(n, k, *per_row)
            s_k, x_k = _row_fsums(xs[:, :k]), xs[:, k]
            # a non-finite replicate is counted against the budget, not warned about
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                chunk = {"T1": _t1(s_k, cf), "T2": _t2(x_k, cf), "T3": _t3(s_k, x_k, cf),
                         "BDH": _rescaled_threshold_tail(n, k, tails[:, k])}
            for stat in values.keys() & chunk.keys():
                values[stat][rows] = chunk[stat]
    if "MAX" in values:
        columns = np.array([cell[2] for cell in cells]).T
        for rows, (_, xs, _), (a_n, b_n) in chunks(1, replicates, columns):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values["MAX"][rows] = (xs[:, 0] - b_n) / a_n
    return [{stat: values[stat][j * replicates:(j + 1) * replicates] for stat in statistics}
            for j in range(len(cells))]


def _reads(statistics):
    """The CELL_FUNCTIONALS that any of ``statistics`` reads."""
    return {name for stat in statistics for name in STATISTICS[stat].reads}


def _run_cell(model, n, k, replicates, master_seed, stream_base, statistics):
    """The replicate arrays and functionals of one experiment cell."""
    [out] = _functionals([(model, n, k)], _reads(statistics))
    if isinstance(out, Exception):
        raise out
    [arrays] = _run_cells([(model, *out, stream_base)], n, k, replicates, master_seed,
                          statistics)
    return arrays, out[0]


def run_experiment(config) -> ExperimentResult:
    """Replicated statistics for every (model, n) cell of the config.

    Stream ids are a pure function of the cell's position and the
    replicate index, so the same config and master seed reproduce
    identical reports.
    Replicates whose statistics come back non-finite are dropped from the
    summaries and counted; more than 0.1% of them aborts the run.
    A run stops at its first cell, models first, whose functionals fail or
    whose statistics break that budget.
    """
    from .config import ExperimentConfig

    if not isinstance(config, ExperimentConfig):
        raise TypeError("run_experiment expects an ExperimentConfig")
    result = ExperimentResult()
    replicates = config.replicates

    cells = [(model, n, config.k_rule.resolve(n))
             for model in config.model_objects() for n in config.n_values]
    functionals = _functionals(cells, _reads(config.statistics))
    # the cells before the first failure still run and may fail first
    done = next((i for i, out in enumerate(functionals)
                 if isinstance(out, Exception)), len(cells))
    arrays = [None] * done
    for n, k in dict.fromkeys((n, k) for _, n, k in cells[:done]):
        at = [i for i in range(done) if cells[i][1] == n]
        for i, cell_arrays in zip(at, _run_cells(
                [(cells[i][0], *functionals[i], i * 2 * replicates) for i in at],
                n, k, replicates, config.master_seed, config.statistics)):
            arrays[i] = cell_arrays

    samples = []
    for (model, n, k), cell_arrays in zip(cells, arrays):
        for stat in config.statistics:
            raw = cell_arrays[stat]
            finite = np.isfinite(raw)
            failures = int(raw.size - np.count_nonzero(finite))
            if failures > FAILURE_BUDGET * raw.size:
                raise NumericError(
                    f"{failures} of {raw.size} replicates non-finite for "
                    f"{stat} ({model.describe()}, n={n})"
                )
            samples.append((stat, raw[finite], failures,
                            (config.tolerances or {}).get(stat), k))
    if done < len(cells):
        model, n, _ = cells[done]
        error = functionals[done]
        raise NumericError(f"functionals failed for {model.describe()} at n={n}: {error}") from error

    summaries = _summaries(samples)
    width = len(config.statistics)
    for i, (model, n, k) in enumerate(cells[:done]):
        at = slice(i * width, (i + 1) * width)
        result.reports.append(NormalityReport(
            model=model.describe(), n=n, k=k, replicates=replicates, summaries=summaries[at]))
        seed = SeedSpec(config.master_seed, i * 2 * replicates)
        result.samples[(model.describe(), n)] = {
            stat: StatSample(arrays[i][stat], seed, failures)
            for stat, _, failures, _, _ in samples[at]}
    return result
