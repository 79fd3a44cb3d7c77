"""Experiment configuration: one JSON document, checked before any work.

The config names the models, the n grid, the k rule, replication and
seeding, which statistics to run, and the grids for functional tables.
Scalar fields can be overridden from the command line; everything else is
the file's business.  Parsing is strict: unknown keys are errors, because
a silently ignored "replicate" typo would change results.

An ExperimentConfig has one build path.  Its ``__post_init__`` first
brings each field to its normal form, from the field's JSON form (a list,
an object) or from its own type: list fields become tuples, a string for
``models`` is one model, ``k_rule`` and ``s_grid`` become a KRule and an
SGrid, betas become floats, and tolerances are checked and stored
read-only.  Then it raises ConfigError on a bad value.  ``from_dict``
only renames the ``model`` alias before calling the constructor, so the
constructor, ``from_dict`` and ``dataclasses.replace`` give one checked
config for one input, and nothing downstream checks one again.  The
normal forms are fixed points, so a built config's fields build it again.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .clt import FAILURE_BUDGET, STATISTIC_IDS, KRule, _is_number, check_tolerances
from .errors import ConfigError
from .functionals import SGrid
from .limits import DEFAULT_CHECKS
from .models import parse_model
from .sampling import _TINY

_SGRID_KEYS = ("start", "ratio", "count")   # SGrid.geometry's order

# Caps past which a run's arrays exhaust memory, far above the benchmark's
# largest k + 1 = 3,983 order statistics and 12,000 rows per n value.
_MAX_ORDER_STATS = 2**20   # k + 1 per replicate
_MAX_ROWS = 2**20          # models x replicates per n value


def _is_int(x) -> bool:
    # bool is an int subclass, but `"replicates": true` is a typo, not 1
    return isinstance(x, int) and not isinstance(x, bool)


def _as_float(x) -> float:
    """float(x) of a number, an int beyond the float range as +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _is_str(x) -> bool:
    return isinstance(x, str)


def _typed_list(key, value, ok, what):
    """value as a tuple after checking it is a list of ``what``; a bare
    string would iterate as its characters, so it is refused."""
    if not isinstance(value, (list, tuple)) or not all(map(ok, value)):
        raise ConfigError(f"{key} must be a list of {what}, got {value!r}")
    return tuple(value)


def _frozen(value):
    """value with every mapping read-only and every list a tuple."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: _frozen(v) for key, v in value.items()})
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _plain(value):
    """_frozen's inverse: value as JSON, every mapping a dict and every
    tuple a list."""
    if isinstance(value, Mapping):
        return {key: _plain(v) for key, v in value.items()}
    return list(map(_plain, value)) if isinstance(value, (list, tuple)) else value


def _reject_unknown(what, given, allowed):
    """Raise ConfigError naming the keys of ``given`` not in ``allowed``."""
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _reject_duplicates(what, given, keys=None):
    """Raise ConfigError at the first entry of ``given`` whose key, itself
    unless ``keys`` are given, an earlier entry has: the outputs name each
    cell, statistic and check, so a repeat would overwrite or double it."""
    first = {}
    for key, entry in zip(keys or given, given):
        if key in first:
            alias = "" if first[key] == entry else f", the same as {first[key]!r}"
            raise ConfigError(f"duplicate {what} {entry!r}{alias}")
        first[key] = entry


DEFAULT_S_GRID = SGrid.geometric(0.5, 0.5, 3)


def _k_rule(kr) -> KRule:
    """A KRule built from its JSON object, or from its own fields, which
    take the same checks: a rule that builds writes JSON that loads."""
    if isinstance(kr, KRule):
        kr = dataclasses.asdict(kr)
    if not isinstance(kr, dict):
        raise ConfigError("k_rule must be an object")
    _reject_unknown("k_rule", kr, _field_names(KRule))
    for key in ("coeff", "gamma"):
        if key in kr and not (_is_number(kr[key]) and math.isfinite(_as_float(kr[key]))):
            raise ConfigError(f"k_rule.{key} must be a finite number, got {kr[key]!r}")
    try:
        rule = KRule(**kr)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad k_rule: {exc}") from exc
    # to_dict writes only the fields the rule's kind reads: another would not
    # load back
    for key in ("coeff", "gamma") if rule.kind == "fixed" else ("fixed_k",):
        if getattr(rule, key) != getattr(KRule, key):
            raise ConfigError(f"k_rule.{key} is not read by a {rule.kind} rule: leave it out")
    return rule


def _s_grid(sg) -> SGrid:
    """An SGrid as itself, or built from its JSON object."""
    if isinstance(sg, SGrid):
        return sg
    if not isinstance(sg, dict):
        raise ConfigError("s_grid must be an object")
    _reject_unknown("s_grid", sg, _SGRID_KEYS)
    start, ratio, count = (sg.get(key, default) for key, default
                           in zip(_SGRID_KEYS, DEFAULT_S_GRID.geometry))
    if not (_is_number(start) and _is_number(ratio)):
        raise ConfigError("s_grid.start and s_grid.ratio must be numbers")
    if not _is_int(count):
        raise ConfigError(f"s_grid.count must be an integer, got {count!r}")
    try:
        return SGrid.geometric(_as_float(start), _as_float(ratio), count)
    except ValueError as exc:
        raise ConfigError(f"bad s_grid: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple = ("exponential(1.0)",)
    n_values: tuple = (50000,)
    k_rule: KRule = KRule()
    replicates: int = 2000
    master_seed: int = 0
    statistics: tuple = ("T1", "T2", "T3")
    betas: tuple = (1.0, 2.0)
    s_grid: SGrid = DEFAULT_S_GRID
    tolerances: Mapping = field(default_factory=dict)
    checks: tuple = DEFAULT_CHECKS
    output_dir: str = "."
    dump_samples: bool = False

    # -- validation ----------------------------------------------------

    def __post_init__(self):
        """Bring each field to its normal form, then raise ConfigError
        unless the fields make a runnable experiment."""
        check_tolerances(self.tolerances)
        normal = {
            "models": _typed_list("models", (self.models,) if _is_str(self.models)
                                  else self.models, _is_str, "model descriptors"),
            # each value's range is checked below
            "n_values": _typed_list("n_values", self.n_values, lambda n: True, "integers"),
            "k_rule": _k_rule(self.k_rule),
            "statistics": _typed_list("statistics", self.statistics, _is_str, "statistic ids"),
            "betas": tuple(map(_as_float, _typed_list("betas", self.betas, _is_number,
                                                      "numbers"))),
            "checks": _typed_list("checks", self.checks, _is_str, "check ids"),
            "s_grid": _s_grid(self.s_grid),
            "tolerances": _frozen(self.tolerances),   # checked first
        }
        for name, value in normal.items():
            object.__setattr__(self, name, value)

        if not self.models:
            raise ConfigError("config needs at least one model")
        described = []
        for desc in self.models:
            try:
                described.append(parse_model(desc).describe())
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad model descriptor {desc!r}: {exc}") from exc
        _reject_duplicates("model", self.models, described)
        if not _is_int(self.k_rule.fixed_k):
            raise ConfigError("k_rule.fixed_k must be an integer")
        if not self.n_values:
            raise ConfigError("config needs at least one n value")
        for n in self.n_values:
            if not _is_int(n) or n < 4:
                raise ConfigError(f"n values must be integers >= 4, got {n!r}")
            try:
                k = self.k_rule.resolve(n)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            except OverflowError as exc:   # coeff * n**gamma is not finite
                raise ConfigError(f"k_rule gives no finite k for n={n}: "
                                  f"coeff * n**gamma overflows") from exc
            if k + 1 > _MAX_ORDER_STATS:
                raise ConfigError(f"k_rule gives k={k} for n={n}: a replicate draws at most "
                                  f"{_MAX_ORDER_STATS} order statistics (k + 1)")
            # a replicate's smallest tail mass falls below 2^-53 with chance about n 2^-53
            if n > FAILURE_BUDGET / _TINY:
                raise ConfigError(f"n={n} is over {FAILURE_BUDGET / _TINY:.4g}: past it, more than "
                                  f"{FAILURE_BUDGET:g} of replicates clamp a tail mass at 2^-53")
        _reject_duplicates("n value", self.n_values)
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ConfigError("replicates must be an integer >= 1")
        if self.replicates * len(self.models) > _MAX_ROWS:
            raise ConfigError(f"replicates times the number of models must be at most "
                              f"{_MAX_ROWS} rows per n value")
        if not _is_int(self.master_seed):
            raise ConfigError("master_seed must be an integer")
        if not self.statistics:
            raise ConfigError("configure at least one statistic")
        bad = [s for s in self.statistics if s not in STATISTIC_IDS]
        if bad:
            raise ConfigError(
                f"unknown statistics {bad}; allowed: {list(STATISTIC_IDS)}"
            )
        _reject_duplicates("statistic", self.statistics)
        for b in self.betas:
            if not (b > 0.0 and math.isfinite(b)):
                raise ConfigError(f"betas must be finite and strictly positive, got {b!r}")
        _reject_duplicates("beta", self.betas)
        bad = [c for c in self.checks if c not in DEFAULT_CHECKS]
        if bad:
            raise ConfigError(
                f"unknown checks {bad}; allowed: {list(DEFAULT_CHECKS)}"
            )
        _reject_duplicates("check", self.checks)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not isinstance(self.dump_samples, bool):
            raise ConfigError(f"dump_samples must be true or false, got {self.dump_samples!r}")
        if self.s_grid.geometry is None:
            # a hand-built grid has no (start, ratio, count) to record
            raise ConfigError("s_grid must be built with SGrid.geometric")

    def model_objects(self):
        return [parse_model(desc) for desc in self.models]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """The fields in declaration order, as JSON values."""
        out = {}
        for name in _field_names(self):
            value = getattr(self, name)
            if name == "k_rule":
                kept = ("kind", "coeff", "gamma") if value.kind == "power" else ("kind", "fixed_k")
                value = {key: getattr(value, key) for key in kept}
            elif name == "s_grid":
                value = dict(zip(_SGRID_KEYS, value.geometry))
            out[name] = _plain(value)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """The config of a JSON object: the constructor, after unknown keys
        are refused and the one-model alias ``model`` becomes ``models``."""
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown("config", data, [*_field_names(cls), "model"])
        data = dict(data)
        if "model" in data:
            if "models" in data:
                raise ConfigError("give either 'model' or 'models', not both")
            data["models"] = str(data.pop("model"))
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)
