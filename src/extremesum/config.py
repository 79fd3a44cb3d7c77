"""Experiment configuration: one JSON document, validated before any work.

The config names the models, the n grid, the k rule, replication and
seeding, which statistics to run, and the grids for functional tables.
Scalar fields can be overridden from the command line; everything else is
the file's business.  Parsing is strict: unknown keys are errors, because
a silently ignored "replicate" typo would change results.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .clt import STATISTIC_IDS, KRule, check_tolerances
from .errors import ConfigError
from .functionals import SGrid
from .limits import DEFAULT_CHECKS
from .models import parse_model

_TOP_KEYS = {
    "models", "model", "n_values", "k_rule", "replicates", "master_seed",
    "statistics", "betas", "s_grid", "tolerances", "checks", "output_dir",
    "dump_samples",
}

_KRULE_KEYS = {"kind", "coeff", "gamma", "fixed_k"}
_SGRID_KEYS = {"start", "ratio", "count"}


def _is_int(x) -> bool:
    # bool is an int subclass, but `"replicates": true` is a typo, not 1
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _typed_list(data, key, ok, what):
    """data[key] as a tuple after checking it is a list of ``what``; a
    bare string would iterate as its characters, so it is refused."""
    value = data[key]
    if not isinstance(value, (list, tuple)) or not all(ok(x) for x in value):
        raise ConfigError(f"{key} must be a list of {what}, got {value!r}")
    return tuple(value)


DEFAULT_S_GRID = SGrid.geometric(0.5, 0.5, 3)


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
    tolerances: dict = field(default_factory=dict)
    checks: tuple = DEFAULT_CHECKS
    output_dir: str = "."
    dump_samples: bool = False

    # -- validation ----------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        if not self.models:
            raise ConfigError("config needs at least one model")
        for desc in self.models:
            try:
                parse_model(desc)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad model descriptor {desc!r}: {exc}") from exc
        if not _is_int(self.k_rule.fixed_k):
            raise ConfigError("k_rule.fixed_k must be an integer")
        if not self.n_values:
            raise ConfigError("config needs at least one n value")
        for n in self.n_values:
            if not _is_int(n) or n < 4:
                raise ConfigError(f"n values must be integers >= 4, got {n!r}")
            try:
                self.k_rule.resolve(n)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ConfigError("replicates must be an integer >= 1")
        if not _is_int(self.master_seed):
            raise ConfigError("master_seed must be an integer")
        if not self.statistics:
            raise ConfigError("configure at least one statistic")
        bad = [s for s in self.statistics if s not in STATISTIC_IDS]
        if bad:
            raise ConfigError(
                f"unknown statistics {bad}; allowed: {list(STATISTIC_IDS)}"
            )
        for b in self.betas:
            if not b > 0.0:
                raise ConfigError("betas must be strictly positive")
        bad = [c for c in self.checks if c not in DEFAULT_CHECKS]
        if bad:
            raise ConfigError(
                f"unknown checks {bad}; allowed: {list(DEFAULT_CHECKS)}"
            )
        if self.s_grid.geometry is None:
            # a hand-built grid has no (start, ratio, count) to record
            raise ConfigError("s_grid must be built with SGrid.geometric")
        check_tolerances(self.tolerances)
        return self

    def model_objects(self):
        return [parse_model(desc) for desc in self.models]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.k_rule.kind == "power":
            krule = {
                "kind": "power",
                "coeff": self.k_rule.coeff,
                "gamma": self.k_rule.gamma,
            }
        else:
            krule = {"kind": "fixed", "fixed_k": self.k_rule.fixed_k}
        return {
            "models": list(self.models),
            "n_values": list(self.n_values),
            "k_rule": krule,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "statistics": list(self.statistics),
            "betas": [float(b) for b in self.betas],
            "s_grid": dict(zip(("start", "ratio", "count"), self.s_grid.geometry)),
            "tolerances": self.tolerances,
            "checks": list(self.checks),
            "output_dir": self.output_dir,
            "dump_samples": self.dump_samples,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "model" in data and "models" in data:
            raise ConfigError("give either 'model' or 'models', not both")

        kwargs = {}
        if "model" in data:
            kwargs["models"] = (str(data["model"]),)
        if "models" in data:
            if isinstance(data["models"], str):
                kwargs["models"] = (data["models"],)
            else:
                kwargs["models"] = _typed_list(data, "models", lambda m: isinstance(m, str),
                                               "model descriptors")
        if "n_values" in data:
            # each value's range is validate()'s business
            kwargs["n_values"] = _typed_list(data, "n_values", lambda n: True, "integers")
        if "k_rule" in data:
            kr = data["k_rule"]
            if not isinstance(kr, dict):
                raise ConfigError("k_rule must be an object")
            unknown = set(kr) - _KRULE_KEYS
            if unknown:
                raise ConfigError(f"unknown k_rule keys: {sorted(unknown)}")
            try:
                kwargs["k_rule"] = KRule(**kr)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad k_rule: {exc}") from exc
        for key in ("replicates", "master_seed", "output_dir", "dump_samples"):
            if key in data:
                kwargs[key] = data[key]
        if "statistics" in data:
            kwargs["statistics"] = _typed_list(data, "statistics", lambda x: isinstance(x, str),
                                               "statistic ids")
        if "betas" in data:
            kwargs["betas"] = tuple(float(b) for b in _typed_list(data, "betas", _is_number,
                                                                  "numbers"))
        if "checks" in data:
            kwargs["checks"] = _typed_list(data, "checks", lambda x: isinstance(x, str),
                                           "check ids")
        if "tolerances" in data:
            kwargs["tolerances"] = data["tolerances"]
        if "s_grid" in data:
            sg = data["s_grid"]
            if not isinstance(sg, dict):
                raise ConfigError("s_grid must be an object")
            unknown = set(sg) - _SGRID_KEYS
            if unknown:
                raise ConfigError(f"unknown s_grid keys: {sorted(unknown)}")
            start, ratio, count = sg.get("start", 0.5), sg.get("ratio", 0.5), sg.get("count", 3)
            if not (_is_number(start) and _is_number(ratio)):
                raise ConfigError("s_grid.start and s_grid.ratio must be numbers")
            if not _is_int(count):
                raise ConfigError(f"s_grid.count must be an integer, got {count!r}")
            try:
                kwargs["s_grid"] = SGrid.geometric(float(start), float(ratio), count)
            except ValueError as exc:
                raise ConfigError(f"bad s_grid: {exc}") from exc
        try:
            cfg = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cfg.validate()

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

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Replace scalar fields (CLI flags) and re-validate."""
        clean = {k: v for k, v in overrides.items() if v is not None}
        if not clean:
            return self
        try:
            cfg = dataclasses.replace(self, **clean)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg.validate()
