"""CLI subcommands, exit codes, manifests, config round trips."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremesum import (ConfigError, ExperimentConfig, KRule, SGrid,
                        build_functional_table)
from extremesum.cli import _build_parser, cmd_functionals, cmd_lemmas, cmd_simulate, main
from extremesum.errors import UnsupportedModelError
from extremesum import cli, reports
from extremesum.reports import (
    atomic_write_text,
    functional_table_csv,
    sha256_file,
    verify_manifest,
)


def _write_config(path, **overrides):
    doc = {
        "models": ["exponential(1.0)"],
        "n_values": [2000],
        "replicates": 100,
        "master_seed": 11,
        "statistics": ["T1", "T2", "T3"],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


# Verdict gates are calibrated for 2000 replicates; the file-plumbing tests
# below run tiny cells and loosen them so outcomes stay deterministic.
_LOOSE = {
    s: {"ks": 1.0, "var": [0.0, 99.0], "mean": [-99.0, 99.0]}
    for s in ("T1", "T2", "T3")
}


# -- config parsing -----------------------------------------------------


def test_help_lists_the_commands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert re.findall(r"^    (\w+) +(\S.*)$", capsys.readouterr().out, re.M) == [
        ("functionals", "write tail-functional tables"),
        ("lemmas", "run the limit-check suite"),
        ("simulate", "run replicated experiments"),
        ("report", "merge manifests into a summary"),
    ]


@pytest.mark.parametrize("command, func", [
    ("functionals", cmd_functionals), ("lemmas", cmd_lemmas), ("simulate", cmd_simulate),
])
def test_config_commands_take_the_common_options(command, func):
    args = _build_parser().parse_args([
        command, "--config", "c.json", "--output-dir", "out", "--threads", "2",
        "--master-seed", "5", "--replicates", "9"])
    assert (args.func, args.config, args.output_dir, args.threads, args.master_seed,
            args.replicates) == (func, "c.json", "out", 2, 5, 9)


def test_config_round_trip_is_idempotent():
    cfg = ExperimentConfig(
        models=("weibull(2.0)", "gumbel"),
        n_values=(5000, 50000),
        k_rule=KRule(kind="fixed", fixed_k=40),
        replicates=500,
        master_seed=9,
        statistics=("T1", "MAX"),
        betas=(0.5, 2.0),
        s_grid=SGrid.geometric(0.25, 0.1, 4),
        tolerances={"T1": {"ks": 0.1}},
        checks=("domain_ratio",),
    )
    d1 = cfg.to_dict()
    cfg2 = ExperimentConfig.from_dict(d1)
    d2 = cfg2.to_dict()
    assert d1 == d2
    assert ExperimentConfig.from_json(cfg2.to_json()).to_json() == cfg2.to_json()


def test_config_default_round_trip():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["power", "fixed"]),
       coeff=st.one_of(st.just(1.0), st.just(1), st.floats(-1, 4)),
       gamma=st.one_of(st.just(0.4), st.floats(-0.5, 1.5)),
       fixed_k=st.one_of(st.just(0), st.integers(-2, 60)))
def test_a_config_that_builds_survives_its_json_round_trip(kind, coeff, gamma, fixed_k):
    """Each KRule field takes its default or another value; a config that
    builds, whatever it holds, loads back equal from its JSON."""
    k_rule = {"kind": kind, "coeff": coeff, "gamma": gamma, "fixed_k": fixed_k}
    try:
        cfg = ExperimentConfig(k_rule=k_rule, n_values=(100, 5000))
    except ConfigError:
        return
    assert cfg.k_rule == KRule(**k_rule)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("k_rule, key", [
    ({"kind": "fixed", "fixed_k": 3, "coeff": 2.0}, "coeff"),
    ({"kind": "fixed", "fixed_k": 3, "gamma": 0.7}, "gamma"),
    ({"kind": "power", "fixed_k": 5}, "fixed_k"),
], ids=["fixed-coeff", "fixed-gamma", "power-fixed_k"])
def test_a_k_rule_field_its_kind_does_not_read_is_refused(tmp_path, capsys, k_rule, key):
    """to_dict writes only the fields a rule's kind reads, so a config with
    another would load back from its JSON as a different config."""
    cfg = _write_config(tmp_path / "cfg.json", k_rule=k_rule)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: k_rule.{key} is not read by a {k_rule['kind']} rule: "
                   f"leave it out\n")
    assert not out.exists()
    _assert_every_build_raises(cfg, err)
    with pytest.raises(ConfigError, match=re.escape(err[len("config error: "):-1])):
        ExperimentConfig(k_rule=KRule(**k_rule))


def test_config_model_alias_and_conflict():
    cfg = ExperimentConfig.from_dict({"model": "gumbel"})
    assert cfg.models == ("gumbel",)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": "gumbel", "models": ["gumbel"]})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="replicate"):
        ExperimentConfig.from_dict({"replicate": 10})
    with pytest.raises(ConfigError, match="k_rule"):
        ExperimentConfig.from_dict({"k_rule": {"kind": "power", "alpha": 2}})
    with pytest.raises(ConfigError, match="s_grid"):
        ExperimentConfig.from_dict({"s_grid": {"start": 0.5, "step": 0.1}})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(models=())
    with pytest.raises(ConfigError):
        ExperimentConfig(models=("nosuchmodel(1)",))
    with pytest.raises(ConfigError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(statistics=("T9",))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_values=(3,))
    with pytest.raises(ConfigError):
        ExperimentConfig(checks=("bogus",))


@pytest.mark.parametrize("build, named", [
    (lambda: ExperimentConfig(models=("nosuch(1)",)), "bad model descriptor 'nosuch(1)'"),
    (lambda: dataclasses.replace(ExperimentConfig(), replicates=0),
     "replicates must be an integer >= 1"),
    (lambda: ExperimentConfig(tolerances={"T2": {"sd_factor": 2}}),
     "inapplicable tolerance key T2.sd_factor"),
    # a built KRule takes its JSON object's checks, so its to_json() loads
    (lambda: ExperimentConfig(k_rule=KRule(coeff=True)),
     "k_rule.coeff must be a finite number, got True"),
    (lambda: ExperimentConfig(k_rule=KRule(kind="fixed", fixed_k=3, gamma=True)),
     "k_rule.gamma must be a finite number, got True"),
    (lambda: dataclasses.replace(ExperimentConfig(), k_rule=KRule(coeff=True)),
     "k_rule.coeff must be a finite number, got True"),
], ids=["constructor", "replace", "tolerances", "k_rule-coeff-bool", "k_rule-gamma-bool",
        "replace-k_rule-coeff-bool"])
def test_a_bad_config_cannot_be_built(build, named):
    """Every way of building a config checks it: no config object exists
    for a bad field, so nothing downstream checks one again."""
    with pytest.raises(ConfigError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("field, name, normal", [
    ({"models": "exponential(1)"}, "models", ("exponential(1)",)),
    ({"n_values": [5000]}, "n_values", (5000,)),
    ({"betas": [1, 2]}, "betas", (1.0, 2.0)),
    ({"k_rule": {"kind": "power"}}, "k_rule", KRule()),
    ({"s_grid": {"start": 0.5}}, "s_grid", SGrid.geometric(0.5, 0.5, 3)),
    ({"tolerances": {"T1": {"var": [1, 3]}}}, "tolerances",
     MappingProxyType({"T1": MappingProxyType({"var": (1, 3)})})),
], ids=["models-str", "n_values-list", "betas-int", "k_rule-object", "s_grid-object",
        "tolerances-list"])
def test_the_constructor_takes_the_json_forms(field, name, normal):
    """The constructor brings a field's JSON form to the form from_dict
    gives, and a built config's fields build it again unchanged."""
    cfg = ExperimentConfig(**field)
    assert repr(getattr(cfg, name)) == repr(normal)
    assert cfg == ExperimentConfig.from_dict(field) == dataclasses.replace(cfg)
    assert cfg.to_dict() == dataclasses.replace(cfg).to_dict()


def test_a_built_config_cannot_change():
    given = {"T1": {"mean": [-1, 1], "ks": 1}, "BDH": {"sd_factor": 2.5}}
    cfg = ExperimentConfig(tolerances=given)
    with pytest.raises(TypeError):
        cfg.tolerances["T2"] = {"sd_factor": 2}
    with pytest.raises(TypeError):
        cfg.tolerances["T1"]["mean"] = (0.0, 0.0)
    given["T1"]["ks"] = 0.5   # the config keeps a copy, not the caller's dict
    assert cfg.tolerances["T1"] == {"mean": (-1, 1), "ks": 1}
    again = dataclasses.replace(cfg, replicates=7)
    assert again.tolerances == cfg.tolerances
    plain = again.to_dict()["tolerances"]
    assert plain == {"T1": {"mean": [-1, 1], "ks": 1}, "BDH": {"sd_factor": 2.5}}
    assert type(plain) is dict and type(plain["T1"]) is dict


def test_readme_config_examples_build():
    """README's config example and its inline tolerances example are
    configs that build."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    inline = re.findall(r'`"tolerances"` overrides .*? as\s+in\s+`(\{.*?\})`', text, re.S)
    assert len(blocks) == 1 and len(inline) == 1
    for doc in blocks + [f'{{"tolerances": {inline[0]}}}']:
        ExperimentConfig.from_json(doc)


# -- exit codes ---------------------------------------------------------


@pytest.mark.parametrize("make, named", [
    (lambda path: path.write_text("{not json"), "config is not valid JSON: "),
    (lambda path: path.write_text("[1, 2]"), "config root must be a JSON object"),
    (lambda path: None, "cannot read config {path}: [Errno 2] No such file or directory"),
    (lambda path: path.mkdir(), "cannot read config {path}: [Errno 21] Is a directory"),
], ids=["malformed-json", "root-not-object", "missing", "directory"])
def test_exit_config_on_unusable_config_file(tmp_path, capsys, make, named):
    path = tmp_path / "cfg.json"
    make(path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + named.format(path=path))
    assert err.count("\n") == 1
    assert not out.exists()


def test_exit_config_on_unknown_model(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", models=["zeta(3)"])
    assert main(["simulate", "--config", cfg]) == 2
    assert "zeta" in capsys.readouterr().err


@pytest.mark.parametrize("command, model", [
    ("lemmas", "exponential(inf)"),
    ("simulate", "gumbel(nan,1)"),
    ("simulate", "gumbel(inf,1)"),
    ("functionals", "gamma(inf)"),
])
def test_exit_config_on_nonfinite_model_parameter(tmp_path, capsys, command, model):
    # inf and nan pass the constructors' `> 0` guards; the descriptor refuses them
    cfg = _write_config(tmp_path / "cfg.json", models=[model])
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "must be finite numbers" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command, field, named", [
    ("lemmas", "models", "config needs at least one model"),
    ("simulate", "n_values", "config needs at least one n value"),
    ("simulate", "statistics", "configure at least one statistic"),
], ids=["models", "n_values", "statistics"])
def test_exit_config_on_empty_list(tmp_path, capsys, command, field, named):
    cfg = _write_config(tmp_path / "cfg.json", **{field: []})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not out.exists()


def test_exit_config_on_bad_override(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", cfg, "--replicates", "0"]) == 2


def test_exit_config_on_malformed_tolerances(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", tolerances={"T1": {"mean": 5}})
    assert main(["simulate", "--config", cfg]) == 2
    assert "T1.mean" in capsys.readouterr().err


def test_exit_config_on_bool_replicates(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", replicates=True)
    assert main(["simulate", "--config", cfg]) == 2
    assert "replicates" in capsys.readouterr().err


def test_config_tolerance_shape_errors():
    for tol, match in (
        ("loose", "must be an object"),
        ({"T9": {"ks": 0.1}}, "unknown statistic"),
        ({"T1": 0.1}, "must be an object"),
        ({"T1": {"median": 0.1}}, "unknown tolerance key"),
        ({"T1": {"var": [1.0]}}, "pair"),
        ({"T1": {"var": [1.0, "2"]}}, "pair"),
        ({"T1": {"ks": [0.1, 0.2]}}, "a number"),
        ({"BDH": {"sd_factor": True}}, "a number"),
    ):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(tolerances=tol)
    ExperimentConfig(tolerances={"BDH": {"mean": (0.5, 1.5), "sd_factor": 3}})


@pytest.mark.parametrize("tol, allowed", [
    ({"T1": {"sd_factor": 1.0000001}}, "['mean', 'var', 'ks']"),
    ({"MAX": {"sd_factor": 2.0}}, "['mean', 'var', 'ks']"),
    ({"BDH": {"ks": 0.0}}, "['mean', 'var', 'sd_factor']"),
], ids=["T1.sd_factor", "MAX.sd_factor", "BDH.ks"])
def test_exit_config_on_inapplicable_tolerance_key(tmp_path, capsys, tol, allowed):
    # sd_factor means something for BDH only, ks only where there is a target law
    cfg = _write_config(tmp_path / "cfg.json", statistics=["T1", "MAX", "BDH"],
                        tolerances=tol)
    assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    ((stat, bounds),) = tol.items()
    (key,) = bounds
    err = capsys.readouterr().err
    assert f"inapplicable tolerance key {stat}.{key}" in err
    assert f"allowed for {stat}: {allowed}" in err


def _simulate_exit(tmp_path, tolerances):
    cfg = _write_config(tmp_path / "cfg.json", statistics=["T1", "T2", "BDH"],
                        tolerances=tolerances)
    return main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "out")])


def test_exit_config_on_empty_range(tmp_path, capsys):
    for tol in ({"T2": {"var": [2, 1]}}, {"BDH": {"mean": [1.1, 0.9]}}):
        assert _simulate_exit(tmp_path, tol) == 2
        assert "lo <= hi" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="lo <= hi"):
        ExperimentConfig(tolerances={"T1": {"mean": (0.0, math.nan)}})
    ExperimentConfig(tolerances={"T1": {"mean": (0.5, 0.5)}})


def test_exit_config_on_ks_outside_unit_interval(tmp_path, capsys):
    for ks in (-0.01, 1.5):
        assert _simulate_exit(tmp_path, {"T1": {"ks": ks}}) == 2
        assert "T1.ks must be a number in [0, 1]" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
        ExperimentConfig(tolerances={"T1": {"ks": math.nan}})
    for ks in (0, 1):
        ExperimentConfig(tolerances={"T1": {"ks": ks}})


def test_exit_config_on_sd_factor_below_one(tmp_path, capsys):
    # below 1 the band [ref / f, ref * f] is empty; 0 used to skip the bound
    for factor in (0, 0.5, 0.999):
        assert _simulate_exit(tmp_path, {"BDH": {"sd_factor": factor}}) == 2
        assert "BDH.sd_factor must be a number >= 1" in capsys.readouterr().err
    ExperimentConfig(tolerances={"BDH": {"sd_factor": 1}})


def test_config_rejects_s_grid_it_cannot_record():
    # a hand-built grid would serialize as a geometric one it is not
    with pytest.raises(ConfigError, match="s_grid"):
        ExperimentConfig(s_grid=SGrid((0.5, 0.1, 0.05)))
    cfg = ExperimentConfig(s_grid=SGrid.geometric(0.5, 0.2, 3))
    assert ExperimentConfig.from_dict(cfg.to_dict()).s_grid.points == cfg.s_grid.points


def _assert_every_build_raises(cfg_path, err):
    """The constructor, from_dict and dataclasses.replace each raise, on the
    JSON object of the config file at ``cfg_path``, the ConfigError the CLI
    printed as ``err``: a config has one build path."""
    data = json.loads(Path(cfg_path).read_text())
    for build in (lambda d: ExperimentConfig(**d), ExperimentConfig.from_dict,
                  lambda d: dataclasses.replace(ExperimentConfig(), **d)):
        with pytest.raises(ConfigError) as exc:
            build(data)
        assert err == f"config error: {exc.value}\n"


@pytest.mark.parametrize("field, named", [
    ({"n_values": 5}, "n_values"),
    ({"models": 5}, "models"),
    ({"betas": ["x"]}, "betas"),
    ({"betas": [None]}, "betas"),
    ({"betas": [True]}, "betas must be a list of numbers, got [True]"),
    ({"s_grid": {"start": [1]}}, "s_grid.start"),
    ({"s_grid": {"count": 2.7}}, "s_grid.count"),
    ({"s_grid": [0.5]}, "s_grid must be an object"),
    ({"k_rule": "power"}, "k_rule must be an object"),
    ({"k_rule": {"kind": "fixed", "fixed_k": "3"}}, "bad k_rule: "),
    ({"statistics": "T1"}, "statistics must be a list"),
    ({"checks": "domain_ratio"}, "checks must be a list of check ids"),
    ({"tolerances": ["T1"]}, "tolerances must be an object"),
    ({"output_dir": 5}, "output_dir must be a string"),
    ({"dump_samples": "yes"}, "dump_samples must be true or false"),
    ({"dump_samples": 1}, "dump_samples must be true or false"),
    ({"dump_samples": None}, "dump_samples must be true or false"),
], ids=["n_values", "models", "betas-str", "betas-null", "betas-bool", "s_grid-start",
        "s_grid-count", "s_grid-list", "k_rule-str", "k_rule-fixed_k-str", "statistics-str",
        "checks-str", "tolerances-list", "output_dir-int", "dump_samples-str",
        "dump_samples-int", "dump_samples-null"])
def test_exit_config_on_wrong_field_type(tmp_path, capsys, field, named):
    """A field of the wrong type is a config error (exit 2) named in the
    message, never a traceback or a silently converted value, and the
    constructor and dataclasses.replace raise it too."""
    cfg = _write_config(tmp_path / "cfg.json", **field)
    assert main(["lemmas", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert "['T', '1']" not in err
    _assert_every_build_raises(cfg, err)


@pytest.mark.parametrize("command, field, named", [
    ("simulate", {"n_values": [50000], "k_rule": {"kind": "power", "coeff": 1e308}},
     "k_rule gives no finite k for n=50000"),
    ("simulate", {"n_values": [50000], "k_rule": {"kind": "power", "coeff": math.inf}},
     "k_rule.coeff must be a finite number, got inf"),
    ("simulate", {"k_rule": {"kind": "power", "coeff": "2"}},
     "k_rule.coeff must be a finite number, got '2'"),
    ("simulate", {"k_rule": {"kind": "power", "gamma": "0.4"}},
     "k_rule.gamma must be a finite number, got '0.4'"),
    ("functionals", {"models": ["exponential(1)", "normal"], "betas": [math.inf]},
     "betas must be finite and strictly positive, got inf"),
    ("lemmas", {"models": ["exponential(1)", "normal"], "betas": [1.0, math.inf]},
     "betas must be finite and strictly positive, got inf"),
    # JSON integers beyond the float range
    ("simulate", {"k_rule": {"kind": "power", "coeff": 10**400}},
     "k_rule.coeff must be a finite number, got 1000"),
    ("simulate", {"k_rule": {"kind": "power", "gamma": -10**400}},
     "k_rule.gamma must be a finite number, got -1000"),
    ("lemmas", {"betas": [1.0, 10**400]}, "betas must be finite and strictly positive, got inf"),
    ("lemmas", {"s_grid": {"start": 10**400}}, "bad s_grid: grid points must lie in (0, 1/2]"),
    # sizes that would hang or exhaust memory, refused before any point or row
    ("simulate", {"s_grid": {"count": 10**9}}, "bad s_grid: count must be at most 10000"),
    ("functionals", {"s_grid": {"count": 10**400}}, "bad s_grid: count must be at most 10000"),
    ("simulate", {"replicates": 10**12},
     "replicates times the number of models must be at most 1048576 rows per n value"),
    ("simulate", {"n_values": [10**21]},
     f"k_rule gives k=251188644 for n={10**21}: a replicate draws at most 1048576"),
    ("simulate", {"n_values": [100], "k_rule": {"kind": "fixed", "fixed_k": 100}},
     "k rule gives k=100 outside [1, 99] for n=100"),
    # n past which more than FAILURE_BUDGET of the replicates clamp at 2^-53
    ("simulate", {"n_values": [10**400], "k_rule": {"kind": "fixed", "fixed_k": 76}},
     f"n={10**400} is over 9.007e+12: past it"),
    ("simulate", {"n_values": [10**17], "k_rule": {"kind": "fixed", "fixed_k": 76},
                  "replicates": 200}, f"n={10**17} is over 9.007e+12: past it"),
], ids=["coeff-overflow", "coeff-inf", "coeff-str", "gamma-str", "betas-inf-functionals",
        "betas-inf-lemmas", "coeff-huge-int", "gamma-huge-int", "betas-huge-int",
        "s-grid-huge-int", "s-grid-count-1e9", "s-grid-count-huge-int", "replicates-1e12",
        "k-over-cap", "fixed-k-not-below-n", "n-huge-int", "n-past-clamp"])
def test_exit_config_on_bad_k_rule_or_beta(tmp_path, capsys, command, field, named):
    """A k rule whose k overflows, is not a number, is not below n or
    passes the order statistics a replicate may draw, an infinite beta, an
    integer too large for a float, an s_grid.count or a models x
    replicates product over its cap, and an n the sampler cannot draw
    faithfully are config errors (exit 2) that name the key, and the
    constructor and dataclasses.replace raise them too."""
    cfg = _write_config(tmp_path / "cfg.json", **field)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()
    _assert_every_build_raises(cfg, err)


def test_validate_caps_order_statistics_and_rows():
    """k + 1 order statistics per replicate and models x replicates per n
    are capped at 2^20 each, and n at about 9.0e12, each cap itself
    allowed."""
    n = 2**30
    ExperimentConfig(n_values=(n,), k_rule=KRule(kind="fixed", fixed_k=2**20 - 1))
    with pytest.raises(ConfigError, match="k_rule gives k=1048576 for n=1073741824"):
        ExperimentConfig(n_values=(n,), k_rule=KRule(kind="fixed", fixed_k=2**20))
    two = ("exponential(1.0)", "normal")
    ExperimentConfig(replicates=2**20)
    ExperimentConfig(models=two, replicates=2**19)
    # n is capped at FAILURE_BUDGET / 2^-53 = 9007199254740.992
    ExperimentConfig(n_values=(9_007_199_254_740,), k_rule=KRule(kind="fixed", fixed_k=76))
    with pytest.raises(ConfigError, match=r"n=9007199254741 is over 9\.007e\+12"):
        ExperimentConfig(n_values=(9_007_199_254_741,), k_rule=KRule(kind="fixed", fixed_k=76))
    for models, replicates in ((("exponential(1.0)",), 2**20 + 1), (two, 2**19 + 1)):
        with pytest.raises(ConfigError, match="replicates times the number of models"):
            ExperimentConfig(models=models, replicates=replicates)


def test_validate_rejects_overflowing_k_rule_and_infinite_beta():
    with pytest.raises(ConfigError, match="k_rule.coeff must be a finite number, got inf"):
        ExperimentConfig(k_rule=KRule(coeff=math.inf))
    with pytest.raises(ConfigError, match="k_rule gives no finite k"):
        ExperimentConfig(k_rule=KRule(coeff=1e308))
    with pytest.raises(ConfigError, match="betas must be finite and strictly positive"):
        ExperimentConfig(betas=(2.0, math.inf))


@pytest.mark.parametrize("command, field, named", [
    ("simulate", {"models": ["exponential", "exponential(1.0)"], "n_values": [5000]},
     "duplicate model 'exponential(1.0)', the same as 'exponential'"),
    ("simulate", {"n_values": [5000, 50000, 5000]}, "duplicate n value 5000"),
    ("simulate", {"statistics": ["T1", "T1", "MAX"]}, "duplicate statistic 'T1'"),
    ("lemmas", {"checks": ["spacing_log_limit", "spacing_log_limit"]},
     "duplicate check 'spacing_log_limit'"),
    ("lemmas", {"betas": [2, 2.0], "checks": ["scale_beta_limit"]}, "duplicate beta 2.0"),
], ids=["models", "n_values", "statistics", "checks", "betas"])
def test_exit_config_on_duplicate_entry(tmp_path, capsys, command, field, named):
    """A repeated model (by its description), n value, statistic, beta
    (by its value) or check is a config error: the outputs key their cells,
    rows, columns and sample files by these names, so a repeat would
    overwrite or double them."""
    cfg = _write_config(tmp_path / "cfg.json", replicates=20, dump_samples=True,
                        tolerances={"T1": {"ks": 1.0}}, **field)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_bool_integers():
    for kwargs in (
        {"replicates": True},
        {"master_seed": False},
        {"n_values": (True,)},
        {"k_rule": KRule(kind="fixed", fixed_k=True)},
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


def test_exit_numeric_on_divergent_model(tmp_path, capsys):
    # pareto(1) has no finite tail scale: the experiment cannot start
    cfg = _write_config(
        tmp_path / "cfg.json", models=["pareto(1.0)"], n_values=[100],
        replicates=10,
    )
    assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path)]) == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("statistics, named", [
    (["BDH"], None),
    (["MAX"], "c(0.0002,1)"),
    (["T2"], "c(0.0062,1)"),
    (["T1", "T2", "T3"], "c(0.0062,1)"),
], ids=["BDH", "MAX", "T2", "T1-T3"])
def test_a_run_needs_only_the_functionals_its_statistics_read(tmp_path, capsys, statistics,
                                                             named):
    """pareto(1) has no finite c.  BDH, a function of uniform order
    statistics, reads no functional and runs to its verdict; MAX fails on
    c(1/n), its only diverging functional, and T1-T3 on c(k/n)."""
    cfg = _write_config(tmp_path / "cfg.json", models=["pareto(1)"], n_values=[5000],
                        replicates=50, statistics=statistics)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--output-dir", str(out)])
    err = capsys.readouterr().err
    if named is None:
        assert (code, err) == (0, "")
        [row] = csv.DictReader((out / "report.csv").read_text().splitlines())
        assert (row["model"], row["stat"], row["verdict"]) == ("pareto(1)", "BDH", "pass")
    else:
        assert (code, err) == (3, "numeric error: functionals failed for pareto(1) at n=5000: "
                               f"{named} diverges for pareto(1)\n")


def test_exit_numeric_on_a_package_error(tmp_path, capsys, monkeypatch):
    """An ExtremeSumError that is neither a config nor a numeric error
    exits 3 with one "error:" line."""
    def unsupported(*args, **kwargs):
        raise UnsupportedModelError("normal has no analytic tail rate")

    monkeypatch.setattr(cli, "run_limit_suite", unsupported)
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["lemmas", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: normal has no analytic tail rate\n"


@pytest.mark.parametrize("command, model, code", [
    ("functionals", "exponential(1e300)", 0),   # rate**2 overflows in sigma2
    ("lemmas", "exponential(1e300)", 4),
    ("functionals", "exponential(1e-300)", 0),  # sigma2 divides by rate**2 = 0
    ("lemmas", "exponential(1e-300)", 4),
    ("lemmas", "gumbel(0,1e-300)", 4),          # the limit ratios divide by c = 0
    ("lemmas", "pareto(1e300)", 4),
    ("lemmas", "weibull(1e300)", 4),
    ("lemmas", "gamma(1e300)", 4),
])
@pytest.mark.filterwarnings("ignore:domain_check.*excluded:UserWarning")
def test_arithmetic_error_flags_without_a_traceback(tmp_path, capsys, command, model, code):
    cfg = _write_config(tmp_path / "cfg.json", models=[model])
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if command == "functionals":   # the entries are flagged, the table written
        assert ": sigma2 at s=" in captured.err


@pytest.mark.parametrize("model", ["gamma(1e-300)", "weibull(1e-300)", "pareto(1e-300)"])
@pytest.mark.parametrize("command, code", [("functionals", 0), ("lemmas", 4)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:domain_check.*excluded:UserWarning")
def test_tiny_parameters_run_without_a_runtime_warning(tmp_path, capsys, command, code, model):
    """A shape or index near 0 makes an inf quantile or density, and then
    inf - inf: IEEE values the run flags, with no RuntimeWarning."""
    cfg = _write_config(tmp_path / "cfg.json", models=[model])
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_exit_check_on_verdict_failure(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        statistics=["T1"],
        tolerances={"T1": {"ks": 0.0001}},
    )
    rc = main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "verdict failure" in err
    assert "exponential(1) n=2000 T1" in err
    # the failing run still writes its full report set
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_exit_check_on_lemma_failure(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json", models=["pareto(2.0)"], checks=["domain_ratio"]
    )
    rc = main(["lemmas", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "1 of 1 checks failed" in err
    assert "domain_ratio" in err


def test_exit_config_on_missing_manifest(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nowhere" / "manifest.json")])
    assert rc == 2
    assert "cannot read manifest" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command, via", [
    ("simulate", "flag"), ("functionals", "flag"), ("lemmas", "flag"), ("report", "flag"),
    ("simulate", "config"), ("lemmas", "config")])
def test_exit_config_on_unusable_output_dir(tmp_path, capsys, command, via, below):
    """An output directory that is a file, or lies below one, exits 2 with
    a message that names it, whether the flag or the config sets it."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = str(taken / "sub" if below else taken)
    if command == "report":
        tables = tmp_path / "tables"
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["functionals", "--config", cfg, "--output-dir", str(tables)]) == 0
        argv = ["report", str(tables / "manifest.json"), "--output-dir", out]
    elif via == "flag":
        argv = [command, "--config", _write_config(tmp_path / "cfg.json"), "--output-dir", out]
    else:
        argv = [command, "--config", _write_config(tmp_path / "cfg.json", output_dir=out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out!r}: ")
    assert "Traceback" not in err


# -- outputs and manifests ----------------------------------------------


def test_functionals_outputs_and_manifest(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json", models=["exponential(1.0)", "weibull(2.0)"]
    )
    out = tmp_path / "tables"
    assert main(["functionals", "--config", cfg, "--output-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "functionals_exponential_1.csv") in printed
    assert str(out / "functionals_weibull_2.csv") in printed

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        "functionals_exponential_1.csv",
        "functionals_weibull_2.csv",
    }
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest
    assert verify_manifest(out / "manifest.json") == []
    assert manifest["config"]["models"] == ["exponential(1.0)", "weibull(2.0)"]

    body = (out / "functionals_exponential_1.csv").read_text()
    header = body.splitlines()[0]
    assert header.startswith("s,c,")
    first = body.splitlines()[1].split(",")
    assert float(first[1]) == 1.0


def test_functionals_pareto_writes_warning(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", models=["pareto(2.0)"])
    out = tmp_path / "tables"
    assert main(["functionals", "--config", cfg, "--output-dir", str(out)]) == 0
    text = (out / "functionals_pareto_2.csv").read_text()
    assert text.startswith("# warning: pareto(2)")


def test_functionals_prints_flagged_entries(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", models=["pareto(2.0)"],
                        s_grid={"start": 0.1, "ratio": 0.1, "count": 8})
    out = tmp_path / "tables"
    assert main(["functionals", "--config", cfg, "--output-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [str(out / "functionals_pareto_2.csv")]
    flags = captured.err.splitlines()
    assert len(flags) == 8
    assert all(line.startswith("pareto(2): sigma2 at s=") for line in flags)
    assert flags[0] == "pareto(2): sigma2 at s=0.1: sigma2(0.1): integral is not finite"
    # the notes go to stderr only: the file is the table's own CSV
    parsed = ExperimentConfig.from_dict(json.loads(Path(cfg).read_text()))
    table = build_functional_table(parsed.model_objects()[0], parsed.s_grid,
                                   betas=parsed.betas)
    assert (out / "functionals_pareto_2.csv").read_text() == functional_table_csv(table)


def test_lemmas_empty_checks_header_only(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", checks=[])
    out = tmp_path / "out"
    assert main(["lemmas", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = (out / "limit_checks.csv").read_text().splitlines()
    assert lines == [
        "check_id,model,params,s,value,target,tolerance,error,verdict"
    ]


def test_simulate_writes_reports_and_passes(tmp_path, capsys):
    # Full-size cell: the Gaussian verdicts only clear the default gates
    # once n is large and the replicate count matches their calibration.
    cfg = _write_config(
        tmp_path / "cfg.json",
        n_values=[50000],
        replicates=2000,
        master_seed=8,
    )
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg, "--output-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["verdict"] == "pass"
    assert doc["cells"][0]["statistics"]["T1"]["verdict"] == "pass"
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("model,n,k,stat,")
    assert len(csv_lines) == 1 + 3          # T1, T2, T3
    assert verify_manifest(out / "manifest.json") == []


def test_simulate_dump_samples(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json", replicates=50, dump_samples=True,
        statistics=["T1", "BDH"], tolerances=_LOOSE,
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    sample_file = out / "samples_exponential_1_2000.csv"
    assert sample_file.exists()
    lines = sample_file.read_text().splitlines()
    assert lines[0] == "T1,BDH"
    assert len(lines) == 51
    manifest = json.loads((out / "manifest.json").read_text())
    assert "samples_exponential_1_2000.csv" in manifest["outputs"]


def test_report_merges_and_lists_failures(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        statistics=["T1"],
        tolerances={"T1": {"ks": 0.0001}},
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 4
    rc = main(
        ["report", str(out / "manifest.json"), "--output-dir", str(tmp_path)]
    )
    assert rc == 0
    summary = (tmp_path / "summary.md").read_text()
    assert "## Verdict: FAILURES" in summary
    assert "exponential(1) n=2000 T1" in summary
    assert "ks" in summary


def test_report_all_pass_banner(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", tolerances=_LOOSE)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    assert main(["report", str(out / "manifest.json"), "--output-dir", str(tmp_path)]) == 0
    assert "## Verdict: ALL PASS" in (tmp_path / "summary.md").read_text()


def test_report_detects_corruption(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", replicates=50, tolerances=_LOOSE)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    victim = out / "report.csv"
    victim.write_text(victim.read_text() + "tampered\n")
    rc = main(["report", str(out / "manifest.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "checksum mismatch" in err
    assert "report.csv" in err


def _lemmas_run(tmp_path):
    """The limit suite's outputs for a passing and a failing model."""
    cfg = _write_config(tmp_path / "cfg.json", models=["exponential(1)", "pareto(2)"])
    out = tmp_path / "run"
    assert main(["lemmas", "--config", cfg, "--output-dir", str(out)]) == 4
    return out


def test_report_summarizes_limit_checks(tmp_path):
    out = _lemmas_run(tmp_path)
    with open(out / "limit_checks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if r["verdict"] != "pass"]
    assert bad and len(bad) < len(rows)
    assert main(["report", str(out / "manifest.json"), "--output-dir", str(tmp_path)]) == 0
    summary = (tmp_path / "summary.md").read_text().splitlines()
    assert f"Limit checks: {len(rows) - len(bad)}/{len(rows)} pass." in summary
    table = [line for line in summary if line.startswith("| ")]
    assert table == ["| check | model | params | value | target | verdict |"] + [
        f"| {r['check_id']} | {r['model']} | {r['params']} | {r['value']} "
        f"| {r['target']} | {r['verdict']} |" for r in bad]
    assert f"## Verdict: FAILURES ({len(bad)})" in summary


def test_report_flags_a_missing_output(tmp_path, capsys):
    out = _lemmas_run(tmp_path)
    (out / "limit_checks.csv").unlink()
    capsys.readouterr()
    assert main(["report", str(out / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'limit_checks.csv'}: listed in manifest but missing" in err


def test_report_rejects_a_manifest_without_outputs(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tool_version": "0.1.0", "config": None}))
    assert main(["report", str(manifest)]) == 2
    assert f"manifest {manifest} has no outputs section" in capsys.readouterr().err


@pytest.mark.parametrize("outputs, listed, named", [
    ([], None, "outputs must map file names to digest strings"),
    (None, None, "outputs must map file names to digest strings"),
    ({"a.csv": 5}, None, "outputs must map file names to digest strings"),
    # a.csv's true digest: a name outside the manifest's directory is refused unread
    ({"../a.csv": hashlib.sha256(b"x\n").hexdigest()}, None,
     "outputs must map file names to digest strings"),
    (None, ("report.json", "not json"), "cannot summarize {}: JSONDecodeError"),
    (None, ("limit_checks.csv", "check_id,model\nx,y\n"), "cannot summarize {}: KeyError"),
], ids=["outputs-list", "outputs-null", "digest-int", "name-outside", "report-json-text",
        "limit-csv-no-verdict"])
def test_report_exits_config_on_a_malformed_manifest(tmp_path, capsys, outputs, listed, named):
    """A manifest whose outputs are not file names and digest strings, or
    whose checksummed report.json or limit_checks.csv does not parse, is a
    config error that names the file, never a traceback."""
    run = tmp_path / "run"
    run.mkdir()
    (tmp_path / "a.csv").write_text("x\n")
    (run / "a.csv").write_text("x\n")
    if listed:
        name, text = listed
        (run / name).write_text(text)
        outputs, named = {name: sha256_file(run / name)}, named.format(run / name)
    manifest = run / "manifest.json"
    manifest.write_text(json.dumps({"outputs": outputs}))
    assert main(["report", str(manifest), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.md").exists()


def test_report_summarizes_the_manifest_it_verified(tmp_path, monkeypatch):
    """Each manifest is read once, so a file that changes between reads
    cannot have one document verified and another summarized."""
    out = _lemmas_run(tmp_path)
    manifest = str(out / "manifest.json")
    real, reads = reports.load_manifest, []

    def load_manifest(path):
        reads.append(path)
        doc = real(path)
        # a later read sees a different document
        return doc if len(reads) == 1 else {**doc, "tool_version": "9.9.9", "outputs": {}}

    monkeypatch.setattr(reports, "load_manifest", load_manifest)
    text, ok = reports.summarize_manifests([manifest])
    assert reads == [manifest]
    assert "Produced by version 9.9.9" not in text
    assert "1 file(s), checksums verified." in text and "Limit checks:" in text
    assert not ok


# -- atomic writes ------------------------------------------------------


def test_atomic_write_no_temp_residue(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


def test_atomic_write_failure_leaves_original(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write_text(target, "original\n")
    with pytest.raises(TypeError):
        atomic_write_text(target, b"bytes are not text")
    assert target.read_text() == "original\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


# -- end-to-end process -------------------------------------------------


@pytest.mark.parametrize("args, code", [(["--help"], 0), ([], 2)], ids=["help", "no-args"])
def test_module_runs_the_cli(subprocess_env, args, code):
    proc = subprocess.run([sys.executable, "-m", "extremesum", *args],
                          capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == code
    text = proc.stdout if code == 0 else proc.stderr
    assert "{functionals,lemmas,simulate,report}" in text
    if code:
        assert "the following arguments are required: command" in text


def test_module_entry_point(tmp_path, subprocess_env):
    cfg = _write_config(tmp_path / "cfg.json", replicates=50, tolerances=_LOOSE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "extremesum", "simulate",
            "--config", str(tmp_path / "cfg.json"),
            "--output-dir", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()
    assert "report.json" in proc.stdout
