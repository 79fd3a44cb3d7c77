"""CLI subcommands, exit codes, manifests, config round trips."""

import io
import json
import math
import os
import subprocess
import sys

import pytest

from extremesum import (ConfigError, ExperimentConfig, KRule, SGrid,
                        build_functional_table)
from extremesum.cli import main
from extremesum.reports import (
    atomic_write_text,
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
    ).validate()
    d1 = cfg.to_dict()
    cfg2 = ExperimentConfig.from_dict(d1)
    d2 = cfg2.to_dict()
    assert d1 == d2
    assert ExperimentConfig.from_json(cfg2.to_json()).to_json() == cfg2.to_json()


def test_config_default_round_trip():
    cfg = ExperimentConfig().validate()
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


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
        ExperimentConfig(models=()).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(models=("nosuchmodel(1)",)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(replicates=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(statistics=("T9",)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n_values=(3,)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(checks=("bogus",)).validate()


# -- exit codes ---------------------------------------------------------


def test_exit_config_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


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


def test_exit_config_on_empty_models(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", models=[])
    assert main(["lemmas", "--config", cfg]) == 2


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
            ExperimentConfig(tolerances=tol).validate()
    ExperimentConfig(tolerances={"BDH": {"mean": (0.5, 1.5), "sd_factor": 3}}).validate()


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
        ExperimentConfig(tolerances={"T1": {"mean": (0.0, math.nan)}}).validate()
    ExperimentConfig(tolerances={"T1": {"mean": (0.5, 0.5)}}).validate()


def test_exit_config_on_ks_outside_unit_interval(tmp_path, capsys):
    for ks in (-0.01, 1.5):
        assert _simulate_exit(tmp_path, {"T1": {"ks": ks}}) == 2
        assert "T1.ks must be a number in [0, 1]" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
        ExperimentConfig(tolerances={"T1": {"ks": math.nan}}).validate()
    for ks in (0, 1):
        ExperimentConfig(tolerances={"T1": {"ks": ks}}).validate()


def test_exit_config_on_sd_factor_below_one(tmp_path, capsys):
    # below 1 the band [ref / f, ref * f] is empty; 0 used to skip the bound
    for factor in (0, 0.5, 0.999):
        assert _simulate_exit(tmp_path, {"BDH": {"sd_factor": factor}}) == 2
        assert "BDH.sd_factor must be a number >= 1" in capsys.readouterr().err
    ExperimentConfig(tolerances={"BDH": {"sd_factor": 1}}).validate()


def test_config_rejects_s_grid_it_cannot_record():
    # a hand-built grid would serialize as a geometric one it is not
    with pytest.raises(ConfigError, match="s_grid"):
        ExperimentConfig(s_grid=SGrid((0.5, 0.1, 0.05))).validate()
    cfg = ExperimentConfig(s_grid=SGrid.geometric(0.5, 0.2, 3)).validate()
    assert ExperimentConfig.from_dict(cfg.to_dict()).s_grid.points == cfg.s_grid.points


@pytest.mark.parametrize("field, named", [
    ({"n_values": 5}, "n_values"),
    ({"models": 5}, "models"),
    ({"betas": ["x"]}, "betas"),
    ({"betas": [None]}, "betas"),
    ({"s_grid": {"start": [1]}}, "s_grid.start"),
    ({"s_grid": {"count": 2.7}}, "s_grid.count"),
    ({"statistics": "T1"}, "statistics must be a list"),
    ({"output_dir": 5}, "output_dir must be a string"),
    ({"dump_samples": "yes"}, "dump_samples must be true or false"),
    ({"dump_samples": 1}, "dump_samples must be true or false"),
    ({"dump_samples": None}, "dump_samples must be true or false"),
], ids=["n_values", "models", "betas-str", "betas-null", "s_grid-start",
        "s_grid-count", "statistics-str", "output_dir-int", "dump_samples-str",
        "dump_samples-int", "dump_samples-null"])
def test_exit_config_on_wrong_field_type(tmp_path, capsys, field, named):
    """A field of the wrong type is a config error (exit 2) named in the
    message, never a traceback or a silently converted value."""
    cfg = _write_config(tmp_path / "cfg.json", **field)
    assert main(["lemmas", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert "['T', '1']" not in err


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
], ids=["coeff-overflow", "coeff-inf", "coeff-str", "gamma-str", "betas-inf-functionals",
        "betas-inf-lemmas", "coeff-huge-int", "gamma-huge-int", "betas-huge-int",
        "s-grid-huge-int", "s-grid-count-1e9", "s-grid-count-huge-int", "replicates-1e12",
        "k-over-cap"])
def test_exit_config_on_bad_k_rule_or_beta(tmp_path, capsys, command, field, named):
    """A k rule whose k overflows, is not a number or passes the order
    statistics a replicate may draw, an infinite beta, an integer too large
    for a float, and an s_grid.count or a models x replicates product over
    its cap are config errors (exit 2) that name the key."""
    cfg = _write_config(tmp_path / "cfg.json", **field)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


def test_validate_caps_order_statistics_and_rows():
    """k + 1 order statistics per replicate and models x replicates per n
    are capped at 2^20 each, the cap itself allowed."""
    n = 2**30
    ExperimentConfig(n_values=(n,), k_rule=KRule(kind="fixed", fixed_k=2**20 - 1)).validate()
    with pytest.raises(ConfigError, match="k_rule gives k=1048576 for n=1073741824"):
        ExperimentConfig(n_values=(n,), k_rule=KRule(kind="fixed", fixed_k=2**20)).validate()
    two = ("exponential(1.0)", "normal")
    ExperimentConfig(replicates=2**20).validate()
    ExperimentConfig(models=two, replicates=2**19).validate()
    for models, replicates in ((("exponential(1.0)",), 2**20 + 1), (two, 2**19 + 1)):
        with pytest.raises(ConfigError, match="replicates times the number of models"):
            ExperimentConfig(models=models, replicates=replicates).validate()


def test_validate_rejects_overflowing_k_rule_and_infinite_beta():
    for coeff in (math.inf, 1e308):
        with pytest.raises(ConfigError, match="k_rule gives no finite k"):
            ExperimentConfig(k_rule=KRule(coeff=coeff)).validate()
    with pytest.raises(ConfigError, match="betas must be finite and strictly positive"):
        ExperimentConfig(betas=(2.0, math.inf)).validate()


@pytest.mark.parametrize("command, field, named", [
    ("simulate", {"models": ["exponential", "exponential(1.0)"], "n_values": [5000]},
     "duplicate model 'exponential(1.0)', the same as 'exponential'"),
    ("simulate", {"n_values": [5000, 50000, 5000]}, "duplicate n value 5000"),
    ("simulate", {"statistics": ["T1", "T1", "MAX"]}, "duplicate statistic 'T1'"),
    ("lemmas", {"checks": ["spacing_log_limit", "spacing_log_limit"]},
     "duplicate check 'spacing_log_limit'"),
], ids=["models", "n_values", "statistics", "checks"])
def test_exit_config_on_duplicate_entry(tmp_path, capsys, command, field, named):
    """A repeated model (by its description), n value, statistic or check
    is a config error: the outputs key their cells, rows and sample files
    by these names, so a repeat would overwrite or double them."""
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
            ExperimentConfig(**kwargs).validate()


def test_exit_numeric_on_divergent_model(tmp_path, capsys):
    # pareto(1) has no finite tail scale: the experiment cannot start
    cfg = _write_config(
        tmp_path / "cfg.json", models=["pareto(1.0)"], n_values=[100],
        replicates=10,
    )
    assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path)]) == 3
    assert "numeric error" in capsys.readouterr().err


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
    parsed = ExperimentConfig.from_dict(json.loads(open(cfg).read()))
    table = build_functional_table(parsed.model_objects()[0], parsed.s_grid,
                                   betas=parsed.betas)
    buf = io.StringIO()
    table.to_csv(buf)
    assert (out / "functionals_pareto_2.csv").read_text() == buf.getvalue()


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
