"""The exact stdout, stderr and exit code of the three config commands.

One config reaches every stderr branch: Pareto(2)'s sigma2 notes from
``functionals``, failed rows from ``lemmas`` and failed verdicts from
``simulate``; the other is a clean run of each command.  Both pass the
replicate count and master seed as flags, so the overrides are pinned too.
Stdout lists the written files: ``functionals`` in model order (Pareto
first here, so a sort would show) and ``simulate`` sorted by name.
"""

import json

import pytest

from extremesum.cli import main

_FAILING = {
    "models": ["pareto(2)", "exponential(1)"],
    "n_values": [200],
    "replicates": 100,
    "master_seed": 11,
    "statistics": ["T1", "T2"],
    "k_rule": {"kind": "fixed", "fixed_k": 10},
    "betas": [1.0],
    "tolerances": {"T1": {"mean": [-0.01, 0.01]}},
    "dump_samples": True,
}

_LOOSE = {"ks": 1.0, "var": [0.0, 99.0], "mean": [-99.0, 99.0]}
_PASSING = {
    "models": ["exponential(1)"],
    "n_values": [200],
    "replicates": 100,
    "master_seed": 11,
    "statistics": ["T1", "MAX"],
    "k_rule": {"kind": "fixed", "fixed_k": 10},
    "betas": [1.0],
    "checks": ["domain_ratio", "spacing_log_limit"],
    "tolerances": {"T1": _LOOSE, "MAX": _LOOSE},
}

_PARETO_NOTES = """\
pareto(2): sigma2 at s=0.5: sigma2(0.5): integral is not finite
pareto(2): sigma2 at s=0.25: sigma2(0.25): integral is not finite
pareto(2): sigma2 at s=0.125: sigma2(0.125): integral is not finite
"""

_FAILED_CHECKS = """\
8 of 21 checks failed:
  domain_ratio pareto(2) value=1.70711 target=2 tol=0.2
  scale_slow_variation pareto(2) value=1.41421 target=1 tol=0.05
  scale_slow_variation pareto(2) value=0.707107 target=1 tol=0.05
  scale_slow_variation pareto(2) value=1.41421 target=1 tol=0.05
  scale_slow_variation pareto(2) value=0.707107 target=1 tol=0.05
  spacing_log_limit pareto(2) value=-0.292893 target=-0.693147 tol=0.05
  variance_scale_limit pareto(2) value=nan target=nan tol=0.05 \
(evaluation failed: sigma2(0.01): integral is not finite)
  sequence_slowvar_limit pareto(2) value=0.0316228 target=0 tol=0.01
"""

_FAILED_VERDICTS = """\
4 verdict failure(s):
  pareto(2) n=200 T1: fail (mean 0.5745 outside [-0.01, 0.01]; var 7.655 outside \
[1.8, 2.2]; ks 0.2686 above 0.05)
  pareto(2) n=200 T2: fail (var 0.1134 outside [0.85, 1.15]; ks 0.3478 above 0.05)
  exponential(1) n=200 T1: fail (mean -0.3284 outside [-0.01, 0.01]; var 1.724 outside \
[1.8, 2.2]; ks 0.207 above 0.05)
  exponential(1) n=200 T2: fail (ks 0.2721 above 0.05)
"""

CASES = {
    "functionals-failing": (
        "functionals", _FAILING, 0,
        "out/functionals_pareto_2.csv\nout/functionals_exponential_1.csv\n", _PARETO_NOTES),
    "lemmas-failing": ("lemmas", _FAILING, 4, "out/limit_checks.csv\n", _FAILED_CHECKS),
    "simulate-failing": (
        "simulate", _FAILING, 4,
        "out/report.csv\nout/report.json\nout/samples_exponential_1_200.csv\n"
        "out/samples_pareto_2_200.csv\n", _FAILED_VERDICTS),
    "functionals-passing": (
        "functionals", _PASSING, 0, "out/functionals_exponential_1.csv\n", ""),
    "lemmas-passing": ("lemmas", _PASSING, 0, "out/limit_checks.csv\n", ""),
    "simulate-passing": ("simulate", _PASSING, 0, "out/report.csv\nout/report.json\n", ""),
}


@pytest.mark.parametrize("command, config, code, stdout, stderr",
                         list(CASES.values()), ids=list(CASES))
def test_config_command_text(tmp_path, monkeypatch, capsys, command, config, code,
                             stdout, stderr):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = [command, "--config", "cfg.json", "--output-dir", "out",
            "--replicates", "20", "--master-seed", "3"]
    assert main(argv) == code
    assert capsys.readouterr() == (stdout, stderr)
