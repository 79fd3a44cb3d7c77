"""The runtime's ``scipy.special`` surface, pinned.

A runtime without scipy has to own every special function the package
calls, so the set may shrink but must not grow unnoticed.  The package
reaches scipy only through ``from scipy import special``, so the
attribute uses in its source are the whole surface.  Only the models
that call it import it, when they are built.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import extremesum

SOURCES = sorted(Path(extremesum.__file__).parent.glob("*.py"))

SPECIAL_SURFACE = {"ndtri", "exp1", "gamma", "gammaincc", "gammaincinv",
                   "gammainccinv", "gammaln"}


def test_scipy_enters_only_as_special():
    imports = {line.strip() for path in SOURCES
               for line in path.read_text().splitlines()
               if re.match(r"\s*(from|import)\s+scipy\b", line)}
    assert imports == {"from scipy import special"}


def test_special_surface_is_the_inventory():
    used = {name for path in SOURCES
            for name in re.findall(r"\bspecial\.([A-Za-z_]\w*)", path.read_text())}
    assert used == SPECIAL_SURFACE


# -- where scipy loads: checked in fresh interpreters -------------------------


def _run(code, env):
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_desk_simulate_loads_no_scipy(tmp_path, subprocess_env):
    # The desk cell with every statistic: the N(0, 1) targets are the
    # package's own ndtr, and the command imports no numpy or package
    # module first.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "models": ["exponential(1)"], "n_values": [50000], "replicates": 2000,
        "master_seed": 7, "statistics": ["T1", "T2", "T3", "MAX", "BDH"]}))
    code = f"""if 1:
        import contextlib, io, json, sys
        from extremesum import cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["simulate", "--config", {str(cfg)!r},
                      "--output-dir", {str(tmp_path / "out")!r}])
        print(json.dumps({{"scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                          "new": sorted(m for m in set(sys.modules) - before
                                        if m.startswith(("numpy", "extremesum")))}}))
    """
    assert _run(code, subprocess_env) == {"scipy": [], "new": []}
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("model", ["gumbel", "weibull(2)", "normal", "lognormal", "gamma(2)"])
def test_scipy_backed_models_load_special_with_the_config(model, tmp_path, subprocess_env):
    # These families import scipy.special when built, so a config naming
    # one pays for the import in validation, before any command runs.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": [model]}))
    code = f"""if 1:
        import json, sys
        from extremesum.config import ExperimentConfig
        before = "scipy.special" in sys.modules
        ExperimentConfig.load({str(cfg)!r})
        print(json.dumps([before, "scipy.special" in sys.modules]))
    """
    assert _run(code, subprocess_env) == [False, True]
