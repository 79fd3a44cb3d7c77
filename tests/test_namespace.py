"""The package namespace: each public name loads its module on first use.

Every check runs in a fresh interpreter, since any earlier import in the
test process has already loaded the layers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import extremesum


def _run(code, env):
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_bare_import_loads_no_layer(subprocess_env):
    code = """if 1:
        import json, sys
        import extremesum
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith(("extremesum.", "numpy")))))
    """
    assert _run(code, subprocess_env) == []


def test_each_public_name_is_its_modules_object(subprocess_env):
    code = """if 1:
        import importlib, json
        import extremesum
        wrong = []
        for name in extremesum.__all__:
            module = importlib.import_module("extremesum." + extremesum._NAMES[name])
            obj = getattr(extremesum, name)
            if obj is not getattr(module, name) or \\
                    getattr(obj, "__module__", module.__name__) != module.__name__:
                wrong.append(name)
        star = {}
        exec("from extremesum import *", star)
        wrong += [name for name in extremesum.__all__ if star[name] is not getattr(extremesum, name)]
        print(json.dumps([len(extremesum.__all__), wrong]))
    """
    assert _run(code, subprocess_env) == [65, []]


def test_dir_lists_all_and_every_public_name(subprocess_env):
    code = """if 1:
        import json
        import extremesum
        names = dir(extremesum)
        print(json.dumps(["__all__" in names, "__version__" in names,
                          set(extremesum.__all__) <= set(names)]))
    """
    assert _run(code, subprocess_env) == [True, True, True]


def test_submodule_resolves_after_a_bare_import(subprocess_env):
    code = """if 1:
        import json, sys
        import extremesum
        models = extremesum.models
        print(json.dumps([models is sys.modules["extremesum.models"],
                          "extremesum.clt" in sys.modules,
                          hasattr(extremesum, "no_such_name")]))
    """
    assert _run(code, subprocess_env) == [True, False, False]


def test_cephes_is_a_leaf(subprocess_env):
    """cephes loads no other module of the package: the layers take their
    libm-exact elementwise helpers from it."""
    code = """if 1:
        import json, sys
        import extremesum.cephes
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "extremesum")))
    """
    assert _run(code, subprocess_env) == ["extremesum", "extremesum.cephes"]


def test_every_module_of_the_package_resolves():
    files = {path.stem for path in Path(extremesum.__file__).parent.glob("*.py")}
    assert extremesum._MODULES == files - {"__init__", "__main__"}


_CATALOG = ["exponential(1)", "gumbel(0,1)", "weibull(2)", "normal", "lognormal", "gamma(2)",
            "pareto(2)", "uniform"]
_STATISTICS = ["T1", "T2", "T3", "BDH", "MAX"]

# The benchmark's configs: the desk cell, the catalog's limit suite and
# tables, the Gumbel-domain sweep; and whether loading them loads scipy.special.
_BENCH_CONFIGS = {
    "desk_cell": ({"models": ["exponential(1)"], "n_values": [50000], "replicates": 2000,
                   "master_seed": 7, "statistics": _STATISTICS}, False),
    "catalog_lemmas": ({"models": _CATALOG, "master_seed": 7,
                        "s_grid": {"start": 0.1, "ratio": 0.1, "count": 8}}, True),
    "catalog_sweep": ({"models": _CATALOG[:6], "n_values": [5000, 50000, 10**9],
                       "replicates": 5, "master_seed": 7, "statistics": _STATISTICS}, True),
}


@pytest.mark.parametrize("name", sorted(_BENCH_CONFIGS))
def test_benchmark_timing_windows_load_fixed_modules(name, tmp_path, subprocess_env):
    """The benchmark times set-up (``import extremesum`` and
    ``ExperimentConfig.load``) apart from the command, which imports
    ``cli`` first.  An import that moves from one window to the other moves
    its cost between setup_s and wall_s, so it has to show here."""
    config, special = _BENCH_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = f"""if 1:
        import json, sys
        def ours():
            return sorted(m for m in sys.modules if m.split(".")[0] == "extremesum")
        import extremesum
        from extremesum.config import ExperimentConfig
        ExperimentConfig.load({str(path)!r})
        setup = ours()
        loaded = ["numpy.random" in sys.modules, "scipy.special" in sys.modules]
        from extremesum import cli
        print(json.dumps([setup, loaded, sorted(set(ours()) - set(setup))]))
    """
    setup, loaded, command = _run(code, subprocess_env)
    assert setup == ["extremesum", *(f"extremesum.{m}" for m in (
        "cephes", "clt", "config", "errors", "functionals", "gof", "limits", "models",
        "quadrature", "sampling"))]
    assert loaded == [True, special]
    assert command == ["extremesum.cli", "extremesum.reports"]
