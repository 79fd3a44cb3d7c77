"""The package namespace: each public name loads its module on first use.

Every check runs in a fresh interpreter, since any earlier import in the
test process has already loaded the layers.
"""

import json
import subprocess
import sys
from pathlib import Path

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


def test_every_module_of_the_package_resolves():
    files = {path.stem for path in Path(extremesum.__file__).parent.glob("*.py")}
    assert extremesum._MODULES == files - {"__init__", "__main__"}
