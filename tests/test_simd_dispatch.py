"""Output bytes under numpy's SIMD dispatch without AVX-512 (ROADMAP
Direction 12, Stage 1).

numpy dispatches float64 ``exp``, ``log``, ``log1p`` and ``expm1`` to
AVX-512 kernels where the CPU has them, and those differ from libm in
the last bit on some inputs.  The golden digests were recorded with
them.  ``NPY_DISABLE_CPU_FEATURES`` turns that dispatch off for one
child process, as on a CPU without AVX-512.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                reason="numpy's x86-64 dispatch levels")

NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP Direction 12: the golden digests hold only with numpy's AVX-512 "
    "exp, log, log1p and expm1; 8 digest tests fail without them"))
def test_digests_do_not_depend_on_avx512(subprocess_env):
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(TESTS, "test_golden.py"), os.path.join(TESTS, "test_bench_golden.py")],
        env={**subprocess_env, **NO_AVX512}, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-3000:]


def test_ufuncs_equal_libm_without_avx512(subprocess_env):
    # numpy's loops below AVX-512 give libm's bits, element by element
    code = """if 1:
        import json, math
        import numpy as np
        pos = np.concatenate([np.geomspace(1e-300, 1.0, 20_001),
                              np.linspace(0.0, 50.0, 20_001)[1:]])
        grid = {"exp": np.concatenate([-pos, pos]), "log": pos, "log1p": pos,
                "expm1": np.concatenate([-pos, pos])}
        print(json.dumps({name: int(np.count_nonzero(
            getattr(np, name)(x) != [getattr(math, name)(v) for v in x.tolist()]))
            for name, x in grid.items()}))
    """
    out = subprocess.run([sys.executable, "-c", code], env={**subprocess_env, **NO_AVX512},
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"exp": 0, "log": 0, "log1p": 0, "expm1": 0}
