"""The benchmark's tracer finds every function it wraps.

``bench/tracer.py`` wraps package functions by name; a renamed or removed
one is recorded as missing and its per-layer counters read 0 instead of
failing.  This test fails instead.  It imports the tracer in a child
process and changes nothing under ``bench/``.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_finds_every_patch_point(subprocess_env):
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "print(json.dumps(tracer.install().missing))")
    out = subprocess.run([sys.executable, "-c", code, BENCH], env=subprocess_env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
