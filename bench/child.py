"""One extremesum CLI invocation in a fresh interpreter, timed in phases.

Usage: python3 child.py SPEC.json

SPEC names the CLI argv, the config file, whether to trace, and where to
write the result.  Set-up (``import extremesum`` plus loading and
validating the config) is timed before the command, and the command is
``extremesum.cli.main(argv)``.  The package must come from the ``src``
directory named in SPEC; the parent passes it as an absolute
PYTHONPATH, so the working directory does not matter.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t_start = time.perf_counter()
    import extremesum
    from extremesum.config import ExperimentConfig

    t_import = time.perf_counter()
    ExperimentConfig.load(spec["config"])
    t_setup = time.perf_counter()

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(extremesum.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {extremesum.__file__}, not from {src}")

    rec = None
    if spec["trace"]:
        import tracer  # found next to this script

        rec = tracer.install()
    from extremesum import cli

    out = {"setup_s": t_setup - t_start, "config_load_s": t_setup - t_import,
           "exit": None, "error": None}
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if rec:
            rec.enter("command", {"argv": spec["argv"]})
        t1 = time.perf_counter()
        try:
            out["exit"] = cli.main(spec["argv"])
        except Exception:
            out["error"] = traceback.format_exc()
        t2 = time.perf_counter()
        if rec:
            rec.exit()
    out["command_s"] = t2 - t1
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec:
        out["trace"] = rec.result()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
