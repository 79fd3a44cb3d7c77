"""The CLI reproduces the benchmark's golden outputs.

``bench/run.py`` checks every benchmark invocation against the output
digests and exit codes in ``bench/golden.json``.  This test runs the
same seed-7 commands in-process through ``extremesum.cli.main`` and
compares the same things, so a moved byte in ``report.json``, a
functional CSV or an exit code fails the test suite, not only the
benchmark.  It reads ``bench/`` and changes nothing there: the workload
module is imported without writing bytecode.
"""

import importlib.util
import json
import os
import sys

import pytest

from extremesum import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEED = 7


def _bench_run():
    spec = importlib.util.spec_from_file_location("_bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


BENCH_RUN = _bench_run()


@pytest.mark.parametrize("workload", ["desk_cell", "catalog_lemmas", "catalog_sweep"])
def test_cli_matches_bench_goldens(tmp_path, monkeypatch, capsys, workload):
    golden = BENCH_RUN.load_golden(workload, SEED)
    commands = BENCH_RUN.WORKLOADS[workload][0](SEED)
    assert {cmd.key for cmd in commands} == set(golden)
    for cmd in commands:
        # the benchmark's layout: relative paths from the command's own
        # directory, as report.json records its output directory
        workdir = tmp_path / cmd.label
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        (workdir / "config.json").write_text(json.dumps(cmd.config))
        code = cli.main([cmd.subcommand, "--config", "config.json", "--output-dir", "out",
                         "--threads", str(cmd.threads)])
        assert "Traceback" not in capsys.readouterr().err
        assert code == golden[cmd.key]["exit"], cmd.label
        assert BENCH_RUN.digests(workdir / "out") == golden[cmd.key]["digests"], cmd.label
