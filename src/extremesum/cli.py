"""Command-line front door.

Four subcommands cover the batch workflows:

    functionals   tail-functional tables (one CSV per model)
    lemmas        the limit-check suite (one CSV of verdict rows)
    simulate      replicated statistic experiments (JSON + CSV reports)
    report        merge run manifests into a markdown summary

The three config commands take one path: load and check the config
(overridden by the flags that are given), make the output directory,
compute, write the files atomically, checksum them into a manifest and
print their paths.  Each command supplies its compute step, its writer
and its stderr lines; ``report`` verifies manifests and merges them.

Exit codes: 0 success, 2 configuration error, 3 runtime numeric error,
4 check or verdict failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import ExperimentConfig
from .errors import ConfigError, ExtremeSumError, NumericError, QuadratureError
from .functionals import build_functional_table
from .limits import run_limit_suite
from .clt import run_experiment
from . import reports as rep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", help="JSON config file")
    sub.add_argument(
        "--output-dir", metavar="PATH", help="where to write results"
    )
    sub.add_argument(
        "--threads", type=int, default=1,
        help="ignored: replicates run serially; their stream keys fix the results",
    )
    sub.add_argument(
        "--master-seed", type=int, default=None, help="override master seed"
    )
    sub.add_argument(
        "--replicates", type=int, default=None, help="override replicate count"
    )


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    # the flags share their config fields' names; a flag not given is None
    flags = {name: getattr(args, name) for name in ("master_seed", "replicates", "output_dir")
             if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **flags) if flags else cfg


def _outdir(path) -> str:
    """Make the output directory; one that cannot be made is a config error."""
    out = path or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: "
                          f"{exc.strerror or exc}") from None
    return out


def _run(args, compute, write, order=list):
    """Load the config, make its output directory, ``compute(cfg)``,
    ``write(result, cfg, out)``, checksum the outputs into a manifest and
    print their paths in ``order``; returns the computed result."""
    cfg = _load_config(args)
    out = _outdir(cfg.output_dir)
    result = compute(cfg)
    outputs = write(result, cfg, out)
    rep.write_manifest(out, cfg, outputs)
    for name in order(outputs):
        print(os.path.join(out, name))
    return result


def _check_exit(header, failures) -> int:
    """EXIT_OK without ``failures``; else EXIT_CHECK, after printing
    ``header`` and each failure, indented, to stderr."""
    if not failures:
        return EXIT_OK
    print(header, file=sys.stderr)
    for line in failures:
        print("  " + line, file=sys.stderr)
    return EXIT_CHECK


def cmd_functionals(args) -> int:
    tables = _run(args,
                  lambda cfg: build_functional_table(cfg.model_objects(), cfg.s_grid,
                                                     betas=cfg.betas),
                  lambda result, cfg, out: rep.write_functional_tables(result, out))
    for table in tables:
        for note in table.notes:
            print(f"{table.model.describe()}: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_lemmas(args) -> int:
    reports = _run(args,
                   lambda cfg: run_limit_suite(cfg.model_objects(), checks=cfg.checks,
                                               betas=cfg.betas),
                   lambda result, cfg, out: rep.write_limit_reports(result, out))
    failures = []
    for r in reports:
        if not r.passed:
            final = r.values[-1] if r.values else float("nan")
            failures.append(f"{r.check_id} {r.model} value={final:.6g} target={r.target:.6g} "
                            f"tol={r.tolerance:g}" + (f" ({r.note})" if r.note else ""))
    return _check_exit(f"{len(failures)} of {len(reports)} checks failed:", failures)


def cmd_simulate(args) -> int:
    result = _run(args, run_experiment, rep.write_simulation, sorted)
    failures = [f"{r.model} n={r.n} {s.statistic_id}: {s.verdict} ({'; '.join(s.failed_bounds)})"
                for r in result.reports for s in r.summaries if s.verdict != "pass"]
    return _check_exit(f"{len(failures)} verdict failure(s):", failures)


def cmd_report(args) -> int:
    text, _ok = rep.summarize_manifests(args.manifests)
    out = _outdir(args.output_dir)
    path = rep.atomic_write_text(os.path.join(out, "summary.md"), text)
    print(path)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremesum",
        description="Tail-sum statistics: functional tables, limit checks, "
        "replicated experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, summary, func in (
        ("functionals", "write tail-functional tables", cmd_functionals),
        ("lemmas", "run the limit-check suite", cmd_lemmas),
        ("simulate", "run replicated experiments", cmd_simulate),
    ):
        p = subs.add_parser(name, help=summary)
        _add_common(p)
        p.set_defaults(func=func)

    p = subs.add_parser("report", help="merge manifests into a summary")
    p.add_argument("manifests", nargs="+", metavar="MANIFEST")
    p.add_argument("--output-dir", metavar="PATH", help="where to write summary.md")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ExtremeSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
