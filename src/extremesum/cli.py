"""Command-line front door.

Four subcommands cover the batch workflows:

    functionals   tail-functional tables (one CSV per model)
    lemmas        the limit-check suite (one CSV of verdict rows)
    simulate      replicated statistic experiments (JSON + CSV reports)
    report        merge run manifests into a markdown summary

Every run writes its files atomically and finishes with a manifest that
checksums them.  Exit codes: 0 success, 2 configuration error, 3 runtime
numeric error, 4 check or verdict failure.
"""

from __future__ import annotations

import argparse
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
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig().validate()
    return cfg.with_overrides(
        master_seed=args.master_seed,
        replicates=args.replicates,
        output_dir=args.output_dir,
    )


def _outdir(path) -> str:
    """Make the output directory; one that cannot be made is a config error."""
    out = path or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: "
                          f"{exc.strerror or exc}") from None
    return out


def cmd_functionals(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg.output_dir)
    tables = build_functional_table(cfg.model_objects(), cfg.s_grid, betas=cfg.betas)
    outputs = rep.write_functional_tables(tables, out)
    rep.write_manifest(out, cfg, outputs)
    for name in outputs:
        print(os.path.join(out, name))
    for table in tables:
        for note in table.notes:
            print(f"{table.model.describe()}: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_lemmas(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg.output_dir)
    all_reports = run_limit_suite(cfg.model_objects(), checks=cfg.checks, betas=cfg.betas)
    outputs = rep.write_limit_reports(all_reports, out)
    rep.write_manifest(out, cfg, outputs)
    print(os.path.join(out, "limit_checks.csv"))
    failures = [r for r in all_reports if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(all_reports)} checks failed:",
              file=sys.stderr)
        for r in failures:
            final = r.values[-1] if r.values else float("nan")
            print(
                f"  {r.check_id} {r.model} "
                f"value={final:.6g} target={r.target:.6g} "
                f"tol={r.tolerance:g}" + (f" ({r.note})" if r.note else ""),
                file=sys.stderr,
            )
        return EXIT_CHECK
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg.output_dir)
    result = run_experiment(cfg)
    outputs = rep.write_simulation(result, cfg, out)
    rep.write_manifest(out, cfg, outputs)
    for name in sorted(outputs):
        print(os.path.join(out, name))
    if not result.passed:
        bad = [
            f"{r.model} n={r.n} {s.statistic_id}: {s.verdict}"
            f" ({'; '.join(s.failed_bounds)})"
            for r in result.reports
            for s in r.summaries
            if s.verdict != "pass"
        ]
        print(f"{len(bad)} verdict failure(s):", file=sys.stderr)
        for line in bad:
            print("  " + line, file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


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
