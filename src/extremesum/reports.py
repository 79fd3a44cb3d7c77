"""File emission: CSV/JSON reports, checksummed manifests, summaries.

This is the one module that knows how each output file is laid out:
``limit_checks.csv``, one functional table per model, ``report.csv`` and
``report.json``, the replicate dumps and the manifest.  A CSV layout is
an ordered table of column name -> getter, and every CSV goes through
one writer, with \n line ends and floats printed with %.17g so that
every double survives a round trip through text unchanged.  The module
imports only the standard library and ``errors``: it reads the reports
and tables the numeric layers hand it by their fields, so checking a
manifest loads no numeric layer.

Every file is written to a temporary sibling and atomically renamed into
place, so a crashed run never leaves a truncated report behind.  Each
command finishes by writing a manifest that echoes the config and lists a
SHA-256 checksum for every file it produced; reruns with the same config
and seed must reproduce those checksums bit for bit, which is what the
reproducibility tests pin.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import tempfile
from collections import namedtuple
from datetime import datetime, timezone
from operator import attrgetter

from .errors import ConfigError

MANIFEST_NAME = "manifest.json"


def _tool_version() -> str:
    from . import __version__

    return __version__


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv(columns: dict, rows, comment: str = "") -> str:
    """A CSV file's text: ``comment``, a header of the names in
    ``columns``, then one line per item of ``rows``, each cell its
    column's getter applied to the item and passed through _fmt."""
    buf = io.StringIO()
    buf.write(comment)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    getters = columns.values()
    writer.writerows([_fmt(get(row)) for get in getters] for row in rows)
    return buf.getvalue()


_ascii = json.encoder.encode_basestring_ascii
_repr, _isfinite = float.__repr__, math.isfinite


def _json(obj, pad=""):
    """The text ``json.dumps(obj, indent=2, allow_nan=False)`` gives obj at
    indent ``pad``, once every non-finite float is null and every key
    str(key).  Written here: with ``indent`` set CPython's json never uses
    its C encoder.  Floats print as float.__repr__, strings as json's
    ASCII escape."""
    if isinstance(obj, float):   # the common case first
        return _repr(obj) if _isfinite(obj) else "null"
    if isinstance(obj, str):
        return _ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_ascii(str(k))}: {_json(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join([inner + _json(v, inner) for v in obj]) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def atomic_write_text(path, text: str) -> str:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def sanitize_name(descriptor: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", descriptor).strip("_")


# -- functional tables --------------------------------------------------


def functional_table_csv(table) -> str:
    """A FunctionalTable's file: its warning, if any, as a comment line,
    then s, every column and err_max at each grid point."""
    columns = {"s": table.grid.points.__getitem__,
               **{name: values.__getitem__ for name, values in table.columns.items()},
               "err_max": table.err_max}
    comment = f"# warning: {table.warning}\n" if table.warning else ""
    return _csv(columns, range(len(table.grid.points)), comment)


def write_functional_tables(tables, outdir) -> dict:
    """One CSV per model; returns {filename: path}."""
    outputs = {}
    for table in tables:
        name = f"functionals_{sanitize_name(table.model.describe())}.csv"
        outputs[name] = atomic_write_text(
            os.path.join(outdir, name), functional_table_csv(table)
        )
    return outputs


# -- limit-check suite --------------------------------------------------

# One row per LimitCheckReport: its final grid point and verdict.
_LIMIT_COLUMNS = {
    "check_id": attrgetter("check_id"),
    "model": attrgetter("model"),
    "params": lambda r: ";".join(f"{k}={format(v, 'g')}" for k, v in r.params),
    "s": lambda r: r.grid[-1] if r.grid else math.nan,
    "value": lambda r: r.values[-1] if r.values else math.nan,
    "target": attrgetter("target"),
    "tolerance": attrgetter("tolerance"),
    "error": attrgetter("final_error"),
    "verdict": attrgetter("verdict"),
}


def limit_reports_csv(reports) -> str:
    return _csv(_LIMIT_COLUMNS, reports)


def write_limit_reports(reports, outdir) -> dict:
    name = "limit_checks.csv"
    return {name: atomic_write_text(os.path.join(outdir, name), limit_reports_csv(reports))}


# -- simulation reports -------------------------------------------------

# One row per cell (a NormalityReport) and statistic (its StatSummary).
_ReportRow = namedtuple("_ReportRow", "cell stat")
_REPORT_COLUMNS = {
    "model": attrgetter("cell.model"),
    "n": attrgetter("cell.n"),
    "k": attrgetter("cell.k"),
    "stat": attrgetter("stat.statistic_id"),
    "mean": attrgetter("stat.mean"),
    "var": attrgetter("stat.variance"),
    "skew": attrgetter("stat.skewness"),
    "kurt": attrgetter("stat.excess_kurtosis"),
    "ks": attrgetter("stat.ks"),
    "ad": attrgetter("stat.ad"),
    "target_var": attrgetter("stat.target_variance"),
    "verdict": attrgetter("stat.verdict"),
}


@functools.cache
def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _summary_dict(s) -> dict:
    """A StatSummary's fields after statistic_id, in declaration order."""
    return {name: getattr(s, name) for name in _field_names(type(s))[1:]}


def normality_report_json(result, config) -> str:
    cells = []
    for rep in result.reports:
        cells.append(
            {
                "model": rep.model,
                "n": rep.n,
                "k": rep.k,
                "replicates": rep.replicates,
                "statistics": {
                    s.statistic_id: _summary_dict(s) for s in rep.summaries
                },
                "verdict": "pass" if rep.passed else "fail",
            }
        )
    doc = {
        "tool_version": _tool_version(),
        "config": config.to_dict(),
        "cells": cells,
        "verdict": "pass" if result.passed else "fail",
    }
    return _json(doc) + "\n"


def normality_report_csv(result) -> str:
    return _csv(_REPORT_COLUMNS,
                (_ReportRow(rep, s) for rep in result.reports for s in rep.summaries))


def samples_csv(cell_samples) -> str:
    """Replicate values, one column per statistic, one row per replicate."""
    columns = {stat: sample.values.tolist() for stat, sample in cell_samples.items()}
    r = min(map(len, columns.values()), default=0)
    return _csv({stat: values.__getitem__ for stat, values in columns.items()}, range(r))


def write_simulation(result, config, outdir) -> dict:
    outputs = {
        "report.json": atomic_write_text(
            os.path.join(outdir, "report.json"),
            normality_report_json(result, config),
        ),
        "report.csv": atomic_write_text(
            os.path.join(outdir, "report.csv"), normality_report_csv(result)
        ),
    }
    if config.dump_samples:
        for (model, n), cell in result.samples.items():
            name = f"samples_{sanitize_name(model)}_{n}.csv"
            outputs[name] = atomic_write_text(
                os.path.join(outdir, name), samples_csv(cell)
            )
    return outputs


# -- manifests ----------------------------------------------------------


def write_manifest(outdir, config, outputs: dict) -> str:
    """Checksum every produced file and drop manifest.json next to them."""
    doc = {
        "tool_version": _tool_version(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict() if config is not None else None,
        "outputs": {
            name: sha256_file(path) for name, path in sorted(outputs.items())
        },
    }
    path = os.path.join(outdir, MANIFEST_NAME)
    return atomic_write_text(path, _json(doc) + "\n")


def load_manifest(path) -> dict:
    """The manifest at ``path``, once its outputs map plain file names,
    which name files next to it, to digest strings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or "outputs" not in doc:
        raise ConfigError(f"manifest {path} has no outputs section")
    outputs = doc["outputs"]
    if not isinstance(outputs, dict) or any(
            os.path.basename(name) != name or name in ("", ".", "..")
            or not isinstance(digest, str) for name, digest in outputs.items()):
        raise ConfigError(f"manifest {path}: outputs must map file names to digest strings")
    return doc


def verify_manifest(path) -> list:
    """Return a list of problems (missing files, checksum mismatches)."""
    return _problems(load_manifest(path), os.path.dirname(os.path.abspath(path)))


def _problems(doc, base) -> list:
    """verify_manifest's problems for the loaded manifest ``doc`` of directory ``base``."""
    problems = []
    for name, digest in doc["outputs"].items():
        target = os.path.join(base, name)
        if not os.path.exists(target):
            problems.append(f"{target}: listed in manifest but missing")
            continue
        actual = sha256_file(target)
        if actual != digest:
            problems.append(
                f"{target}: checksum mismatch (manifest {digest[:12]}..., "
                f"file {actual[:12]}...)"
            )
    return problems


# -- summary ------------------------------------------------------------


def _summarize_report_json(base, name, lines, failures):
    with open(os.path.join(base, name), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    lines.append("")
    lines.append("| model | n | k | stat | verdict | notes |")
    lines.append("|---|---|---|---|---|---|")
    for cell in doc.get("cells", []):
        for stat, s in cell.get("statistics", {}).items():
            notes = "; ".join(s.get("failed_bounds", []))
            lines.append(
                f"| {cell['model']} | {cell['n']} | {cell['k']} | {stat} "
                f"| {s['verdict']} | {notes} |"
            )
            if s["verdict"] != "pass":
                failures.append(
                    f"{cell['model']} n={cell['n']} {stat}: "
                    f"{notes or s['verdict']}"
                )


def _summarize_limit_csv(base, name, lines, failures):
    with open(os.path.join(base, name), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_pass = sum(1 for r in rows if r["verdict"] == "pass")
    lines.append("")
    lines.append(f"Limit checks: {n_pass}/{len(rows)} pass.")
    bad = [r for r in rows if r["verdict"] != "pass"]
    if bad:
        lines.append("")
        lines.append("| check | model | params | value | target | verdict |")
        lines.append("|---|---|---|---|---|---|")
        for r in bad:
            lines.append(
                f"| {r['check_id']} | {r['model']} | {r['params']} "
                f"| {r['value']} | {r['target']} | {r['verdict']} |"
            )
            failures.append(f"{r['check_id']} {r['model']}: value {r['value']}")


def summarize_manifests(paths) -> tuple:
    """Merge manifests into markdown; returns (text, all_pass).

    Raises ConfigError when a manifest is unreadable, or a referenced file
    is missing, fails its checksum or, for report.json and
    limit_checks.csv, does not parse.
    """
    if not paths:
        raise ConfigError("need at least one manifest to summarize")
    lines = ["# Run summary", ""]
    failures = []
    for path in paths:
        # one read: the summary describes the very document that was verified
        doc = load_manifest(path)
        base = os.path.dirname(os.path.abspath(path))
        problems = _problems(doc, base)
        if problems:
            raise ConfigError(
                f"manifest {path} failed verification: " + "; ".join(problems)
            )
        lines.append(f"## {path}")
        lines.append("")
        created = doc.get("created_utc", "unknown time")
        lines.append(
            f"Produced by version {doc.get('tool_version', '?')} at {created}; "
            f"{len(doc['outputs'])} file(s), checksums verified."
        )
        for name in doc["outputs"]:
            try:
                if name.endswith("report.json"):
                    _summarize_report_json(base, name, lines, failures)
                elif name.endswith("limit_checks.csv"):
                    _summarize_limit_csv(base, name, lines, failures)
            except (ValueError, KeyError, TypeError, AttributeError, csv.Error) as exc:
                # checksummed, but not the layout this module writes
                raise ConfigError(f"cannot summarize {os.path.join(base, name)}: "
                                  f"{type(exc).__name__}: {exc}") from exc
        lines.append("")
    if failures:
        lines.append(f"## Verdict: FAILURES ({len(failures)})")
        lines.append("")
        for f in failures:
            lines.append(f"- {f}")
    else:
        lines.append("## Verdict: ALL PASS")
    lines.append("")
    return "\n".join(lines), not failures
