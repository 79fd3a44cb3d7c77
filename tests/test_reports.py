"""reports: report.json is written by hand and must be json.dumps's text;
every float in a CSV reads back as the double it was written from; the
module loads no numeric layer."""

import csv
import dataclasses
import io
import json
import math
import struct
import subprocess
import sys
import warnings

from extremesum import (
    STATISTIC_IDS,
    ExperimentConfig,
    SGrid,
    build_functional_table,
    catalog,
    run_experiment,
    run_limit_suite,
)
from extremesum.clt import ExperimentResult, NormalityReport, StatSummary
from extremesum.reports import (
    functional_table_csv,
    limit_reports_csv,
    normality_report_csv,
    normality_report_json,
)


def _jsonable(obj):
    """json.dumps's input as the json.dumps writer built it: non-finite
    floats null, keys str(key), tuples lists."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _reference(result, config):
    """The report text of json.dumps(indent=2, allow_nan=False)."""
    doc = {
        "tool_version": json.loads(normality_report_json(result, config))["tool_version"],
        "config": config.to_dict(),
        "cells": [{
            "model": rep.model, "n": rep.n, "k": rep.k, "replicates": rep.replicates,
            "statistics": {s.statistic_id: {f.name: getattr(s, f.name)
                                            for f in dataclasses.fields(s)[1:]}
                           for s in rep.summaries},
            "verdict": "pass" if rep.passed else "fail",
        } for rep in result.reports],
        "verdict": "pass" if result.passed else "fail",
    }
    return json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n"


def _summary(stat, verdict="pass", **values):
    fields = dict(count=10, numeric_failures=0, mean=0.5, variance=1.0, skewness=0.0,
                  excess_kurtosis=0.0, ks=0.1, ad=0.2, target_variance=1.0)
    fields.update(values)
    return StatSummary(statistic_id=stat, verdict=verdict, **fields)


def test_report_json_is_the_json_dumps_text():
    odd = 'a "quoted"\\ path\twith\nnewline, é and ☃ \U0001d54a'
    summaries = [
        _summary("T1", "fail", count=2**53 + 1, numeric_failures=2**64, mean=math.nan,
                 variance=math.inf, skewness=-math.inf, excess_kurtosis=-0.0, ks=5e-324,
                 ad=1e22, target_variance=2.0, failed_bounds=("ks", odd)),
        _summary("T2", mean=1e-300, variance=0.1 + 0.2, skewness=-1.5e-7, ks=1e16,
                 ad=123456789.0),
    ]
    result = ExperimentResult(reports=[
        NormalityReport(model=odd, n=10**9, k=3982, replicates=5, summaries=summaries),
        NormalityReport(model="exponential(1)", n=50000, k=76, replicates=5, summaries=[]),
    ])
    config = ExperimentConfig(tolerances={}, output_dir=odd)
    text = normality_report_json(result, config)
    assert text == _reference(result, config)
    assert '"tolerances": {}' in text and '"statistics": {}' in text
    assert "NaN" not in text and "Infinity" not in text


# -- %.17g round trips ----------------------------------------------------


def _misread(cells, sources):
    """The (text, double) pairs whose text does not parse back to the
    double bit for bit; NaN reads back as NaN."""
    bad = []
    for text, x in zip(cells, sources, strict=True):
        assert isinstance(x, float), (text, x)
        y = float(text)
        if not (math.isnan(x) and math.isnan(y)) and struct.pack("<d", x) != struct.pack("<d", y):
            bad.append((text, x))
    return bad


def _quiet(run, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(*args, **kw)


def test_limit_checks_csv_floats_round_trip():
    reports = _quiet(run_limit_suite, [entry.model for entry in catalog()], betas=(1.0, 2.0))
    rows = list(csv.DictReader(io.StringIO(limit_reports_csv(reports))))
    assert len(rows) == len(reports) == 107
    names = ("s", "value", "target", "tolerance", "error")
    cells = [row[name] for row in rows for name in names]
    sources = [x for r in reports for x in (r.grid[-1] if r.grid else math.nan,
                                             r.values[-1] if r.values else math.nan,
                                             r.target, r.tolerance, r.final_error)]
    assert len(cells) == 535
    assert _misread(cells, sources) == []


def test_functional_table_floats_round_trip():
    tables = _quiet(build_functional_table, [entry.model for entry in catalog()],
                    SGrid.geometric(0.1, 0.1, 8), betas=(1.0, 2.0))
    cells, sources = [], []
    for table in tables:
        lines = functional_table_csv(table).splitlines()
        if table.warning:
            assert lines.pop(0) == f"# warning: {table.warning}"
        header, *rows = csv.reader(lines)
        assert header == table.column_order
        assert len(rows) == len(table.grid.points)
        for i, row in enumerate(rows):
            cells += row
            sources += [table.grid.points[i], *(table.columns[name][i] for name in header[1:-1]),
                        table.err_max(i)]
    assert len(cells) == 472
    assert _misread(cells, sources) == []


def test_report_csv_floats_round_trip():
    config = ExperimentConfig(models=("exponential(1)", "lognormal"), n_values=(5000,),
                              replicates=20, master_seed=7, statistics=STATISTIC_IDS)
    result = run_experiment(config)
    rows = list(csv.DictReader(io.StringIO(normality_report_csv(result))))
    summaries = [(rep, s) for rep in result.reports for s in rep.summaries]
    assert len(rows) == len(summaries) == 2 * len(STATISTIC_IDS)
    for row, (rep, s) in zip(rows, summaries):
        assert [row["model"], row["n"], row["k"], row["stat"], row["verdict"]] == \
            [rep.model, str(rep.n), str(rep.k), s.statistic_id, s.verdict]
    names = ("mean", "var", "skew", "kurt", "ks", "ad", "target_var")
    cells = [row[name] for row in rows for name in names]
    sources = [x for _, s in summaries for x in (s.mean, s.variance, s.skewness,
                                                 s.excess_kurtosis, s.ks, s.ad,
                                                 s.target_variance)]
    assert _misread(cells, sources) == []


# -- imports --------------------------------------------------------------


def test_reports_loads_no_numeric_layer(subprocess_env):
    # checking a manifest (the benchmark's gate, ``report``) needs no numpy
    code = """if 1:
        import json, sys
        from extremesum import reports
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] in ("extremesum", "numpy", "scipy"))))
    """
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["extremesum", "extremesum.errors", "extremesum.reports"]
