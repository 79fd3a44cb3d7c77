"""report.json is written by hand: its text must be json.dumps's."""

import dataclasses
import json
import math

from extremesum import ExperimentConfig
from extremesum.clt import ExperimentResult, NormalityReport, StatSummary
from extremesum.reports import normality_report_json


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
        NormalityReport(model=odd, n=10**9, k=3982, replicates=5, master_seed=7,
                        summaries=summaries),
        NormalityReport(model="exponential(1)", n=50000, k=76, replicates=5,
                        master_seed=7, summaries=[]),
    ])
    config = ExperimentConfig(tolerances={}, output_dir=odd)
    text = normality_report_json(result, config)
    assert text == _reference(result, config)
    assert '"tolerances": {}' in text and '"statistics": {}' in text
    assert "NaN" not in text and "Infinity" not in text
