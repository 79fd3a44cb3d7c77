"""Golden digests: refactors of the numeric layers must not move output bytes.

The limit-suite and LogNormal digests were recorded before the limit
suite became table-driven and before the tail integrals moved onto
``quadrature.tail_quads``; the normality-report and catalog-table digests
before the two quantile methods and the four functionals each got one
code path.  Any change to them is a change in what the package computes
and must be explained.
"""

import hashlib
import warnings

import pytest

from extremesum import (
    STATISTIC_IDS,
    ExperimentConfig,
    LogNormal,
    SGrid,
    build_functional_table,
    catalog,
    run_experiment,
    run_limit_suite,
)
from extremesum.reports import functional_table_csv, limit_reports_csv, normality_report_csv


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_limit_suite_csv_is_golden():
    # the config's default betas (1, 2), every catalog model
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for entry in catalog():
            reports.extend(run_limit_suite(entry.model, betas=(1.0, 2.0)))
    assert len(reports) == 107
    assert _sha256(limit_reports_csv(reports)) == (
        "9601badb4effaae662ed796f267d917693d4bc08ecfa44c7b9cacecd1d93bb57"
    )


def test_lognormal_functional_table_is_golden():
    # LogNormal has no closed scale or variance: every column but mu is
    # quadrature, down to s = 1e-8
    table = build_functional_table(
        LogNormal(), SGrid.geometric(0.1, 0.1, 8), betas=(1.0, 2.0)
    )
    assert _sha256(functional_table_csv(table)) == (
        "3aceff447e864dfd018ec606b5f8786314294bc933ad8ef9c04e2cf8dc870bb9"
    )


# Exponential(1) at n=50000 with every statistic id; then the six
# Gumbel-domain catalog models at a small n and at n=1e9.
_EXPERIMENTS = {
    "desk": (
        dict(models=("exponential(1)",), n_values=(50000,), replicates=200),
        "d75eecef252ebe54b13229924bbded5c3d897efecc3de68c3642840d5529635c",
    ),
    "gumbel_sweep": (
        dict(models=("exponential(1)", "gumbel(0,1)", "weibull(2)", "normal",
                     "lognormal", "gamma(2)"),
             n_values=(5000, 10**9), replicates=3),
        "4181d6e002f62fe191e439841c14bc5a7bc01f806811864fe5870d1ede8ae897",
    ),
}


@pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
def test_normality_report_csv_is_golden(name):
    fields, digest = _EXPERIMENTS[name]
    cfg = ExperimentConfig(master_seed=7, statistics=STATISTIC_IDS, **fields)
    assert _sha256(normality_report_csv(run_experiment(cfg))) == digest


# Table CSV followed by its notes, one per line: Pareto(2) flags every
# sigma2 entry, so the divergence messages are pinned too.
_TABLE_DIGESTS = {
    "exponential(1)": "264af02766c924206d0518d6f3529d077ae697f8466d4dd52ed3d5585acb08fb",
    "gumbel(0,1)": "e42bc080c79daf082f5f3d34756031b32b2408469d66a501b3ca8900cd3fe616",
    "weibull(2)": "421360e1babd10d9d14b49649c0583c22d7f4a191b3f76e097c214509b9aca60",
    "normal()": "6b6c880be62a745fd45c9219dc3a2102563c09dd57536712f7edf49455b39639",
    "lognormal()": "3aceff447e864dfd018ec606b5f8786314294bc933ad8ef9c04e2cf8dc870bb9",
    "gamma(2)": "20d021b8459ebdcf97cdb0cc0a387849f28d745199f8b9abc32d8e16bea46e7a",
    "pareto(2)": "5a80a648b40fe539748a6a4a933c96f63e038751656ebf5b96bc22ae89db891a",
    "uniform()": "ed63c99ce61a7d933ad300f8e46e7111017841c2141096c916ac3f9c596e8c89",
}


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.model.describe())
def test_catalog_functional_tables_are_golden(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = build_functional_table(
            entry.model, SGrid.geometric(0.1, 0.1, 8), betas=(1.0, 2.0)
        )
    text = functional_table_csv(table) + "".join(note + "\n" for note in table.notes)
    assert _sha256(text) == _TABLE_DIGESTS[entry.model.describe()]
