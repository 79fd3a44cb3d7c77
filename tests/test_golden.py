"""Golden digests: refactors of the numeric layers must not move output bytes.

The digests were recorded before the limit suite became table-driven and
before the tail integrals moved onto ``quadrature.tail_quad``; any change
to them is a change in what the package computes and must be explained.
"""

import hashlib
import io
import warnings

from extremesum import LogNormal, SGrid, build_functional_table, catalog, run_limit_suite
from extremesum.reports import limit_reports_csv


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
    buf = io.StringIO()
    table.to_csv(buf)
    assert _sha256(buf.getvalue()) == (
        "3aceff447e864dfd018ec606b5f8786314294bc933ad8ef9c04e2cf8dc870bb9"
    )
