"""The runtime's ``scipy.special`` surface, pinned.

A runtime without scipy has to own every special function the package
calls, so the set may shrink but must not grow unnoticed.  The package
reaches scipy only through ``from scipy import special``, so the
attribute uses in its source are the whole surface.
"""

import re
from pathlib import Path

import extremesum

SOURCES = sorted(Path(extremesum.__file__).parent.glob("*.py"))

SPECIAL_SURFACE = {"ndtr", "ndtri", "exp1", "gamma", "gammaincc", "gammaincinv",
                   "gammainccinv", "gammaln"}


def test_scipy_enters_only_as_special():
    imports = {line.strip() for path in SOURCES
               for line in path.read_text().splitlines()
               if re.match(r"\s*(from|import)\s+scipy\b", line)}
    assert imports == {"from scipy import special"}


def test_special_surface_is_the_inventory():
    used = {name for path in SOURCES
            for name in re.findall(r"\bspecial\.([A-Za-z_]\w*)", path.read_text())}
    assert used == SPECIAL_SURFACE
