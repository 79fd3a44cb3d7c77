"""Random configs through the CLI: bad input never ends in a traceback.

Random model strings and config objects go through ``cli.main`` for
``functionals``, ``lemmas`` and ``simulate``.  Each run must end in exit
0, 2, 3 or 4, and an exit 2 prints one ``config error:`` line.  The
pytest ``filterwarnings`` make a stray RuntimeWarning an error too.

The values reach past every bound the config checks: n past 2^53 and past
the float range, under fixed and power k rules, and repeated betas.
Replicates stay at most 8, so a run that builds is a few milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremesum.cli import main
from extremesum.clt import STATISTIC_IDS
from extremesum.limits import DEFAULT_CHECKS

# any JSON value, for a key that expects another type
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)

_FAMILIES = ("exponential", "gumbel", "weibull", "normal", "lognormal", "gamma", "pareto",
             "uniform", "cauchy")
_NUMERALS = ("1", "2.5", "0.5", "0", "-1", "1e400", "1e-400", "0x1p3", "nan", "inf", "", "x")


@st.composite
def _model_strings(draw):
    family = draw(st.sampled_from(_FAMILIES))
    params = draw(st.lists(st.sampled_from(_NUMERALS), max_size=3))
    return draw(st.sampled_from([family, f"{family}({','.join(params)})",
                                 f" {family.upper()} ( {', '.join(params)} ) "]))


_MODELS = st.lists(_model_strings(), min_size=1, max_size=3) | _model_strings()

# n from small to past 2^53 and the float range, with the bound's neighbours
_N = (st.integers(-5, 10**6) | st.integers(4, 10**400)
      | st.sampled_from([2**53, 10**13, 9_007_199_254_740, 9_007_199_254_741, 10**17, 10**400]))

# each key's values, most of them valid, some past a bound
_FIELDS = {
    "models": _MODELS,
    "n_values": st.lists(_N, min_size=1, max_size=3),
    "k_rule": st.fixed_dictionaries({"kind": st.just("fixed"), "fixed_k": st.integers(-1, 100)})
    | st.fixed_dictionaries({"kind": st.just("power")}, optional={
        "coeff": st.sampled_from([0.5, 1, 2.0, 1e308]), "gamma": st.sampled_from([0.2, 0.4, 1.5])}),
    "master_seed": st.integers(-(2**70), 2**70),
    "statistics": st.lists(st.sampled_from(STATISTIC_IDS), max_size=6),
    "betas": st.lists(st.sampled_from([1, 1.0, 2, 2.0, 0.5, 0, -1, 10**400]), max_size=4),
    "checks": st.lists(st.sampled_from(DEFAULT_CHECKS), max_size=3),
    "s_grid": st.fixed_dictionaries({}, optional={
        "start": st.sampled_from([0.5, 0.1, 0.6, 0]), "ratio": st.sampled_from([0.5, 1.5]),
        "count": st.integers(-1, 4)}),
    "dump_samples": st.booleans(),
}


@st.composite
def _configs(draw):
    """A config object; half of them give one key, perhaps an unknown
    one, a JSON value of any type."""
    config = draw(st.fixed_dictionaries({"replicates": st.integers(1, 8)}, optional=_FIELDS))
    if draw(st.booleans()):
        config[draw(st.sampled_from([*_FIELDS, "replicates", "replicate"]))] = draw(_JUNK)
    return config


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["functionals", "lemmas", "simulate"]), config=_configs())
@example(command="simulate", config={"models": ["exponential(1)"], "n_values": [10**400],
                                     "k_rule": {"kind": "fixed", "fixed_k": 76},
                                     "replicates": 8})
def test_a_random_config_exits_cleanly(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--output-dir", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert err.getvalue().startswith("config error: ")
        assert err.getvalue().count("\n") == 1
