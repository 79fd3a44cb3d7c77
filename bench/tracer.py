"""Per-layer tracing for one extremesum CLI invocation.

The benchmark never edits the package: ``install()`` replaces public
functions with timing wrappers at every place their name is looked up
(the defining module and every ``extremesum`` module that imported the
name), so internal calls are seen as well as calls from the CLI.

Two kinds of record are kept, both in memory until ``result()``:

* aggregates (calls, total and self time) for every wrapped function,
  including the hot ones called 1e5+ times per run (``tail_quantile``,
  quadrature integrands), which would be too many to keep as spans;
* spans at coarse boundaries only: the command, each simulation cell,
  each model's limit suite and each model's functional table.  A span
  records its parent and the time of its direct wrapped calls by name.

Self time is a frame's duration minus the time covered by the wrapped
calls made inside it, so the self times of all frames add up to the
command's wall time.  Counters assume one thread: traced commands run
with ``--threads 1``.
"""

from __future__ import annotations

import sys
import time

_perf = time.perf_counter


class Recorder:
    """Frame stack, aggregates, counters and spans of one traced command."""

    def __init__(self):
        self.stack = []      # frames: [name, start, child_s, span or None]
        self.agg = {}        # name -> [calls, total_s, self_s]
        self.count = {}      # name -> number
        self.spans = []
        self.missing = []    # patch points the package no longer has

    def bump(self, name, amount=1):
        self.count[name] = self.count.get(name, 0) + amount

    def enter(self, name, attrs=None):
        """Open a frame; with ``attrs`` it is also recorded as a span."""
        span = None
        if attrs is not None:
            parent = next((f[3]["id"] for f in reversed(self.stack) if f[3]), None)
            span = {"id": len(self.spans), "parent": parent, "name": name,
                    "attrs": attrs, "children_s": {}}
            self.spans.append(span)
        frame = [name, 0.0, 0.0, span]
        self.stack.append(frame)
        frame[1] = _perf()

    def exit(self):
        """Close the innermost frame and charge its time to its parent."""
        end = _perf()
        name, start, child_s, span = self.stack.pop()
        dur = end - start
        row = self.agg.get(name)
        if row is None:
            row = self.agg[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_s
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            if parent[3] is not None:
                children = parent[3]["children_s"]
                children[name] = children.get(name, 0.0) + dur
        if span is not None:
            span["start"] = start
            span["end"] = end
            span["self_s"] = dur - child_s

    def result(self):
        return {
            "agg": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                    for k, v in self.agg.items()},
            "count": dict(self.count),
            "spans": self.spans,
            "missing": self.missing,
        }


def _guarded(rec, hook, *args, **kwargs):
    """Run a recording hook; a hook that no longer fits the package's
    signatures is counted, never allowed to break the traced command."""
    try:
        return hook(*args, **kwargs)
    except Exception:
        rec.bump("trace.hook_errors")
        return None


def _timed(rec, name, fn, attrs=None, after=None):
    def wrapper(*args, **kwargs):
        span = _guarded(rec, attrs, *args, **kwargs) if attrs else None
        rec.enter(name, span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            _guarded(rec, after, out, *args, **kwargs)
        return out

    return wrapper


def _replace_everywhere(original, replacement):
    """Rebind every extremesum module attribute that holds ``original``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "extremesum"
                               or modname.startswith("extremesum.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(rec, module, attr, make_wrapper):
    """Replace ``module.attr`` everywhere; a missing name is recorded, not fatal."""
    original = getattr(module, attr, None)
    if original is None:
        rec.missing.append(f"{module.__name__}.{attr}")
        return
    _replace_everywhere(original, make_wrapper(original))


def _wrap_function(rec, module, attr, name, **kw):
    _patch(rec, module, attr, lambda original: _timed(rec, name, original, **kw))


def install() -> Recorder:
    """Wrap the package's layer boundaries; returns the live recorder."""
    from extremesum import (cli, clt, functionals, gof, limits, models,
                            quadrature, reports, sampling)
    from extremesum.errors import QuadratureError

    rec = Recorder()

    # models: tail_quantile lives on the base class only; tail_density is
    # defined per model class.
    def count_elements(out, self, t, *a, **k):
        rec.bump("models.tail_quantile.elements", getattr(t, "size", 1))

    models.TailModel.tail_quantile = _timed(
        rec, "models.tail_quantile", models.TailModel.tail_quantile,
        after=count_elements)
    for cls in vars(models).values():
        if isinstance(cls, type) and "tail_density" in vars(cls):
            cls.tail_density = _timed(rec, "models.tail_density",
                                      vars(cls)["tail_density"])

    # quadrature: count integrand evaluations by wrapping ``fn``.
    def quad_wrapper(original):
        def wrapper(fn, *args, **kwargs):
            def counted(x):
                rec.bump("quadrature.integrand_evals")
                return fn(x)

            rec.bump("quadrature.calls")
            rec.enter("quadrature")
            try:
                val, err = original(counted, *args, **kwargs)
            except QuadratureError:
                rec.bump("quadrature.failed")
                raise
            finally:
                rec.exit()
            if err > rec.count.get("quadrature.max_abserr", 0.0):
                rec.count["quadrature.max_abserr"] = err
            return val, err

        return wrapper

    for attr in ("semiinf_quad", "log_interval_quad"):
        _patch(rec, quadrature, attr, quad_wrapper)

    # functionals: a call is "closed" when no quadrature ran inside it.
    def functional_wrapper(name, original):
        def wrapper(*args, **kwargs):
            before = rec.count.get("quadrature.calls", 0)
            rec.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                rec.exit()
                if rec.count.get("quadrature.calls", 0) == before:
                    rec.bump("functionals.closed_calls")

        return wrapper

    for attr in ("tail_scale", "tail_mean", "rate_integral", "tail_variance"):
        _patch(rec, functionals, attr,
               lambda original, attr=attr: functional_wrapper(
                   f"functionals.{attr}", original))

    def table_done(table, model, *a, **k):
        rec.bump("functionals.flagged_entries", len(table.notes))

    _wrap_function(rec, functionals, "build_functional_table",
                   "functionals.table",
                   attrs=lambda model, *a, **k: {"model": model.describe()},
                   after=table_done)

    # limits: one span per model's suite.
    def suite_done(rows, model, *a, **k):
        rec.bump("limits.rows", len(rows))
        rec.bump("limits.flagged_rows", sum(1 for r in rows if not r.values))

    _wrap_function(rec, limits, "run_limit_suite", "limits.suite",
                   attrs=lambda model, *a, **k: {"model": model.describe()},
                   after=suite_done)

    # sampling
    _wrap_function(rec, sampling, "draw_top_k", "sampling.draw_top_k",
                   after=lambda d, *a, **k: rec.bump("sampling.clamped_draws",
                                                     int(d.clamped)))
    _wrap_function(rec, sampling, "draw_sample_max", "sampling.draw_sample_max")

    # clt: one span per cell; statistics share one aggregate.
    _wrap_function(rec, clt, "_run_cell", "clt.cell",
                   attrs=lambda model, n, k, replicates, *a, **kw: {
                       "model": model.describe(), "n": int(n), "k": int(k),
                       "replicates": int(replicates)})
    _wrap_function(rec, clt, "cell_functionals", "clt.cell_functionals")
    for attr in ("statistic_T1", "statistic_T2", "statistic_T3"):
        _wrap_function(rec, clt, attr, "clt.statistics")
    _wrap_function(rec, sampling, "balkema_dehaan_stat", "clt.statistics")
    _wrap_function(rec, clt, "summarize_statistic", "clt.summarize",
                   after=lambda s, stat, values, failures, *a, **k:
                   rec.bump("clt.nonfinite_replicates", int(failures)))

    # gof: summarize_statistic imports these from the module at call time.
    _wrap_function(rec, gof, "ks_distance", "gof.ks_distance")
    _wrap_function(rec, gof, "anderson_darling", "gof.anderson_darling")

    # reports: the writers the CLI calls, plus a byte count of every file.
    for attr in ("write_functional_tables", "write_limit_reports",
                 "write_simulation", "write_manifest"):
        _wrap_function(rec, reports, attr, "reports.write")

    def written(_out, path, text, *a, **k):
        rec.bump("reports.files_written")
        rec.bump("reports.bytes_written", len(text.encode("utf-8")))

    _wrap_function(rec, reports, "atomic_write_text", "reports.atomic_write",
                   after=written)

    # config: the CLI's own load and validate inside the command.
    _wrap_function(rec, cli, "_load_config", "config.cli_load")
    return rec
