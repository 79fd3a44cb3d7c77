"""Benchmark for the extremesum command line: timings, per-layer trace, golden outputs.

Run one workload:

    python3 bench/run.py --workload desk_cell --seed 7 --seconds 36 --trace 0

Every end-to-end metric for every workload, then the traced run:

    python3 bench/run.py --all --seconds 36

Fast self-check at reduced size (metric names, units, correctness gate):

    python3 bench/run.py --selfcheck

Output digests of two records (parent and change, same workload and seed):

    python3 bench/run.py --compare A.json B.json

Each CLI invocation runs ``extremesum.cli.main`` in a fresh interpreter
(``child.py``) on a config this script generates from the seed; the
package is imported from this checkout's ``src`` by absolute path.  The
program's outputs are checked on every invocation (see ``gate``).  The
last line of standard output is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics listed in BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run.  A record with the
environment, every invocation and the spans goes to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
DEADLINE_S = 170.0

# -- workloads ----------------------------------------------------------

CATALOG = ("exponential(1)", "gumbel(0,1)", "weibull(2)", "normal",
           "lognormal", "gamma(2)", "pareto(2)", "uniform")
GUMBEL_MODELS = CATALOG[:6]
STATISTICS = ["T1", "T2", "T3", "BDH", "MAX"]
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Command:
    label: str        # name in the output
    subcommand: str
    config: dict
    threads: int = 1
    golden: str = ""  # key in golden.json; commands sharing it must agree
    traced: bool = True

    @property
    def key(self):
        return self.golden or self.label


def desk_cell(seed, small=False):
    """The ROADMAP desk cell, at one and at two threads."""
    cfg = {"models": ["exponential(1)"], "n_values": [50000],
           "replicates": 100 if small else 2000, "master_seed": seed,
           "statistics": STATISTICS}
    return [Command("simulate_t1", "simulate", cfg, 1, "simulate"),
            Command("simulate_t2", "simulate", cfg, 2, "simulate", traced=False)]


def catalog_lemmas(seed, small=False):
    """Limit suite and functional tables over the whole catalog."""
    models = ["exponential(1)", "pareto(2)"] if small else list(CATALOG)
    cfg = {"models": models, "master_seed": seed,
           "s_grid": {"start": 0.1, "ratio": 0.1, "count": 3 if small else 8}}
    return [Command("lemmas", "lemmas", cfg),
            Command("functionals", "functionals", cfg)]


def catalog_sweep(seed, small=False):
    """Few long replicates over the Gumbel-domain models, n up to 1e9."""
    cfg = {"models": ["exponential(1)", "gamma(2)"] if small else list(GUMBEL_MODELS),
           "n_values": [5000, 10**9] if small else [5000, 50000, 10**9],
           "replicates": 2 if small else 5, "master_seed": seed,
           "statistics": STATISTICS}
    return [Command("simulate", "simulate", cfg)]


# name -> (function making its commands, outputs depend on the seed)
WORKLOADS = {
    "desk_cell": (desk_cell, True),
    "catalog_lemmas": (catalog_lemmas, False),
    "catalog_sweep": (catalog_sweep, True),
}

# -- metrics ------------------------------------------------------------

# End-to-end metrics: name -> (unit, workloads it applies to or None for all).
E2E = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "replicates_per_s": ("1/s", ("desk_cell", "catalog_sweep")),
    "order_stats_per_s": ("1/s", ("desk_cell", "catalog_sweep")),
    "checks_per_s": ("1/s", ("catalog_lemmas",)),
    "table_entries_per_s": ("1/s", ("catalog_lemmas",)),
    "peak_rss_mb": ("MB", None),
    "thread_speedup": ("ratio", ("desk_cell",)),
    "error_rate": ("ratio", None),
}
# The end-to-end metrics every workload reports in its result line; the
# others exist on some workloads only and are printed above it.
GATED = ("setup_s", "wall_s", "peak_rss_mb")

LAYERS = ("models", "quadrature", "functionals", "limits", "sampling", "clt",
          "gof", "reports", "config", "cli")

PER_LAYER = {
    "models.tail_quantile.calls": "count",
    "models.tail_quantile.elements": "count",
    "models.tail_quantile.self_s": "s",
    "models.tail_density.calls": "count",
    "models.tail_density.self_s": "s",
    "models.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.self_s": "s",
    "quadrature.max_abserr": "abs",
    "quadrature.failed": "count",
    "functionals.tail_scale.calls": "count",
    "functionals.tail_scale.s": "s",
    "functionals.tail_mean.calls": "count",
    "functionals.tail_mean.s": "s",
    "functionals.rate_integral.calls": "count",
    "functionals.rate_integral.s": "s",
    "functionals.tail_variance.calls": "count",
    "functionals.tail_variance.s": "s",
    "functionals.closed_share": "ratio",
    "functionals.flagged_entries": "count",
    "functionals.self_s": "s",
    "limits.suite_s.median": "s",
    "limits.suite_s.max": "s",
    "limits.rows": "count",
    "limits.flagged_rows": "count",
    "limits.self_s": "s",
    "sampling.draw_top_k.calls": "count",
    "sampling.draw_top_k.s": "s",
    "sampling.draw_sample_max.calls": "count",
    "sampling.draw_sample_max.s": "s",
    "sampling.clamped_draws": "count",
    "sampling.self_s": "s",
    "clt.cell_functionals.s": "s",
    "clt.statistics.s": "s",
    "clt.summarize.s": "s",
    "clt.nonfinite_replicates": "count",
    "clt.cell_s.median": "s",
    "clt.cell_s.max": "s",
    "clt.self_s": "s",
    "gof.ks_distance.s": "s",
    "gof.anderson_darling.s": "s",
    "gof.self_s": "s",
    "reports.write_s": "s",
    "reports.files_written": "count",
    "reports.bytes_written": "B",
    "reports.self_s": "s",
    "config.load_s": "s",
    "config.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_sum_s": "s",
}


def median_tail(values):
    """(median, (percentile, value) or None, n).

    The tail is the highest percentile with at least ten samples above
    it, which needs at least eleven samples.
    """
    xs = sorted(values)
    n = len(xs)
    tail = None
    if n >= 11:
        tail = (100.0 * (n - 10) / n, xs[n - 11])
    return statistics.median(xs), tail, n


# -- environment --------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _tree_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "extremesum"),
    }


# -- one invocation -----------------------------------------------------


def invoke(cmd, workdir, trace, deadline):
    """Run one CLI command in a fresh interpreter; returns (result, stderr)."""
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(cmd.config))
    spec = {
        "src": str(SRC), "config": "config.json", "trace": trace,
        "result": "result.json",
        "argv": [cmd.subcommand, "--config", "config.json",
                 "--output-dir", "out", "--threads", str(cmd.threads)],
    }
    (workdir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with open(workdir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "spec.json"],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    stderr = (workdir / "stderr.txt").read_text(errors="replace")
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return None, stderr
    return json.loads(result_path.read_text()), stderr


# -- correctness gate ---------------------------------------------------


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(outdir):
    """SHA-256 of every output file except manifest.json (it has a timestamp)."""
    return {p.name: sha256(p) for p in sorted(outdir.iterdir())
            if p.name != "manifest.json"}


def _read_outputs(cmd, outdir):
    """Work done, the exit code the outputs imply, and structural problems."""
    problems = []
    if cmd.subcommand == "simulate":
        doc = json.loads((outdir / "report.json").read_text())
        cells = doc["cells"]
        want = len(cmd.config["models"]) * len(cmd.config["n_values"])
        if len(cells) != want:
            problems.append(f"report.json has {len(cells)} cells, expected {want}")
        reps = cmd.config["replicates"]
        for cell in cells:
            stats = cell["statistics"]
            if sorted(stats) != sorted(cmd.config["statistics"]):
                problems.append(f"{cell['model']} n={cell['n']}: statistics {sorted(stats)}")
            for sid, s in stats.items():
                if s["count"] + s["numeric_failures"] != reps:
                    problems.append(f"{cell['model']} n={cell['n']} {sid}: "
                                    f"{s['count']} values for {reps} replicates")
        work = {"replicates": sum(c["replicates"] for c in cells),
                "order_stats": sum(c["replicates"] * (c["k"] + 1) for c in cells)}
        implied_exit = 4 if doc["verdict"] == "fail" else 0
    elif cmd.subcommand == "lemmas":
        with open(outdir / "limit_checks.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            problems.append("limit_checks.csv has no rows")
        work = {"checks": len(rows)}
        implied_exit = 4 if any(r["verdict"] != "pass" for r in rows) else 0
    else:
        entries = 0
        tables = sorted(outdir.glob("functionals_*.csv"))
        if len(tables) != len(cmd.config["models"]):
            problems.append(f"{len(tables)} functional tables for "
                            f"{len(cmd.config['models'])} models")
        for path in tables:
            lines = [ln for ln in path.read_text().splitlines()
                     if not ln.startswith("#")]
            entries += (len(lines) - 1) * (len(lines[0].split(",")) - 2)
        work = {"table_entries": entries}
        implied_exit = 0
    return work, implied_exit, problems


def gate(cmd, workdir, result, stderr, golden, seen):
    """Problems with one invocation (empty when correct) and the work it did.

    Correct means: no traceback; the manifest verifies; every output file
    matches the golden digests for this seed, or, with no golden, the
    digests of the first invocation with the same key in this run; the
    exit code matches the golden one and the one the outputs imply.
    """
    if result is None:
        return [f"crashed or timed out: {stderr.strip()[-300:]}"], {}, {}
    problems = []
    if result["error"] or "Traceback" in stderr:
        problems.append("traceback: " + (result["error"] or stderr)[-300:])
    outdir = workdir / "out"
    manifest = outdir / "manifest.json"
    if not manifest.exists():
        return problems + ["no manifest.json"], {}, {}
    from extremesum import reports

    try:
        problems += reports.verify_manifest(str(manifest))
        listed = set(reports.load_manifest(str(manifest))["outputs"])
    except Exception as exc:  # an unreadable manifest fails this invocation only
        problems.append(f"manifest: {exc!r}")
        listed = set()
    found = digests(outdir)
    if set(found) != listed:
        problems.append(f"files {sorted(found)} differ from manifest {sorted(listed)}")
    try:
        work, implied_exit, structural = _read_outputs(cmd, outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"], {}, found
    problems += structural
    expected = golden.get(cmd.key)
    want_exit = expected["exit"] if expected else implied_exit
    if result["exit"] != want_exit or result["exit"] != implied_exit:
        problems.append(f"exit {result['exit']}, expected {want_exit} "
                        f"(outputs imply {implied_exit})")
    reference = expected["digests"] if expected else seen.setdefault(cmd.key, found)
    bad = sorted(n for n in set(found) | set(reference)
                 if found.get(n) != reference.get(n))
    if bad:
        problems.append("digest mismatch: " + ", ".join(bad))
    return problems, work, found


def load_golden(workload, seed):
    if not GOLDEN.exists():
        return {}
    doc = json.loads(GOLDEN.read_text())
    seeded = WORKLOADS[workload][1]
    return doc.get(workload, {}).get(str(seed) if seeded else "any", {})


# -- a run --------------------------------------------------------------


class Run:
    """All invocations of one benchmark run, with their checks."""

    def __init__(self, workload, seed, small, workdir, deadline):
        self.workload = workload
        self.commands = WORKLOADS[workload][0](seed, small)
        self.golden = {} if small else load_golden(workload, seed)
        self.workdir = workdir
        self.deadline = deadline
        self.seen = {}
        self.records = []      # one per invocation

    def iteration(self, trace, only_traced=False):
        """Run the workload's commands once; returns their records."""
        out = []
        for cmd in self.commands:
            if only_traced and not cmd.traced:
                continue
            wd = self.workdir / f"{len(self.records):03d}-{cmd.label}"
            result, stderr = invoke(cmd, wd, trace, self.deadline)
            problems, work, found = gate(cmd, wd, result, stderr,
                                         self.golden, self.seen)
            rec = {"command": cmd.label, "subcommand": cmd.subcommand,
                   "threads": cmd.threads,
                   "traced": trace, "problems": problems, "work": work,
                   "digests": found}
            if result:
                rec.update({k: result[k] for k in
                            ("setup_s", "config_load_s", "command_s", "exit",
                             "rss_kb")})
                if trace:
                    rec["trace"] = result["trace"]
            self.records.append(rec)
            out.append(rec)
            shutil.rmtree(wd)
        return out

    def repeat(self, seconds, body):
        """Call body() until another call would overrun ``seconds`` (at least once)."""
        start = time.monotonic()
        longest = 0.0
        while True:
            t = time.monotonic()
            body()
            longest = max(longest, time.monotonic() - t)
            now = time.monotonic()
            if now - start + longest > seconds or now + longest > self.deadline:
                return

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if r["problems"])


def _sum(records, field, subcommand=None):
    return sum(r.get(field, 0.0) for r in records
               if subcommand in (None, r["subcommand"]))


def e2e_metrics(run, iterations):
    """End-to-end metrics of the untraced iterations (median over iterations)."""
    ok = [it for it in iterations if all("command_s" in r for r in it)]
    m = {}
    setups = [r["setup_s"] for r in run.records if "setup_s" in r]
    if setups:
        m["setup_s"] = median_tail(setups)
    if ok:
        m["wall_s"] = median_tail([_sum(it, "command_s") for it in ok])
        m["peak_rss_mb"] = median_tail(
            [max(r["rss_kb"] for r in it) / 1024.0 for it in ok])
        applies = lambda name: E2E[name][1] is None or run.workload in E2E[name][1]
        rates = {"replicates_per_s": ("replicates", "simulate"),
                 "order_stats_per_s": ("order_stats", "simulate"),
                 "checks_per_s": ("checks", "lemmas"),
                 "table_entries_per_s": ("table_entries", "functionals")}
        for name, (unit, subcommand) in rates.items():
            if applies(name):
                m[name] = median_tail([
                    sum(r["work"].get(unit, 0) for r in it)
                    / _sum(it, "command_s", subcommand) for it in ok])
        if applies("thread_speedup"):
            t1 = [r["command_s"] for it in ok for r in it if r["threads"] == 1]
            t2 = [r["command_s"] for it in ok for r in it if r["threads"] == 2]
            m["thread_speedup"] = (statistics.median(t1) / statistics.median(t2),
                                   None, len(t2))
    m["error_rate"] = (run.failed / max(1, run.attempted), None, run.attempted)
    return m


def _merge_traces(records):
    agg, count, spans = {}, {}, []
    for r in records:
        tr = r["trace"]
        for name, row in tr["agg"].items():
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in a:
                a[k] += row[k]
        for name, v in tr["count"].items():
            count[name] = (max(count.get(name, 0.0), v) if name.endswith("max_abserr")
                           else count.get(name, 0) + v)
        spans.extend(tr["spans"])
    return agg, count, spans


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced iteration, against an untraced one."""
    agg, count, spans = _merge_traces(traced)
    row = lambda name: agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    span_s = lambda name: [s["end"] - s["start"] for s in spans if s["name"] == name]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    m = {
        "models.tail_quantile.calls": row("models.tail_quantile")["calls"],
        "models.tail_quantile.elements": count.get("models.tail_quantile.elements", 0),
        "models.tail_quantile.self_s": row("models.tail_quantile")["self_s"],
        "models.tail_density.calls": row("models.tail_density")["calls"],
        "models.tail_density.self_s": row("models.tail_density")["self_s"],
        "quadrature.calls": count.get("quadrature.calls", 0),
        "quadrature.integrand_evals": count.get("quadrature.integrand_evals", 0),
        "quadrature.max_abserr": count.get("quadrature.max_abserr", 0.0),
        "quadrature.failed": count.get("quadrature.failed", 0),
    }
    fcalls = 0
    for f in ("tail_scale", "tail_mean", "rate_integral", "tail_variance"):
        r = row(f"functionals.{f}")
        m[f"functionals.{f}.calls"] = r["calls"]
        m[f"functionals.{f}.s"] = r["total_s"]
        fcalls += r["calls"]
    m["functionals.closed_share"] = (count.get("functionals.closed_calls", 0) / fcalls
                                     if fcalls else 0.0)
    m["functionals.flagged_entries"] = count.get("functionals.flagged_entries", 0)
    suites = span_s("limits.suite")
    cells = span_s("clt.cell")
    m.update({
        "limits.suite_s.median": med(suites),
        "limits.suite_s.max": max(suites, default=0.0),
        "limits.rows": count.get("limits.rows", 0),
        "limits.flagged_rows": count.get("limits.flagged_rows", 0),
        "sampling.draw_top_k.calls": row("sampling.draw_top_k")["calls"],
        "sampling.draw_top_k.s": row("sampling.draw_top_k")["total_s"],
        "sampling.draw_sample_max.calls": row("sampling.draw_sample_max")["calls"],
        "sampling.draw_sample_max.s": row("sampling.draw_sample_max")["total_s"],
        "sampling.clamped_draws": count.get("sampling.clamped_draws", 0),
        "clt.cell_functionals.s": row("clt.cell_functionals")["total_s"],
        "clt.statistics.s": row("clt.statistics")["total_s"],
        "clt.summarize.s": row("clt.summarize")["total_s"],
        "clt.nonfinite_replicates": count.get("clt.nonfinite_replicates", 0),
        "clt.cell_s.median": med(cells),
        "clt.cell_s.max": max(cells, default=0.0),
        "gof.ks_distance.s": row("gof.ks_distance")["total_s"],
        "gof.anderson_darling.s": row("gof.anderson_darling")["total_s"],
        "reports.write_s": row("reports.write")["total_s"],
        "reports.files_written": count.get("reports.files_written", 0),
        "reports.bytes_written": count.get("reports.bytes_written", 0),
        "config.load_s": med([r["config_load_s"] for r in traced]),
    })
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, r in agg.items():
        layer = "cli" if name == "command" else name.split(".")[0]
        by_layer[layer] += r["self_s"]
    for layer, s in by_layer.items():
        m[f"{layer}.self_s"] = s
    traced_wall = _sum(traced, "command_s")
    untraced_wall = _sum(untraced, "command_s")
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.layer_self_sum_s"] = sum(by_layer.values())
    return m, spans


# -- output -------------------------------------------------------------


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_e2e(workload, metrics):
    print(f"end-to-end metrics ({workload}, tracing off):")
    for name, (unit, only) in E2E.items():
        if name not in metrics:
            continue
        value, tail, n = metrics[name]
        tail_txt = (f"p{tail[0]:.0f}={_fmt(tail[1])}" if tail
                    else "tail n/a (needs 11+ samples)")
        print(f"  {name:<20} {_fmt(value):>12} {unit:<6} median, {tail_txt}, n={n}")


def print_layers(workload, m, spans, traced, n):
    print(f"per-layer metrics ({workload}, traced run, median of {n}):")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<34} {_fmt(m[name]):>12} {unit}")
    wall = m["trace.wall_s"] or 1.0
    print("  self time by layer (blocking path, one thread):")
    for layer in LAYERS:
        s = m[f"{layer}.self_s"]
        print(f"    {layer:<12} {s:10.4f} s  {100.0 * s / wall:5.1f} %")
    print(f"  tracing overhead: {_fmt(m['trace.overhead_s'])} s "
          f"(traced {_fmt(m['trace.wall_s'])} s, untraced "
          f"{_fmt(m['trace.untraced_wall_s'])} s)")
    gap = abs(m["trace.layer_self_sum_s"] - m["trace.untraced_wall_s"])
    print(f"  layer self times sum to {_fmt(m['trace.layer_self_sum_s'])} s; "
          f"|sum - untraced wall| = {_fmt(gap)} s, "
          f"{'within' if gap <= abs(m['trace.overhead_s']) + 1e-3 else 'OUTSIDE'} "
          f"the tracing overhead")
    missing = sorted({p for r in traced for p in r["trace"]["missing"]})
    hook_errors = sum(r["trace"]["count"].get("trace.hook_errors", 0) for r in traced)
    if missing or hook_errors:
        print(f"  WARNING: patch points not found: {missing or 'none'}; "
              f"recording hooks that failed: {hook_errors}")
    for r in traced:
        tq = r["trace"]["agg"].get("models.tail_quantile", {"calls": 0, "self_s": 0.0})
        print(f"    {r['command']}: {r['command_s']:.4f} s traced, "
              f"{tq['calls']} tail_quantile calls ({tq['self_s']:.4f} s self)")
    suites = [(s["attrs"]["model"], s["end"] - s["start"]) for s in spans
              if s["name"] == "limits.suite"]
    for model, s in suites:
        print(f"    limits.suite_s[{model}] = {s:.4f} s")
    if workload == "desk_cell":
        calls = m["models.tail_quantile.calls"]
        share = m["models.tail_quantile.self_s"] / m["trace.wall_s"]
        explained = (140_000 <= calls <= 170_000 and share > 0.5
                     and m["quadrature.calls"] == 0)
        print(f"  desk_cell profile: tail_quantile calls={_fmt(calls)}, self time "
              f"{100 * share:.0f} % of traced wall, quadrature calls="
              f"{_fmt(m['quadrature.calls'])} -> "
              f"{'matches' if explained else 'differs from'} the ROADMAP baseline")
    if workload == "catalog_sweep":
        print("  draw_top_k cost by n (flat in n means a replicate is O(k)):")
        for line in _per_n_costs(spans):
            print("    " + line)


def _per_n_costs(spans):
    """draw_top_k time per drawn order statistic, for each n of the sweep."""
    by_n = {}
    for s in spans:
        if s["name"] == "clt.cell":
            a = s["attrs"]
            draw_s = s["children_s"].get("sampling.draw_top_k", 0.0)
            by_n.setdefault((a["n"], a["k"]), []).append(
                draw_s / (a["replicates"] * (a["k"] + 1)))
    return [f"n={n:<11} k={k:<5} {1e6 * statistics.median(per):.2f} us per "
            f"order statistic (median over {len(per)} models)"
            for (n, k), per in sorted(by_n.items())]


def print_problems(run):
    for r in run.records:
        for p in r["problems"]:
            print(f"  FAILED {r['command']} (threads {r['threads']}): {p}")


def write_record(name, doc):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    return path


# -- modes --------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, small=False):
    """One benchmark run; prints the report and returns the result object."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workdir = OUT / f"work-{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(workload, seed, small, workdir, deadline)
    env = environment()
    print(f"== extremesum benchmark: {workload}, seed {seed}, trace {int(trace)}"
          f"{', reduced size' if small else ''} ==")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    golden = "golden digests for this seed" if run.golden else \
        "no golden for this seed: digests must agree within the run"
    print(f"correctness: {golden}")
    iterations, pairs = [], []
    try:
        if not trace:
            run.repeat(seconds, lambda: iterations.append(run.iteration(False)))
        else:
            def pair():
                untraced = run.iteration(False, only_traced=True)
                pairs.append((run.iteration(True, only_traced=True), untraced))
            run.repeat(seconds, pair)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_problems(run)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "small": small, "env": env,
              "invocations": [{k: v for k, v in r.items() if k != "trace"}
                              for r in run.records]}
    if not trace:
        metrics = e2e_metrics(run, iterations)
        print_e2e(workload, metrics)
        print(f"  error_rate detail: {run.failed} of {run.attempted} invocations failed")
        record["metrics"] = {k: {"median": v[0], "tail": v[1], "n": v[2],
                                 "unit": E2E[k][0]} for k, v in metrics.items()}
        result = {name: (metrics[name][0], E2E[name][0]) for name in GATED
                  if name in metrics}
    else:
        usable = [(t, u) for t, u in pairs
                  if all("trace" in r for r in t) and all("command_s" in r for r in u)]
        per = [layer_metrics(t, u)[0] for t, u in usable]
        # Counts repeat exactly, so take one of them rather than an average.
        metrics = {name: (statistics.median_low if unit in ("count", "B")
                          else statistics.median)([p[name] for p in per])
                   for name, unit in PER_LAYER.items()} if per else {}
        if per:
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                           - metrics["trace.untraced_wall_s"])
            spans = layer_metrics(*usable[-1])[1]
            print_layers(workload, metrics, spans, usable[-1][0], len(per))
            record["spans"] = spans
        record["metrics"] = metrics
        result = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()
                  if name in metrics}
    path = write_record(f"BENCH_{workload}_seed{seed}_trace{int(trace)}"
                        f"{'_small' if small else ''}.json", record)
    print(f"record: {path.relative_to(ROOT)}  ({time.monotonic() - start:.1f} s)")
    complete = len(result) == (len(PER_LAYER) if trace else len(GATED))
    return {
        "correct": run.failed == 0 and complete,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }


def record_golden(workload, seed):
    """Add golden digests and exit codes for one seed.

    An existing golden for the seed is checked like any other run, so a
    run whose outputs differ from it is refused, not recorded.
    """
    deadline = time.monotonic() + 900.0
    workdir = OUT / f"golden-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(workload, seed, False, workdir, deadline)
    try:
        records = run.iteration(False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.failed:
        print_problems(run)
        raise SystemExit("not recording a golden from a failed run")
    entry = {}
    for cmd, rec in zip(run.commands, records):
        entry[cmd.key] = {"exit": rec["exit"], "digests": rec["digests"]}
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    key = str(seed) if WORKLOADS[workload][1] else "any"
    doc.setdefault(workload, {})[key] = entry
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"golden {workload} seed {key}: {json.dumps(entry)}")


def compare(path_a, path_b):
    """Digest equality between two records of the same workload and seed.

    This is the correctness check for a seed without a golden: run the
    parent and the change, then compare their records.
    """
    def first_digests(path):
        doc = json.loads(Path(path).read_text())
        found = {}
        for inv in doc["invocations"]:
            found.setdefault(inv["command"], inv["digests"])
        return (doc["workload"], doc["seed"]), found

    (key_a, a), (key_b, b) = first_digests(path_a), first_digests(path_b)
    if key_a != key_b:
        raise SystemExit(f"records are for different runs: {key_a} vs {key_b}")
    common = sorted(set(a) & set(b))
    if not common:
        raise SystemExit("the records share no command")
    bad = [c for c in common if a[c] != b[c]]
    for c in bad:
        print(f"outputs differ: {c}")
    print(f"outputs identical for {', '.join(common)}" if not bad
          else f"{len(bad)} of {len(common)} command(s) differ")
    return 1 if bad else 0


def selfcheck():
    """Reduced-size run of every workload, checking names, units and the gate."""
    import contextlib
    import io

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                res = run_workload(workload, DEFAULT_SEED, 1, trace, small=True)
            text = buf.getvalue()
            sys.stdout.write(text)
            if not res["correct"]:
                failures.append(f"{workload} trace={int(trace)}: not correct")
            want = ([(m["name"], m["unit"]) for m in spec["per_layer"]] if trace else
                    [(m["name"], m["unit"]) for m in spec["end_to_end"]]
                    + [(n, u) for n, (u, only) in E2E.items()
                       if only is None or workload in only])
            for name, unit in want:
                if not any(name in line.split() and unit in line.split()
                           for line in text.splitlines()):
                    failures.append(f"{workload}: {name} [{unit}] not printed")
                got = res["metrics"].get(name)
                if name in (GATED if not trace else PER_LAYER) and (
                        got is None or got["unit"] != unit):
                    failures.append(f"{workload}: {name} missing from result line")
    # The gate must reject a flipped output byte.
    workdir = OUT / f"selfcheck-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run("desk_cell", DEFAULT_SEED, True, workdir, time.monotonic() + 600)
    try:
        cmd = run.commands[0]
        wd = workdir / "flip"
        result, stderr = invoke(cmd, wd, False, run.deadline)
        clean, _, _ = gate(cmd, wd, result, stderr, {}, run.seen)
        target = wd / "out" / "report.csv"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        flipped, _, _ = gate(cmd, wd, result, stderr, {}, run.seen)
        if clean or not any("digest mismatch" in p for p in flipped) \
                or not any("checksum mismatch" in p for p in flipped):
            failures.append(f"flipped byte not caught: clean={clean} flipped={flipped}")
        else:
            print("gate catches a flipped output byte: " + "; ".join(flipped))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print("SELFCHECK FAILURE: " + f)
    print("selfcheck: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD",
                        help="compare the output digests of two BENCH_*.json records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (SRC / "extremesum" / "__init__.py").exists():
        print(f"error: no extremesum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.selfcheck:
        return selfcheck()
    if args.all:
        for workload in WORKLOADS:
            for trace in (False, True):
                res = run_workload(workload, args.seed, args.seconds, trace)
                print(json.dumps(res))
                print()
        return 0
    if not args.workload:
        parser.error("give --workload, --all or --selfcheck")
    if args.record_golden:
        record_golden(args.workload, args.seed)
        return 0
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
