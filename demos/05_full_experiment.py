#!/usr/bin/env python3
"""A complete experiment run: simulate, write reports, verify, summarize.

This is the library view of what the command line does:

    extremesum simulate --config cfg.json --output-dir out
    extremesum report out/manifest.json --output-dir out

Reports are written atomically and listed in a manifest with sha256
checksums, so a later `report` invocation can prove the files it merges
are the ones the simulation wrote.
"""

import json
from pathlib import Path

from extremesum import ExperimentConfig, run_experiment
from extremesum.reports import (
    summarize_manifests, verify_manifest, write_manifest, write_simulation,
)

outdir = Path("demo_output")
outdir.mkdir(exist_ok=True)

config = ExperimentConfig(
    models=["exponential(1.0)"],
    n_values=[5000, 50000],
    replicates=2000,
    master_seed=29,
    statistics=("T1", "T3", "BDH", "MAX"),
)
result = run_experiment(config)

written = write_simulation(result, config, outdir)
manifest_path = write_manifest(outdir, config, written)
print("wrote:")
for p in sorted(written):
    print("  ", p)
print("  ", manifest_path)

problems = verify_manifest(manifest_path)
print("manifest verification:", "clean" if not problems else problems)

doc = json.loads(Path(outdir / "report.json").read_text())
print()
print("verdict:", doc["verdict"])
for cell in doc["cells"]:
    for sid, summ in cell["statistics"].items():
        ks = "-" if summ["ks"] is None else f"{summ['ks']:.4f}"
        print(f"  n={cell['n']:<6} {sid:<4} mean {summ['mean']:+.4f}  "
              f"var {summ['variance']:.4f}  KS {ks:<6}  -> {summ['verdict']}")

# The markdown summary merges any number of manifests; here just one.
text, _all_pass = summarize_manifests([manifest_path])
print()
print(text)
