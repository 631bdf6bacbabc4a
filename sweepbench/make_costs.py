#!/usr/bin/env python3
"""Regenerate ``costs.json``: the per-form cost table the draws group on.

For each (microarchitecture, measurement config) pair the benchmark
draws from, every checkable supported form is characterized serially
on one runner, and the µops renamed while characterizing it are
recorded (counted by the ``pipeline.core.rename`` span of
``layers.py``).  µops renamed are a deterministic count that tracks host
time closely (correlation 0.98 per form on SKL and NHM, against 0.94
for kernel cycles on NHM, where extrapolation hides most cycles), so
cost groups built from them give every seed's draw nearly the same
amount of work.

Run from the repository root (about 25 minutes per table; run one
process per table to use two cores)::

    python3 sweepbench/make_costs.py [SKL-default NHM-paper ...]

The table only shapes which forms a seed draws; a stale table still
gives valid, if less evenly sized, draws.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core.sweep import SweepEngine  # noqa: E402

import layers  # noqa: E402
from truth import TruthReport, checkable  # noqa: E402
from workloads import CONFIGS, COSTS_PATH  # noqa: E402


def cost_table(uarch_name: str, config_name: str):
    engine = SweepEngine(uarch_name, config=CONFIGS[config_name]())
    runner = engine.runner
    _ = runner.blocking
    costs = {}
    report = TruthReport()
    tracer = layers.Tracer()
    rename = tracer.layers["pipeline.core.rename"]
    restore = layers.install(tracer)
    try:
        for form in engine.supported_forms():
            if not checkable(form, engine.uarch):
                continue
            before = rename.get("uops", 0)
            result = runner.characterize_resilient(form)
            costs[form.uid] = rename.get("uops", 0) - before
            report.check(form, result, engine.uarch)
    finally:
        restore()
    return costs, report


def main(argv) -> int:
    names = argv or ["SKL-default", "NHM-paper"]
    computed = {}
    for name in names:
        uarch_name, config_name = name.split("-")
        costs, report = cost_table(uarch_name, config_name)
        computed[name] = costs
        print(
            f"{name}: {len(costs)} forms, {sum(costs.values())} uops, "
            f"{len(report.failed)} ground-truth failures "
            f"{report.failed[:10]}",
            flush=True,
        )
    # Merge into the table as it is now, so tables computed by
    # concurrent invocations for different names all survive.
    table = {}
    if os.path.exists(COSTS_PATH):
        with open(COSTS_PATH, encoding="utf-8") as handle:
            table = json.load(handle)
    table.update(computed)
    with open(COSTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
