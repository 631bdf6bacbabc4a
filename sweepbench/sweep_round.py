#!/usr/bin/env python3
"""One benchmark round, in a fresh process.

A round sets up (imports, database, engine, seeded draw), runs one cold
sweep of the draw into a fresh cache directory through the public API
``repro sweep`` uses (``SweepEngine.sweep``, ``results_to_xml``,
``write_xml``), then re-sweeps the same forms warm for
:data:`WARM_SECONDS`, each warm pass with a freshly built
``SweepEngine`` and ``ResultCache`` that reload from disk.  It checks
every characterized form against the ground-truth tables and every warm
XML against the cold XML byte for byte, and prints one JSON object.

``run.py`` drives rounds; run one alone to debug::

    python3 sweepbench/sweep_round.py --workload cold-skl-default --seed 1 \\
        --work-dir .sweepbench-work/debug
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core import xml_output  # noqa: E402
from repro.core.cache import ResultCache  # noqa: E402
from repro.core.sweep import SweepEngine  # noqa: E402
from repro.isa.database import load_default_database  # noqa: E402
from repro.uarch.configs import get_uarch  # noqa: E402

import layers  # noqa: E402
from truth import TruthReport  # noqa: E402
from workloads import WORKLOADS, draw_forms  # noqa: E402

#: Warm re-sweeps per round: at least this many seconds and passes
#: (one pass takes 0.1-0.3 s, and about every third pass is slower,
#: so a round needs many passes for a steady mean).
WARM_SECONDS = 4.0
MIN_WARM_PASSES = 20

#: RunStatistics counters reported per round.  On the serial workloads
#: they are exact, so every round of one seed must agree on them.
COUNTERS = (
    "characterized", "cycles_simulated", "cycles_extrapolated",
    "runs_extrapolated", "experiments_planned", "experiments_measured",
    "memo_hits", "memo_misses", "units_leased", "units_stolen",
    "units_acked",
)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _mismatched_forms(cold: bytes, warm: bytes, uids):
    """Uids whose XML differs between two documents (all of them when
    the bytes differ outside any form's element)."""
    if cold == warm:
        return set()
    cold_forms, warm_forms = (
        {element.get("string"): ET.tostring(element)
         for element in ET.fromstring(data)}
        for data in (cold, warm)
    )
    differing = {
        uid for uid in uids if cold_forms.get(uid) != warm_forms.get(uid)
    }
    return differing or set(uids)


def run_round(workload, seed: int, work_dir: str, trace: bool,
              warm_seconds: float, started: float, cpu=None,
              setup_only: bool = False) -> dict:
    """One round; *started* is when the process began setting up.

    With *cpu* the round runs on that CPU alone, except that a queue
    sweep's cold sweep spreads its drainers over every CPU the process
    was allowed at the start.  With *setup_only* it stops after set-up.
    """
    every_cpu = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    os.makedirs(work_dir, exist_ok=True)
    database = load_default_database()
    uarch = get_uarch(workload.uarch)
    config = workload.measurement_config()
    cache_dir = os.path.join(work_dir, "cache")

    def engine() -> SweepEngine:
        return SweepEngine(
            uarch, database, config=config, jobs=workload.jobs,
            cache=ResultCache(cache_dir),
        )

    def write(sweep: SweepEngine, results, path: str) -> None:
        root = xml_output.results_to_xml(
            {uarch.name: results}, database,
            failures={uarch.name: sweep.failures} if sweep.failures
            else None,
        )
        xml_output.write_xml(root, path)

    cold = engine()
    forms = draw_forms(workload, seed, cold.supported_forms(), uarch)
    uids = [form.uid for form in forms]
    setup_end = time.perf_counter()
    setup_s = setup_end - started
    if setup_only:
        return {"setup_s": setup_s, "windows": {"setup": [started, setup_end]}}

    tracer = restore = None
    if trace:
        spool = os.path.join(work_dir, "spool")
        os.makedirs(spool)
        tracer = layers.Tracer(spool)
        restore = layers.install(tracer)
    try:
        cold_xml = os.path.join(work_dir, "cold.xml")
        if cpu is not None and workload.jobs > 1:
            os.sched_setaffinity(0, every_cpu)
        began = time.perf_counter()
        results = cold.sweep(forms)
        write(cold, results, cold_xml)
        cold_end = time.perf_counter()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        cold_s = cold_end - began
        #: Start and end of each timed phase on the monotonic clock the
        #: driving process shares, so it can match its host-speed samples.
        windows = {"setup": [started, setup_end], "cold": [began, cold_end]}
        cold_bytes = _read(cold_xml)

        warm_s = []
        warm_windows = []
        #: Distinct warm documents that differ from the cold one; they
        #: are parsed after the timed (and traced) passes.
        differing = set()
        warm_misses = 0
        deadline = time.perf_counter() + warm_seconds
        warm_xml = os.path.join(work_dir, "warm.xml")
        while len(warm_s) < MIN_WARM_PASSES or (
            time.perf_counter() < deadline
        ):
            began = time.perf_counter()
            warm = engine()
            write(warm, warm.sweep(forms), warm_xml)
            ended = time.perf_counter()
            warm_s.append(ended - began)
            warm_windows.append([began, ended])
            warm_misses += warm.statistics.cache_misses
            warm_bytes = _read(warm_xml)
            if warm_bytes != cold_bytes:
                differing.add(warm_bytes)
        traced = None
        if tracer is not None:
            traced = [tracer.totals()]
            for name in sorted(os.listdir(spool)):
                with open(os.path.join(spool, name), encoding="utf-8") as f:
                    traced.append(json.load(f))
    finally:
        if restore is not None:
            restore()

    xml_failed = set()
    for warm_bytes in differing:
        xml_failed |= _mismatched_forms(cold_bytes, warm_bytes, uids)
    report = TruthReport()
    for form in forms:
        report.check(form, results.get(form.uid), uarch)
    failed = {uid for uid, _ in report.failed} | xml_failed
    if warm_misses:
        # A warm pass that measured anything did not read the cache.
        failed |= set(uids)
    statistics = cold.statistics
    counters = {name: getattr(statistics, name) for name in COUNTERS}
    counters["measure_calls"] = cold.backend.measure_calls
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "forms": len(forms),
        "uids": uids,
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "windows": dict(windows, warm=warm_windows),
        "counters": counters,
        "truth": report.as_dict(),
        "xml_mismatched": sorted(xml_failed),
        "warm_misses": warm_misses,
        "failed": sorted(failed),
        "peak_rss_mb": rss_kb / 1024.0,
        "trace": traced,
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="CPU to run on")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up")
    args = parser.parse_args(argv)
    outcome = run_round(
        WORKLOADS[args.workload], args.seed, args.work_dir,
        bool(args.trace), WARM_SECONDS, STARTED, args.cpu, args.setup_only,
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
