"""Self-tests of the benchmark: wrap points, counters, checks.

Run from the repository root (about a minute)::

    python3 -m pytest -q sweepbench
"""

import dataclasses
import importlib
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from sweep_round import _mismatched_forms, run_round  # noqa: E402
from truth import TruthReport  # noqa: E402
from workloads import WORKLOADS, draw_forms  # noqa: E402

#: Layers every cold sweep must reach, whatever its mode.
SWEEP_LAYERS = (
    "pipeline.core.rename", "pipeline.semantics.evaluate",
    "pipeline.event_kernel", "measure.extrapolate", "measure.executor",
    "measure.backend", "core.runner", "core.cache", "core.journal",
    "core.xml_output",
)


def tiny(name: str, forms: int = 3):
    return dataclasses.replace(WORKLOADS[name], forms=forms)


def traced_round(workload, seed, tmp_path, tag, trace=True):
    return run_round(
        workload, seed, str(tmp_path / tag), trace, 0.0,
        time.perf_counter(),
    )


def layer_totals(outcome):
    merged = {}
    for process in outcome["trace"]:
        for layer, stats in process["layers"].items():
            for key, value in stats.items():
                merged.setdefault(layer, {}).setdefault(key, 0)
                merged[layer][key] += value
    return merged


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_install_restores_every_original():
    originals = []
    for _, target, callers, _, _ in layers.WRAP_POINTS:
        module, owner, name, value = layers._resolve(target)
        holders = [owner] if owner is not module else [
            importlib.import_module(c) for c in callers
        ] or [module]
        originals.extend((holder, name, holder.__dict__[name])
                         for holder in holders)
    restore = layers.install(layers.Tracer())
    try:
        for holder, name, original in originals:
            assert holder.__dict__[name] is not original, (holder, name)
    finally:
        restore()
    for holder, name, original in originals:
        assert holder.__dict__[name] is original, (holder, name)


def test_moved_wrap_point_fails_loudly(monkeypatch):
    import repro.pipeline.core as core

    def evaluate(*args, **kwargs):  # a re-import of another function
        raise AssertionError("never called")

    monkeypatch.setattr(core, "evaluate", evaluate)
    with pytest.raises(RuntimeError, match="wrap point moved"):
        layers.install(layers.Tracer())
    monkeypatch.undo()

    from repro.measure.backend import HardwareBackend

    monkeypatch.delattr(HardwareBackend, "measure_many")
    with pytest.raises(AttributeError):
        layers.install(layers.Tracer())


def test_self_time_adds_up():
    tracer = layers.Tracer()
    inner = tracer.span("core.cache", lambda: time.sleep(0.02))

    def work():
        time.sleep(0.01)
        inner()

    tracer.span("core.runner", work)()
    time.sleep(0.01)
    metrics = layers.summarize([tracer.totals()])
    assert metrics["core.cache.self_s"] == pytest.approx(0.02, abs=0.01)
    assert metrics["core.runner.self_s"] == pytest.approx(0.01, abs=0.01)
    assert metrics["unattributed_s"] >= 0.01
    assert metrics["trace.attribution_gap_frac"] < 1e-6


def test_host_probe_scales_by_cpu_and_window():
    import run

    probe = run.HostProbe([0, 1])
    reference = run.REFERENCE_KERNEL_S
    # CPU 0 runs the kernel at reference speed, CPU 1 at half of it.
    probe.samples = [
        (float(t), t % 2, reference * (1 + t % 2)) for t in range(20)
    ]
    assert probe.scale(0, 19, {0}) == pytest.approx(1.0)
    assert probe.scale(0, 19, {1}) == pytest.approx(0.5)
    assert probe.scale(0, 19) == pytest.approx(1 / 1.5)
    # Too short a window falls back to the nearest samples.
    assert probe.scale(4.1, 4.2, {1}) == pytest.approx(0.5)


def test_host_probe_samples_every_cpu():
    import run

    cpus = sorted(os.sched_getaffinity(0))
    with run.HostProbe(cpus, period=0.01) as probe:
        time.sleep(0.3)
    assert {where for _, where, _ in probe.samples} == set(cpus)
    assert all(cpu > 0 for _, _, cpu in probe.samples)


def test_draw_is_seeded_and_stratified():
    from repro.isa.database import load_default_database
    from repro.uarch.configs import get_uarch

    database = load_default_database()
    uarch = get_uarch("SKL")
    workload = WORKLOADS["cold-skl-default"]
    first = draw_forms(workload, 1, list(database), uarch)
    again = draw_forms(workload, 1, list(database), uarch)
    other = draw_forms(workload, 2, list(database), uarch)
    assert [f.uid for f in first] == [f.uid for f in again]
    assert [f.uid for f in first] != [f.uid for f in other]
    assert len({f.uid for f in first}) == workload.forms


def test_checks_flag_wrong_results():
    from repro.core.result import PortUsage
    from repro.core.sweep import SweepEngine

    engine = SweepEngine("SKL")
    form = engine.database.by_uid("ADD_R64_R64")
    result = engine.runner.characterize(form)
    report = TruthReport()
    report.check(form, result, engine.uarch)
    wrong = dataclasses.replace(
        result, port_usage=PortUsage({frozenset({0}): 1})
    )
    report.check(form, wrong, engine.uarch)
    report.check(form, None, engine.uarch)
    assert report.ports_exact == 1
    assert [uid for uid, _ in report.failed] == ["ADD_R64_R64"] * 2

    cold = (b"<root><instruction string='A'/><instruction string='B'/>"
            b"</root>")
    warm = cold.replace(b"'B'/>", b"'B' x='1'/>")
    assert _mismatched_forms(cold, warm, ["A", "B"]) == {"B"}
    assert _mismatched_forms(cold, cold + b"\n", ["A", "B"]) == {"A", "B"}
    assert _mismatched_forms(cold, cold, ["A", "B"]) == set()


@pytest.mark.slow
def test_serial_round_traces_every_layer_and_repeats(tmp_path):
    workload = tiny("cold-skl-default")
    plain = traced_round(workload, 5, tmp_path, "plain", trace=False)
    first = traced_round(workload, 5, tmp_path, "first")
    second = traced_round(workload, 5, tmp_path, "second")
    for outcome in (plain, first, second):
        assert outcome["failed"] == []
    # Tracing leaves the XML bytes unchanged.
    assert read(tmp_path / "plain" / "cold.xml") == read(
        tmp_path / "first" / "cold.xml"
    )
    # Exact counters repeat at one seed, traced or not.
    assert plain["counters"] == first["counters"] == second["counters"]
    one, two = layer_totals(first), layer_totals(second)
    assert one["pipeline.core.rename"]["uops"] == (
        two["pipeline.core.rename"]["uops"]
    )
    for layer in SWEEP_LAYERS + ("core.blocking",):
        assert one[layer]["calls"] > 0, layer
    assert one["pipeline.event_kernel"]["cycles"] == (
        first["counters"]["cycles_simulated"]
    )
    assert one["measure.backend"]["measure_calls"] == (
        first["counters"]["measure_calls"]
    )
    metrics = layers.summarize(first["trace"])
    assert metrics["trace.attribution_gap_frac"] < 0.05


@pytest.mark.slow
def test_queue_round_traces_drainers(tmp_path):
    outcome = traced_round(tiny("queue-skl-2drain", 4), 5, tmp_path, "q")
    assert outcome["failed"] == []
    # The benchmark process plus its two drainers.
    assert len(outcome["trace"]) == 3
    totals = layer_totals(outcome)
    for layer in SWEEP_LAYERS + ("core.blocking", "core.workqueue"):
        assert totals[layer]["calls"] > 0, layer
    assert totals["core.workqueue"]["units_leased"] == 4
    assert totals["core.workqueue"]["units_acked"] == 4
    drainers = outcome["trace"][1:]
    assert all(p["layers"]["core.runner"]["calls"] > 0 for p in drainers)


@pytest.mark.slow
def test_analytic_tier_wrap_points(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM", "analytic")
    outcome = traced_round(tiny("cold-skl-default", 2), 5, tmp_path, "a")
    assert outcome["failed"] == []
    assert layer_totals(outcome)["pipeline.analytic"]["calls"] > 0
