"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public entry point of each layer with a
wrapper that opens a span around the call and counts the work it did,
and returns a function that puts the originals back.  A function that
its caller imported with ``from module import name`` is replaced in the
caller's namespace, where the call looks it up; :func:`install` first
checks that the caller still holds the defining module's function, so a
later rename or re-import fails loudly instead of reporting zero calls.

Only the thread that installed the tracer records spans (the drainers'
lease heartbeat threads run beside the work and would count the same
wall time twice).  Spans are aggregated as they close — 2 M evaluate
calls per sweep are too many to keep — into per-layer self time
(duration minus the time covered by child spans), inclusive time, call
counts and work counters.  Drainer processes inherit the wrappers
through ``fork``; each one starts a fresh tracer and writes its totals
to the tracer's spool directory before it exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

#: Layer names, in report order.  ``core.blocking`` is reported by its
#: inclusive wall time; every other layer by its self time.
LAYERS = (
    "pipeline.core.rename",
    "pipeline.semantics.evaluate",
    "pipeline.event_kernel",
    "pipeline.analytic",
    "measure.extrapolate",
    "core.blocking",
    "measure.executor",
    "measure.backend",
    "core.runner",
    "core.cache",
    "core.journal",
    "core.workqueue",
    "core.xml_output",
)

#: Layers no workload runs: the analytic timing tier is opt-in
#: (``REPRO_SIM=analytic``).  Their calls are still counted, so a change
#: that starts using them shows, but a self time that always reads 0 is
#: not reported.
IDLE_LAYERS = ("pipeline.analytic",)


class Tracer:
    """Span aggregation for one process."""

    def __init__(self, spool_dir: Optional[str] = None):
        self.spool_dir = spool_dir
        self.reset()

    def reset(self) -> None:
        self.thread = threading.current_thread()
        self.started_ns = time.perf_counter_ns()
        #: ns of the process's wall time covered by top-level spans.
        self.covered_ns = 0
        self.stack: List[list] = []
        self.layers: Dict[str, Dict[str, float]] = {
            layer: {"self_ns": 0, "incl_ns": 0, "calls": 0}
            for layer in LAYERS
        }
        #: Inclusive durations of each characterized form (ns).
        self.form_ns: List[int] = []

    def count(self, layer: str, counter: str, amount) -> None:
        stats = self.layers[layer]
        stats[counter] = stats.get(counter, 0) + amount

    def span(self, layer: str, fn: Callable, before=None, after=None):
        """Wrap *fn* in a span of *layer*.

        ``before(args)`` runs at entry and its value is handed to
        ``after(tracer, args, result, before_value)`` at exit.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not tracer.thread:
                return fn(*args, **kwargs)
            snapshot = before(args) if before is not None else None
            frame = [layer, time.perf_counter_ns(), 0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer, args, result, snapshot)
            return result

        return wrapper

    def _close(self, frame: list) -> None:
        layer, started, child_ns = frame
        duration = time.perf_counter_ns() - started
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack corrupted closing {layer}")
        stats = self.layers[layer]
        stats["self_ns"] += duration - child_ns
        stats["incl_ns"] += duration
        stats["calls"] += 1
        if layer == "core.runner":
            self.form_ns.append(duration)
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.covered_ns += duration

    def totals(self) -> Dict[str, object]:
        """This process's aggregate, as written to the spool."""
        return {
            "pid": os.getpid(),
            "wall_ns": time.perf_counter_ns() - self.started_ns,
            "covered_ns": self.covered_ns,
            "layers": self.layers,
            "form_ns": self.form_ns,
        }

    def spool(self) -> None:
        if self.spool_dir is None:
            return
        path = os.path.join(self.spool_dir, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)


# ---------------------------------------------------------------------------
# Work counters read at span exit
# ---------------------------------------------------------------------------


def _rename_before(args):
    return len(args[2].uops)


def _rename_after(tracer, args, result, before):
    tracer.count("pipeline.core.rename", "uops", len(args[2].uops) - before)


def _kernel_after(tracer, args, result, before):
    tracer.count("pipeline.event_kernel", "cycles", result[0])


def _analytic_after(tracer, args, result, before):
    tracer.count("pipeline.analytic", "answered", result is not None)


def _extrapolate_after(tracer, args, result, before):
    stats = result[1]
    tracer.count(
        "measure.extrapolate", "runs_extrapolated", stats.runs_extrapolated
    )
    tracer.count(
        "measure.extrapolate", "cycles_extrapolated",
        stats.cycles_extrapolated,
    )


def _executor_before(args):
    executor = args[0]
    return (
        executor.batches_dispatched,
        executor.experiments_measured,
        executor.experiments_deduped,
    )


def _executor_after(tracer, args, result, before):
    executor = args[0]
    tracer.count("measure.executor", "experiments_planned", len(args[1]))
    tracer.count(
        "measure.executor", "batches",
        executor.batches_dispatched - before[0],
    )
    tracer.count(
        "measure.executor", "experiments_measured",
        executor.experiments_measured - before[1],
    )
    tracer.count(
        "measure.executor", "experiments_deduped",
        executor.experiments_deduped - before[2],
    )


def _backend_before(args):
    backend = args[0]
    return backend.measure_calls, backend.memo_hits, backend.memo_misses


def _backend_after(tracer, args, result, before):
    backend = args[0]
    tracer.count(
        "measure.backend", "measure_calls",
        backend.measure_calls - before[0],
    )
    tracer.count(
        "measure.backend", "memo_hits", backend.memo_hits - before[1]
    )
    tracer.count(
        "measure.backend", "memo_lookups",
        backend.memo_hits + backend.memo_misses - before[1] - before[2],
    )


def _cache_get_after(tracer, args, result, before):
    tracer.count("core.cache", "gets", 1)
    tracer.count("core.cache", "hits", not args[0].is_miss(result))


def _flock_before(args):
    return time.perf_counter_ns()


def _flock_after(tracer, args, result, before):
    tracer.count(
        "core.journal", "flock_wait_ns", time.perf_counter_ns() - before
    )
    tracer.count("core.journal", "lock_retries", result[1])


def _lease_after(tracer, args, result, before):
    tracer.count("core.workqueue", "units_leased", len(result))
    tracer.count(
        "core.workqueue", "units_stolen",
        sum(1 for unit in result if unit.leases > 1),
    )


def _deposit_after(tracer, args, result, before):
    tracer.count("core.workqueue", "units_acked", result == "acked")


def _ack_after(tracer, args, result, before):
    tracer.count("core.workqueue", "units_acked", bool(result))


# ---------------------------------------------------------------------------
# Wrap points
# ---------------------------------------------------------------------------

#: ``(layer, defining "module:name", callers, before, after)``.  A
#: ``Class.method`` name is replaced on the class (every caller looks it
#: up there); a function name is replaced in each caller module listed,
#: which must hold the very function the defining module exports.
WRAP_POINTS = (
    ("pipeline.core.rename", "repro.pipeline.core:Core.rename_block",
     (), _rename_before, _rename_after),
    ("pipeline.semantics.evaluate", "repro.pipeline.semantics:evaluate",
     ("repro.pipeline.core",), None, None),
    ("pipeline.event_kernel", "repro.pipeline.event_kernel:timing_event",
     ("repro.pipeline.core",), None, _kernel_after),
    ("pipeline.event_kernel",
     "repro.pipeline.event_kernel:timing_event_arrays",
     ("repro.measure.extrapolate",), None, _kernel_after),
    ("pipeline.analytic", "repro.pipeline.analytic:schedule_analytic",
     ("repro.pipeline.core",), None, _analytic_after),
    ("pipeline.analytic", "repro.pipeline.analytic:schedule_arrays",
     ("repro.measure.extrapolate",), None, _analytic_after),
    ("measure.extrapolate", "repro.measure.extrapolate:unrolled_counters",
     ("repro.measure.backend",), None, _extrapolate_after),
    ("measure.executor",
     "repro.measure.executor:ExperimentExecutor.execute",
     (), _executor_before, _executor_after),
    ("measure.backend", "repro.measure.backend:HardwareBackend.measure",
     (), _backend_before, _backend_after),
    ("measure.backend",
     "repro.measure.backend:HardwareBackend.measure_many",
     (), _backend_before, _backend_after),
    ("core.runner",
     "repro.core.runner:CharacterizationRunner.characterize",
     (), None, None),
    ("core.cache", "repro.core.cache:ResultCache.get",
     (), None, _cache_get_after),
    ("core.cache", "repro.core.cache:ResultCache.put", (), None, None),
    ("core.cache", "repro.core.cache:MeasurementMemo.get",
     (), None, _cache_get_after),
    ("core.cache", "repro.core.cache:MeasurementMemo.put", (), None, None),
    ("core.journal", "repro.core.journal:append_entry",
     ("repro.core.cache",), None, None),
    ("core.journal", "repro.core.journal:scan_journal",
     ("repro.core.cache",), None, None),
    ("core.journal", "repro.core.journal:publish_blob",
     ("repro.core.cache", "repro.core.workqueue"), None, None),
    ("core.journal", "repro.core.journal:flock_bounded",
     ("repro.core.journal", "repro.core.cache", "repro.core.workqueue"),
     _flock_before, _flock_after),
    ("core.workqueue", "repro.core.workqueue:WorkQueue.lease",
     (), None, _lease_after),
    ("core.workqueue", "repro.core.workqueue:WorkQueue.deposit",
     (), None, _deposit_after),
    ("core.workqueue", "repro.core.workqueue:WorkQueue.ack",
     (), None, _ack_after),
) + tuple(
    ("core.workqueue", f"repro.core.workqueue:WorkQueue.{name}",
     (), None, None)
    for name in (
        "enqueue", "renew", "fail", "expire_owner", "release_expired",
        "snapshot", "remaining_units", "all_units", "clear",
    )
) + (
    ("core.xml_output", "repro.core.xml_output:results_to_xml",
     (), None, None),
    ("core.xml_output", "repro.core.xml_output:write_xml", (), None, None),
)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    # getattr raises AttributeError when a later change renames the
    # entry point: the benchmark must not silently measure nothing.
    value = getattr(owner, parts[-1])
    return module, owner, parts[-1], value


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry point; returns the undo function."""
    undo: List[Callable[[], None]] = []

    def replace(owner, name, value):
        original = owner.__dict__[name]
        setattr(owner, name, value)
        undo.append(lambda: setattr(owner, name, original))

    def restore() -> None:
        for step in reversed(undo):
            step()

    try:
        for layer, target, callers, before, after in WRAP_POINTS:
            module, owner, name, original = _resolve(target)
            wrapped = tracer.span(layer, original, before, after)
            if owner is not module:
                replace(owner, name, wrapped)
                continue
            for caller_name in callers:
                caller = importlib.import_module(caller_name)
                found = getattr(caller, name, None)
                if found is not original:
                    raise RuntimeError(
                        f"{caller_name}.{name} is not {target}: the wrap "
                        "point moved; update sweepbench/layers.py"
                    )
                replace(caller, name, wrapped)
            if not callers:
                replace(module, name, wrapped)
        _install_blocking(tracer, replace)
        _install_drainer(tracer, replace)
    except BaseException:
        restore()
        raise
    return restore


def _install_blocking(tracer: Tracer, replace) -> None:
    """Span the first access of ``CharacterizationRunner.blocking``."""
    from repro.core.runner import CharacterizationRunner

    prop = CharacterizationRunner.__dict__["blocking"]
    discover = tracer.span("core.blocking", prop.fget)

    def blocking(runner):
        if runner._blocking is None:
            return discover(runner)
        return prop.fget(runner)

    replace(CharacterizationRunner, "blocking", property(blocking))


def _install_drainer(tracer: Tracer, replace) -> None:
    """Give every forked drainer its own tracer, spooled at exit."""
    from repro.core import sweep

    original = sweep._drain_worker

    @functools.wraps(original)
    def drain_worker(payload, out_queue):
        tracer.reset()
        try:
            original(payload, out_queue)
        finally:
            tracer.spool()

    replace(sweep, "_drain_worker", drain_worker)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(processes: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics over the benchmark process and its drainers.

    Times are process-seconds: drainer spans run beside the parent's,
    so a layer's self time can exceed the parent's wall time.
    """
    merged = {layer: {} for layer in LAYERS}
    form_ns: List[int] = []
    wall_ns = covered_ns = 0
    for process in processes:
        wall_ns += process["wall_ns"]
        covered_ns += process["covered_ns"]
        form_ns.extend(process["form_ns"])
        for layer, stats in process["layers"].items():
            for key, value in stats.items():
                merged[layer][key] = merged[layer].get(key, 0) + value

    def get(layer, key):
        return merged[layer].get(key, 0)

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        if layer == "core.blocking":
            metrics["core.blocking.wall_s"] = get(layer, "incl_ns") / 1e9
        elif layer not in IDLE_LAYERS:
            metrics[f"{layer}.self_s"] = get(layer, "self_ns") / 1e9
    for layer in ("pipeline.core.rename", "pipeline.semantics.evaluate",
                  "pipeline.event_kernel", "pipeline.analytic",
                  "measure.extrapolate", "core.cache"):
        metrics[f"{layer}.calls"] = get(layer, "calls")
    metrics["pipeline.core.rename.uops"] = get(
        "pipeline.core.rename", "uops"
    )
    metrics["pipeline.event_kernel.cycles"] = get(
        "pipeline.event_kernel", "cycles"
    )
    metrics["pipeline.analytic.answered_frac"] = _ratio(
        get("pipeline.analytic", "answered"),
        get("pipeline.analytic", "calls"),
    )
    for key in ("runs_extrapolated", "cycles_extrapolated"):
        metrics[f"measure.extrapolate.{key}"] = get(
            "measure.extrapolate", key
        )
    for key in ("batches", "experiments_planned", "experiments_measured"):
        metrics[f"measure.executor.{key}"] = get("measure.executor", key)
    metrics["measure.executor.dedup_frac"] = _ratio(
        get("measure.executor", "experiments_deduped"),
        get("measure.executor", "experiments_planned"),
    )
    metrics["measure.backend.measure_calls"] = get(
        "measure.backend", "measure_calls"
    )
    metrics["measure.backend.memo_hit_frac"] = _ratio(
        get("measure.backend", "memo_hits"),
        get("measure.backend", "memo_lookups"),
    )
    quartiles = (
        statistics.quantiles(form_ns, n=4, method="inclusive")
        if len(form_ns) > 1 else [sum(form_ns)] * 3
    )
    metrics["core.runner.form_s.p50"] = quartiles[1] / 1e9
    metrics["core.runner.form_s.p75"] = quartiles[2] / 1e9
    metrics["core.cache.hit_frac"] = _ratio(
        get("core.cache", "hits"), get("core.cache", "gets")
    )
    metrics["core.journal.flock_wait_s"] = get(
        "core.journal", "flock_wait_ns"
    ) / 1e9
    metrics["core.journal.lock_retries"] = get(
        "core.journal", "lock_retries"
    )
    for key in ("units_leased", "units_stolen", "units_acked"):
        metrics[f"core.workqueue.{key}"] = get("core.workqueue", key)
    metrics["unattributed_s"] = (wall_ns - covered_ns) / 1e9
    self_total = sum(get(layer, "self_ns") for layer in LAYERS) / 1e9
    metrics["trace.process_wall_s"] = wall_ns / 1e9
    metrics["trace.attribution_gap_frac"] = abs(
        self_total + metrics["unattributed_s"] - wall_ns / 1e9
    ) / (wall_ns / 1e9)
    return metrics


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s") or ".form_s." in name:
        return "s"
    return "count"
