#!/usr/bin/env python3
"""The repository benchmark: cold and warm characterization sweeps.

Usage, from the repository root::

    python3 sweepbench/run.py --workload cold-skl-default --seed 1 \\
        --seconds 30 --trace 0

Each round runs in a fresh process (``sweep_round.py``): set up, one cold
sweep of the seed's draw into a fresh cache directory, warm re-sweeps,
ground-truth and XML checks.  Rounds repeat while the next one is
expected to end within ``--seconds``; every round of a run sweeps the
same draw, so their results must agree.  With ``--trace 1`` the second
round runs with every layer's entry point wrapped in spans (see
``layers.py``) and the per-layer metrics replace the end-to-end ones.

Times in the end-to-end metrics are at reference host speed: while the
rounds run, a :class:`HostProbe` times a fixed Python kernel on the
CPUs the round runs on, and each timed phase is scaled by how much
slower or faster than on the reference host that kernel ran meanwhile.
A round is pinned to one CPU so that the probe samples the CPU it runs
on; only a queue sweep's cold sweep spreads over every CPU.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1, with no result printed, when a round cannot run at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".sweepbench-work")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: A round that takes longer than this is killed and the run fails; the
#: whole run must end within 180 s.
ROUND_TIMEOUT = 120.0
#: Set-up-only processes per run, besides each round's own set-up: a
#: round takes 25-35 s, so a run has room for one or two of them, and
#: set-up time (about 1 s) needs more samples than that for a steady
#: median.
SETUP_REPEATS = 4
#: Largest share by which per-layer self times plus ``unattributed_s``
#: may miss the traced processes' wall time.
ATTRIBUTION_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "cold_forms_per_s": "1/s",
    "warm_forms_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cycles_simulated": "count",
    "forms_ok_frac": "ratio",
    "ports_exact_frac": "ratio",
    "latency_within1_frac": "ratio",
}


#: The host-speed probe runs :func:`_kernel` on each CPU every
#: PROBE_PERIOD seconds.
PROBE_PERIOD = 0.05
#: The kernel's CPU time on the reference host (the 2-CPU VM this
#: benchmark was built on, at its faster speed).  A phase's time is
#: scaled by this over the kernel's mean time while the phase ran.
REFERENCE_KERNEL_S = 0.0005


def _kernel() -> int:
    """A fixed pure-Python workload of about half a millisecond."""
    table = {}
    total = 0
    for i in range(1500):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class HostProbe:
    """Samples how fast the host runs Python while rounds run.

    The VMs this benchmark runs on share their cores with other tenants,
    so the same round can take 1.6x longer from one minute to the next,
    and the slowdown differs between CPUs.  The probe runs the fixed
    :func:`_kernel` at a low duty cycle (about 1% of a CPU) from a thread
    of the driving process, pinned in turn to each of *cpus* (the CPUs
    the round runs on), and records its thread CPU time: waiting for the
    CPU does not count, only how fast the CPU goes while it runs.
    """

    def __init__(self, cpus, period: float = PROBE_PERIOD):
        self.cpus = list(cpus)
        self.period = period
        #: (monotonic time, CPU, kernel CPU seconds) per kernel run.
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        turn = 0
        while not self._stop.wait(self.period / len(self.cpus)):
            where = self.cpus[turn % len(self.cpus)]
            turn += 1
            # Affinity set with pid 0 is the calling thread's own.
            os.sched_setaffinity(0, {where})
            began = time.perf_counter()
            cpu = time.thread_time()
            _kernel()
            cpu = time.thread_time() - cpu
            self.samples.append(
                ((began + time.perf_counter()) / 2, where, cpu)
            )

    def scale(self, start: float, end: float, cpus=None) -> float:
        """REFERENCE_KERNEL_S over the kernel's mean time on *cpus* (all
        probed CPUs when None) in [*start*, *end*], taken over the four
        samples nearest its middle when fewer fall inside."""
        samples = [
            (at, cpu) for at, where, cpu in self.samples
            if cpus is None or where in cpus
        ]
        inside = [cpu for at, cpu in samples if start <= at <= end]
        if len(inside) < 4:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
            inside = [cpu for _, cpu in nearest[:4]]
        if not inside:
            raise RoundError("the host-speed probe took no samples")
        return REFERENCE_KERNEL_S / statistics.fmean(inside)


class RoundError(RuntimeError):
    """A round process failed to produce a result."""


def run_round(workload: str, seed: int, work_dir: str, trace: bool,
              timeout: float, probe: HostProbe, cpu: int) -> dict:
    """One round process, pinned to *cpu* except for a queue sweep's
    cold sweep; its phase times come back both as measured and scaled
    to the reference host (``host_s``) by *probe*."""
    from workloads import WORKLOADS

    began = time.perf_counter()
    outcome = _run_process([
        "--workload", workload, "--seed", str(seed),
        "--work-dir", work_dir, "--trace", str(int(trace)),
        "--cpu", str(cpu),
    ], timeout)
    outcome["wall_s"] = time.perf_counter() - began
    windows = outcome["windows"]
    pinned = {cpu}
    spread = None if WORKLOADS[workload].jobs > 1 else pinned
    outcome["host_s"] = {
        "setup": _scaled(probe, windows["setup"], pinned),
        "cold": _scaled(probe, windows["cold"], spread),
        "warm": [_scaled(probe, w, pinned) for w in windows["warm"]],
    }
    with open(os.path.join(work_dir, "cold.xml"), "rb") as handle:
        outcome["cold_sha256"] = hashlib.sha256(handle.read()).hexdigest()
    return outcome


def run_setup(workload: str, seed: int, work_dir: str, timeout: float,
              probe: HostProbe, cpu: int) -> float:
    """Set-up time, at reference host speed, of a process pinned to
    *cpu* that stops after set-up."""
    outcome = _run_process([
        "--workload", workload, "--seed", str(seed),
        "--work-dir", work_dir, "--cpu", str(cpu), "--setup-only",
    ], timeout)
    return _scaled(probe, outcome["windows"]["setup"], {cpu})


def _run_process(args: list, timeout: float) -> dict:
    """Runs ``sweep_round.py`` with *args* and returns the JSON object
    it prints last."""
    command = [sys.executable, os.path.join(HERE, "sweep_round.py"), *args]
    # A session of its own, so a timeout also stops the drainers.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RoundError(f"round timed out after {timeout:.0f}s")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise RoundError(f"round exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _scaled(probe: HostProbe, window, cpus) -> float:
    start, end = window
    return (end - start) * probe.scale(start, end, cpus)


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               work_root: str, probe: HostProbe, cpu) -> tuple:
    """:data:`SETUP_REPEATS` set-up times, then rounds until the next one
    would overrun *seconds*; with *trace* the second round is the traced
    one, so at least two rounds run."""
    began = time.perf_counter()
    setups = [
        run_setup(
            workload, seed, os.path.join(work_root, f"setup-{index}"),
            ROUND_TIMEOUT, probe, cpu,
        )
        for index in range(SETUP_REPEATS)
    ]
    rounds = []
    while True:
        traced = trace and len(rounds) == 1
        remaining = 170.0 - (time.perf_counter() - began)
        outcome = run_round(
            workload, seed,
            os.path.join(work_root, f"round-{len(rounds)}"),
            traced, min(ROUND_TIMEOUT, remaining), probe, cpu,
        )
        outcome["traced"] = traced
        rounds.append(outcome)
        host = outcome["host_s"]
        print(
            f"sweepbench: round {len(rounds) - 1}{' (traced)' * traced}: "
            f"setup {outcome['setup_s']:.3f} s, cold {outcome['cold_s']:.3f}"
            f" s, {len(host['warm'])} warm passes {sum(outcome['warm_s']):.3f}"
            f" s; at reference speed {host['setup']:.3f} s, "
            f"{host['cold']:.3f} s, {sum(host['warm']):.3f} s",
            file=sys.stderr,
        )
        if trace and len(rounds) < 2:
            continue
        elapsed = time.perf_counter() - began
        longest = max(r["wall_s"] for r in rounds if not r["traced"])
        if elapsed + longest > seconds:
            return setups, rounds


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_rounds(workload, rounds: list) -> list:
    """Reasons the rounds disagree with each other (empty when they
    agree): one seed, so one draw and one XML, and on the serial
    workloads identical work counters."""
    problems = []
    first = rounds[0]
    for index, outcome in enumerate(rounds[1:], start=1):
        if outcome["uids"] != first["uids"]:
            problems.append(f"round {index} drew other forms")
        if outcome["cold_sha256"] != first["cold_sha256"]:
            problems.append(f"round {index} wrote other XML")
        if workload.jobs == 1 and outcome["counters"] != first["counters"]:
            problems.append(f"round {index} counters differ")
    return problems


def end_to_end(setups: list, rounds: list) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    forms = sum(r["forms"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    truth = [r["truth"] for r in rounds]
    values = {
        "cold_forms_per_s": statistics.median(
            r["forms"] / r["host_s"]["cold"] for r in untraced
        ),
        "warm_forms_per_s": statistics.median(
            r["forms"] * len(r["host_s"]["warm"]) / sum(r["host_s"]["warm"])
            for r in untraced
        ),
        "setup_s": statistics.median(
            setups + [r["host_s"]["setup"] for r in rounds]
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "cycles_simulated": statistics.median(
            r["counters"]["cycles_simulated"] for r in untraced
        ),
        "forms_ok_frac": 1.0 - failed / forms,
        "ports_exact_frac": (
            sum(t["ports_exact"] for t in truth)
            / sum(t["forms"] for t in truth)
        ),
        "latency_within1_frac": (
            sum(t["latency_within"] for t in truth)
            / max(1, sum(t["latency_checked"] for t in truth))
        ),
    }
    return {
        name: _metric(value, END_TO_END_UNITS[name])
        for name, value in values.items()
    }


def per_layer(rounds: list) -> tuple:
    """Per-layer metrics of the traced round, and whether they add up."""
    import layers

    traced = next(r for r in rounds if r["traced"])
    untraced = [r for r in rounds if not r["traced"]]
    values = layers.summarize(traced["trace"])
    values["trace.wall_s"] = traced["trace"][0]["wall_ns"] / 1e9
    values["trace.overhead_frac"] = (
        traced["host_s"]["cold"]
        / statistics.median(r["host_s"]["cold"] for r in untraced)
        - 1.0
    )
    attributed = values["trace.attribution_gap_frac"] <= ATTRIBUTION_TOLERANCE
    return {
        name: _metric(value, layers.unit_of(name))
        for name, value in values.items()
    }, attributed


def main(argv) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"sweepbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    # A round runs on one CPU, which the probe samples between the
    # round's own steps; a queue sweep's drainers spread over every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    pinned = cpus[-1]
    work_root = os.path.join(WORK_ROOT, str(os.getpid()))
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        with HostProbe(cpus) as probe:
            setups, rounds = run_rounds(
                args.workload, args.seed, args.seconds, bool(args.trace),
                work_root, probe, pinned,
            )
    except RoundError as error:
        print(f"sweepbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    problems = check_rounds(workload, rounds)
    for outcome in rounds:
        problems.extend(
            f"{uid}: {why}" for uid, why in outcome["truth"]["failed"]
        )
        problems.extend(
            f"{uid}: warm XML differs" for uid in outcome["xml_mismatched"]
        )
        if outcome["warm_misses"]:
            problems.append(
                f"{outcome['warm_misses']} warm cache misses"
            )
    if args.trace:
        metrics, attributed = per_layer(rounds)
        if not attributed:
            problems.append("per-layer self times do not add up to wall")
    else:
        metrics = end_to_end(setups, rounds)
    for problem in problems:
        print(f"sweepbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not any(r["failed"] for r in rounds),
        "attempted": sum(r["forms"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
