"""Steady-state extrapolation of unrolled-block simulations.

:class:`~repro.measure.backend.HardwareBackend` implements Algorithm 2 by
simulating the block under test unrolled ``unroll_small`` and
``unroll_large`` times.  But the simulated pipeline reaches a steady
state after a handful of copies: the per-copy deltas of the retire cycle,
the port-binding counts, and the µop counts become periodic (period > 1
arises from e.g. the every-third-MOV move-elimination counter or a
port-imbalanced binding rotation).  Once the period is known, the
counters of the long unroll follow analytically — in exact integer
arithmetic, so the extrapolated values are bit-identical to a full
simulation.

The observation that a repeated basic block settles into a periodic
steady state is the same one uops.info's own loop-based throughput
protocol and PALMED's saturating-kernel design rely on.

The rename stage settles too, and sooner.  On every fast kernel a body
without stores or divider µops is renamed structurally (no value
emulation) only until its rename state repeats; the renamed copies
become relative templates that are replayed to build the probe's µop
stream, and bodies that differ only in register choice share one
result per core.  Only bodies the structural guards refuse pay for a
value-emulating rename of every probe copy (see
:func:`unrolled_counters` for the whole ladder).

Everything here rests on the *prefix property* of the simulated core:
counters observed at a copy boundary of a longer unroll equal the
counters of simulating exactly that many copies.  Port binding is a pure
function of issue order, issue/retire are in order, and a port always
dispatches its oldest ready µop — so a younger µop can never delay an
older one.  The single exception is the non-pipelined divider, whose
occupancy lets a younger µop (dispatched while the older's operands were
still in flight) stall an older divider µop; divider forms therefore
bypass extrapolation entirely (they are also the value-dependent case,
Section 5.2.5, where periodicity itself is not guaranteed).

A period is found on a *detection window* of :data:`MIN_PROBE` copies
and must survive a check before it is used: the periodic prediction has
to reproduce, signature by signature, the copies that follow the window
on a probe twice as long (capped at the longest unroll target).  By the
prefix property the window is just the first copies of that longer
probe, so each step of the check is one simulation, read twice — once
as the detection prefix, once as the continuation.  A transient whose
deltas merely look periodic for a while — e.g. a reservation-station
fill pattern that repeats until the window drains — fails the check,
and detection moves to the whole probe as the next, doubled window.
Under the default unroll pair (5/25) the checked probe already covers
the longest target, so every target is read as a prefix of one run.
When no period survives below the longest target the caller falls back
to full simulation of the longer targets (counted in
:attr:`ExtrapolationStats.runs_fallback`), so extrapolation is an
optimization, never a semantic change.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.pipeline.analytic import schedule_arrays
from repro.pipeline.event_kernel import timing_event_arrays
from repro.pipeline.core import (
    KERNEL_ANALYTIC,
    KERNEL_REFERENCE,
    Core,
    CounterValues,
    ProbeResult,
    RenameContext,
)
from repro.uarch.uops import KIND_STORE_ADDR, KIND_STORE_DATA

#: Detection window: the smallest number of leading probe copies a
#: period is detected on (the probe itself is up to twice as long, for
#: the check).  Large enough that issue-rate transients (ROB/RS fill,
#: SSE/AVX transition stalls on the first copies, move-elimination
#: phase-in) have settled and a trailing window of clean periods is
#: observable.
MIN_PROBE = 18

#: Longest per-copy period the detector searches for.
MAX_PERIOD = 4

#: Trailing copies that must repeat for a period to be accepted.
def _window(period: int) -> int:
    return max(6, 3 * period)


#: Copies structurally renamed while searching for a rename-state period
#: (the template path's rename budget; see :func:`_template_unrolled`).
SNAPSHOT_BUDGET = 12


@dataclass
class ExtrapolationStats:
    """What one :func:`unrolled_counters` call did (for RunStatistics)."""

    #: Unroll targets served off a periodic event-kernel probe (no
    #: simulation of their own).
    runs_extrapolated: int = 0
    #: Cycles of the extrapolated tails (would have been simulated).
    cycles_extrapolated: int = 0
    #: Unroll targets served entirely in closed form — structural
    #: rename plus the analytic recurrence, no kernel run at all.
    runs_analytic: int = 0
    #: Cycles those closed-form answers cover.
    cycles_analytic: int = 0
    #: Unroll targets given a full-length run of their own because
    #: extrapolation did not apply: every target of a divider body, and
    #: targets longer than the probe when no period survived the check.
    runs_fallback: int = 0
    #: Ladders whose probe needed value-emulating rename because the
    #: structural templates do not apply (stores, no rename-state
    #: period within :data:`SNAPSHOT_BUDGET`, macro-fusion or decoder
    #: cores).
    runs_emulated: int = 0

    def add(self, other: "ExtrapolationStats") -> None:
        """Fold *other*'s counters into this one."""
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )


def _form_blockers(core: Core, instruction) -> Tuple[bool, bool]:
    """(divider, stores) fast-path guard flags for one instruction form.

    Pure functions of the form's ground-truth entry, so they are cached
    per form on the core (one dict probe per instruction thereafter).
    """
    form = instruction.form
    flags = core.fastpath_blockers.get(form)
    if flags is not None:
        return flags
    entry = core._entries.get(instruction)
    if entry is None:
        flags = (True, True)  # unsupported: let the simulation raise
    else:
        divider = entry.divider_class is not None or any(
            spec.divider_cycles
            for spec in chain(entry.uops, entry.same_reg_uops or ())
        )
        stores = any(
            spec.kind in (KIND_STORE_ADDR, KIND_STORE_DATA)
            or any(out[0] == "mem" for out in spec.outputs)
            for spec in chain(entry.uops, entry.same_reg_uops or ())
        )
        flags = (divider, stores)
    core.fastpath_blockers[form] = flags
    return flags


def _uses_divider(core: Core, code: Sequence) -> bool:
    """Static guard: any µop of *code* can occupy the divider.

    Divider occupancy breaks the prefix property and divider timing is
    operand-value dependent, so these forms never extrapolate.
    """
    return any(_form_blockers(core, i)[0] for i in code)


def _uses_stores(core: Core, code: Sequence) -> bool:
    """Static guard: any µop of *code* writes memory.

    Stores make rename value-dependent (store-to-load forwarding keys on
    effective addresses), so the rename templates refuse them and leave
    such bodies to the value-emulating probe.
    """
    return any(_form_blockers(core, i)[1] for i in code)


def _rename_snapshot(context: RenameContext) -> Tuple:
    """Canonical relative view of everything rename carries forward.

    Producer references are encoded as *ages* (distance from the current
    stream end), so two equal snapshots at copies ``k`` and ``k - p``
    prove — rename being a deterministic fold of this state over the
    block — that the rename output is exactly periodic with period ``p``
    from copy ``k - p + 1`` on.  No heuristic window needed.
    """
    n = len(context.uops)
    regs = tuple(sorted(
        (
            name,
            -1 if writer[0] is None else n - writer[0].index,
            writer[1],
            writer[2],
        )
        for name, writer in context.reg_writer.items()
    ))
    flags = tuple(sorted(
        (
            name,
            -1 if writer[0] is None else n - writer[0].index,
            writer[1],
        )
        for name, writer in context.flag_writer.items()
    ))
    serialize = context.serialize_dep
    return (
        regs,
        flags,
        -1 if serialize is None else n - serialize.index,
        context.move_elim_counter % 3,
        context.vec_mode,
    )


def _copy_template(
    context: RenameContext, start: int, fr_base: int, fused_base: int
) -> Tuple:
    """Relative encoding of one renamed copy, replayable at any offset.

    Per µop: candidate ports (sorted — binding is order-independent),
    completion latency, ``min_issue`` relative to the copy's starting
    ``frontend_release``, and deps as (age, offset) pairs.  Per copy:
    the ``frontend_release`` and fused-µop deltas.
    """
    items = []
    for uop in context.uops[start:]:
        items.append((
            tuple(sorted(uop.ports)),
            uop.complete_lat,
            uop.min_issue - fr_base,
            tuple(
                (
                    None if producer is None else uop.index - producer.index,
                    offset,
                )
                for producer, offset in uop.deps
            ),
        ))
    return (
        tuple(items),
        context.frontend_release - fr_base,
        context.fused_total - fused_base,
    )


def _template_order(copies: int, transient: int, period: int) -> List[int]:
    """Template index (0-based) for each of ``copies`` copies."""
    base = transient - period
    return [
        c - 1 if c <= transient else base + (c - base - 1) % period
        for c in range(1, copies + 1)
    ]


def _synthesize(templates: List[Tuple], order: List[int]):
    """Parallel scheduling arrays for the given template sequence."""
    ports: List[Tuple] = []
    lat: List[int] = []
    mins: List[int] = []
    deps: List[List[Tuple[Optional[int], int]]] = []
    boundaries: List[int] = []
    frontend_release = 0
    g = 0
    for ti in order:
        items, fr_delta, _fused = templates[ti]
        for pset, complete_lat, min_rel, rel_deps in items:
            ports.append(pset)
            lat.append(complete_lat)
            mins.append(frontend_release + min_rel)
            deps.append([
                (None if rel is None else g - rel, offset)
                for rel, offset in rel_deps
            ])
            g += 1
        frontend_release += fr_delta
        boundaries.append(g)
    return ports, lat, mins, deps, boundaries


def _template_unrolled(
    core: Core,
    code: Sequence,
    targets: Sequence[int],
    stats: "ExtrapolationStats",
) -> Optional[Dict[int, CounterValues]]:
    """Serve every unroll target off replayed rename templates, or
    ``None`` to fall back to the emulating probe.

    The plan: structurally rename the block copy by copy until two
    rename-state snapshots match (proof of exact periodicity), encode
    the transient plus one period as relative templates, and synthesize
    the probe-length µop stream from them — no value emulation, and
    rename cost bounded by :data:`SNAPSHOT_BUDGET` copies instead of
    the unroll factor.  The stream is scheduled by the array event
    kernel; with the analytic kernel the closed-form recurrence is
    tried first (no kernel run at all), falling back to the event
    kernel on a recurrence abort.  Guards: divider forms
    (value-dependent timing), stores (value-dependent forwarding), and
    the fusion/decoder extensions (front-end state not covered by the
    snapshot) all return ``None``, as does a missing snapshot match.

    Bodies that rename to the same templates share one result through
    ``core.template_memo``, so a shape is scheduled once per core.

    ``init`` register values are deliberately not consulted: under the
    guards above, values influence neither the dependence graph nor any
    latency, so the counters are identical for every initial state.
    """
    if core.enable_macro_fusion or core.enable_decoder_model:
        return None
    if _uses_divider(core, code) or _uses_stores(core, code):
        return None

    context = RenameContext(None, emulate=False)
    snapshots: List[Tuple] = []
    templates: List[Tuple] = []
    transient = period = 0
    for k in range(1, SNAPSHOT_BUDGET + 1):
        start = len(context.uops)
        fr_base = context.frontend_release
        fused_base = context.fused_total
        core.rename_block(code, context)
        templates.append(
            _copy_template(context, start, fr_base, fused_base)
        )
        snapshot = _rename_snapshot(context)
        for p in range(1, len(snapshots) + 1):
            if snapshots[-p] == snapshot:
                transient, period = k, p
                break
        if period:
            break
        snapshots.append(snapshot)
    if not period:
        return None

    block_len = len(code)
    # Structural memo: experiments that differ only in register choice
    # rename to identical relative templates, so the schedule (and every
    # derived counter) is shared.  Keyed per core, which also scopes it
    # to one uarch/extension configuration and one kernel.
    key = (tuple(templates), transient, period, tuple(targets), block_len)
    memo = core.template_memo
    hit = memo.get(key)
    if hit is not None:
        results, delta = hit
        stats.add(delta)
        return results

    uarch_ports = core.uarch.ports
    closed_form = core.kernel == KERNEL_ANALYTIC

    def schedule(order: List[int]) -> Tuple:
        """(cycles, port counts, per-copy finishes, per-µop bound port)
        of the synthesized stream for a template *order*."""
        nonlocal closed_form
        arrays = _synthesize(templates, order)
        scheduled = (
            schedule_arrays(core.uarch, *arrays) if closed_form else None
        )
        if scheduled is not None:
            return scheduled
        # Event kernel, or no closed form (a per-port ready-order
        # inversion) — the synthesized stream is exact either way, so
        # run it through the array event kernel: no value emulation, no
        # µop objects, and rename still bounded by the snapshot budget.
        closed_form = False
        ports_a, lat_a, mins_a, deps_a, boundaries_a = arrays
        cycles, counts, finishes, bound_arr = timing_event_arrays(
            core.uarch, ports_a, lat_a, mins_a, deps_a,
            [0] * len(lat_a), boundaries_a,
        )
        core.cycles_simulated += cycles
        return cycles, counts, finishes, [
            b if b >= 0 else None for b in bound_arr
        ]

    def build_probe(n: int) -> ProbeResult:
        """Synthesize and schedule an ``n``-copy probe off the templates."""
        order = _template_order(n, transient, period)
        total_cycles, _counts, finishes, bounds = schedule(order)

        per_ports: List[Dict[int, int]] = []
        per_uops: List[int] = []
        per_fused: List[int] = []
        g = 0
        for ti in order:
            items, _fr, fused_delta = templates[ti]
            counts: Dict[int, int] = {}
            for _ in items:
                bound = bounds[g]
                if bound is not None:
                    counts[bound] = counts.get(bound, 0) + 1
                g += 1
            per_ports.append(counts)
            per_uops.append(len(items))
            per_fused.append(fused_delta)
        return ProbeResult(
            copies=n,
            finish=list(finishes or []),
            ports=per_ports,
            uops=per_uops,
            fused=per_fused,
            total_cycles=total_cycles,
        )

    probe, timing_period = _verified_period(build_probe, targets)

    results: Dict[int, CounterValues] = {}
    beyond = [t for t in targets if t > probe.copies]
    if beyond and timing_period is None:
        # The schedule is not periodic within the probe window: extend
        # to each long target exactly (cost is O(µops), not O(cycles)).
        for t in beyond:
            order_t = _template_order(t, transient, period)
            cycles_t, counts_t, _finishes, _bounds = schedule(order_t)
            results[t] = CounterValues(
                cycles=cycles_t,
                port_uops=counts_t,
                uops=sum(len(templates[ti][0]) for ti in order_t),
                instructions=t * block_len,
                uops_fused=sum(templates[ti][2] for ti in order_t),
            )
    # So far *results* holds only the targets extended at full length.
    delta = ExtrapolationStats(runs_fallback=len(results))
    if not closed_form:
        # The probe was simulated (array event kernel); only targets
        # served off its periodic tail count as extrapolated, matching
        # the event-probe path's accounting.
        delta.runs_extrapolated = sum(1 for t in beyond if t not in results)
    for t in targets:
        if t in results:
            continue
        if t <= probe.copies:
            results[t] = _prefix_counters(probe, t, block_len, uarch_ports)
        else:
            results[t] = _extrapolated_counters(
                probe, timing_period, t, block_len, uarch_ports
            )
            if not closed_form:
                delta.cycles_extrapolated += (
                    results[t].cycles - probe.total_cycles
                )
    if closed_form:
        delta.runs_analytic = len(targets)
        delta.cycles_analytic = sum(int(results[t].cycles) for t in targets)
    stats.add(delta)
    memo[key] = (results, delta)
    return results


def _signatures(probe: ProbeResult) -> List[Tuple]:
    """Per-copy steady-state signature: everything that must repeat."""
    signatures: List[Tuple] = []
    previous = -1
    for k in range(probe.copies):
        finish = probe.finish[k]
        signatures.append(
            (
                finish - previous,
                tuple(sorted(probe.ports[k].items())),
                probe.uops[k],
                probe.fused[k],
            )
        )
        previous = finish
    return signatures


def _detect_period(signatures: List[Tuple]) -> Optional[int]:
    """Smallest period whose trailing window repeats exactly."""
    n = len(signatures)
    for period in range(1, MAX_PERIOD + 1):
        window = _window(period)
        if window + period > n:
            break
        if all(
            signatures[j] == signatures[j - period]
            for j in range(n - window, n)
        ):
            return period
    return None


def _continuation_matches(
    signatures: List[Tuple], copies: int, period: int
) -> bool:
    """Does the periodic tail of the first *copies* signatures predict
    every signature after them?"""
    pattern = signatures[copies - period:copies]
    return all(
        signatures[k] == pattern[(k - copies) % period]
        for k in range(copies, len(signatures))
    )


def _verified_period(
    make_probe: Callable[[int], ProbeResult],
    targets: Sequence[int],
) -> Tuple[ProbeResult, Optional[int]]:
    """Simulate the probe for sorted *targets* and find its checked period.

    When every target fits in the detection window (``max(MIN_PROBE,
    smallest target + 2)`` copies, clamped to the longest target) one
    probe of the longest target serves them all as prefixes.  Otherwise
    each step simulates **one** probe of ``min(2n, longest)`` copies
    for an ``n``-copy window, runs :func:`_detect_period` on its first
    ``n`` signatures — by the prefix property exactly those of an
    ``n``-copy probe — and checks the candidate against the remaining
    copies.  The check exists because :func:`_detect_period` can be
    fooled by a transient whose per-copy deltas are themselves periodic
    for a stretch (a reservation-station fill pattern, say) before the
    true steady state appears.  On a mismatch the whole probe becomes
    the next window; growth stops at the longest target, where every
    target is a prefix and periodicity is moot.

    Returns ``(probe, period)``: the last probe simulated and the
    checked period, ``None`` when no period was detected or none
    survived (targets beyond the probe then need full simulation).
    """
    limit = targets[-1]
    window = min(limit, max(MIN_PROBE, targets[0] + 2))
    if window == limit:
        return make_probe(limit), None
    while True:
        probe = make_probe(min(2 * window, limit))
        signatures = _signatures(probe)
        period = _detect_period(signatures[:window])
        if period is None or _continuation_matches(
            signatures, window, period
        ):
            return probe, period
        if probe.copies == limit:
            return probe, None
        window = probe.copies


def _prefix_counters(
    probe: ProbeResult, copies: int, block_len: int, ports: Sequence[int]
) -> CounterValues:
    """Exact counters of a ``copies``-copy run read off the probe prefix."""
    port_uops = {p: 0 for p in ports}
    uops = 0
    fused = 0
    for k in range(copies):
        for port, count in probe.ports[k].items():
            port_uops[port] += count
        uops += probe.uops[k]
        fused += probe.fused[k]
    return CounterValues(
        cycles=probe.finish[copies - 1] + 1 if copies else 0,
        port_uops=port_uops,
        uops=uops,
        instructions=copies * block_len,
        uops_fused=fused,
    )


def _extrapolated_counters(
    probe: ProbeResult,
    period: int,
    copies: int,
    block_len: int,
    ports: Sequence[int],
) -> CounterValues:
    """Counters of a run longer than the probe, via the periodic tail."""
    base = _prefix_counters(probe, probe.copies, block_len, ports)
    signatures = _signatures(probe)
    pattern = signatures[probe.copies - period:]
    full, rem = divmod(copies - probe.copies, period)

    cycles = base.cycles
    port_uops = dict(base.port_uops)
    uops = base.uops
    fused = base.uops_fused
    for weight, signature in chain(
        ((full, s) for s in pattern),
        ((1, s) for s in pattern[:rem]),
    ):
        delta, port_items, uop_count, fused_count = signature
        cycles += weight * delta
        for port, count in port_items:
            port_uops[port] += weight * count
        uops += weight * uop_count
        fused += weight * fused_count
    return CounterValues(
        cycles=cycles,
        port_uops=port_uops,
        uops=uops,
        instructions=copies * block_len,
        uops_fused=fused,
    )


def unrolled_counters(
    core: Core,
    code: Sequence,
    init: Optional[Dict[str, int]],
    targets: Sequence[int],
) -> Tuple[Dict[int, CounterValues], ExtrapolationStats]:
    """Exact counters of ``code * t`` for every unroll factor in *targets*.

    One ladder on every fast kernel, each rung exact:

    1. **Templates** (:func:`_template_unrolled`): structural rename of
       a few copies with a snapshot-proved period, replayed as the
       probe's µop stream and scheduled by the array event kernel (the
       analytic kernel tries the closed-form recurrence first).  One
       result per body shape, shared through ``core.template_memo``.
    2. **Emulating probe**, for bodies the structural guards refuse
       (stores, no snapshot match, fusion/decoder cores; counted in
       ``runs_emulated``): :meth:`Core.run_instrumented` renames every
       copy with value emulation.
    3. **Full simulation** per target: divider forms, and targets beyond
       a probe with no checked period (both counted in
       ``runs_fallback``).

    Both probes go through :func:`_verified_period` — one simulation
    per check step, one in all unless a check fails — and serve every
    target either as an integer prefix of the probe or by extrapolating
    the periodic steady state; each returned :class:`CounterValues` is
    bit-identical to ``core.run(list(code) * t, init)``.  The reference
    kernel simulates every target in full.
    """
    stats = ExtrapolationStats()
    targets = sorted(set(targets))

    def simulate_all() -> Dict[int, CounterValues]:
        return {
            t: core.run(list(code) * t, init) for t in targets
        }

    if not code or not targets or core.kernel == KERNEL_REFERENCE:
        return simulate_all(), stats
    replayed = _template_unrolled(core, code, targets, stats)
    if replayed is not None:
        return replayed, stats
    if _uses_divider(core, code):
        stats.runs_fallback += len(targets)
        return simulate_all(), stats

    stats.runs_emulated += 1
    probe, period = _verified_period(
        lambda n: core.run_instrumented(code, n, init), targets
    )
    block_len = len(code)
    ports = core.uarch.ports
    results: Dict[int, CounterValues] = {}
    for t in targets:
        if t <= probe.copies:
            results[t] = _prefix_counters(probe, t, block_len, ports)
        elif period is None:
            # No steady state survived the check: simulate the long
            # unroll in full.
            results[t] = core.run(list(code) * t, init)
            stats.runs_fallback += 1
        else:
            counters = _extrapolated_counters(
                probe, period, t, block_len, ports
            )
            stats.runs_extrapolated += 1
            stats.cycles_extrapolated += counters.cycles - probe.total_cycles
            results[t] = counters
    return results, stats
