"""Unit tests for every fallback edge of the extrapolation tier ladder.

:func:`repro.measure.extrapolate.unrolled_counters` serves unroll
targets through a ladder — a probe replayed from structural rename
templates (closed form on the analytic kernel), a value-emulating
instrumented probe, full per-target simulation — and every rung must
(a) take the fallback it claims to take and (b) stay bit-identical to
simulating each target outright.  Each edge gets a targeted test:
reference-kernel opt-out, divider forms, store forms (and a
store-forwarding witness for that guard), sub-probe targets,
undetected timing periods, rename-snapshot misses, recurrence aborts,
and the bounded structural memo — plus the probe count of the period
check and the fallback and emulation counters it feeds.
"""

from __future__ import annotations

import pytest

from repro.cli import _print_cache_stats
from repro.core.codegen import independent_sequence, instantiate
from repro.core.runner import RunStatistics
from repro.isa.assembler import parse_instruction
from repro.isa.database import load_default_database
from repro.measure import extrapolate
from repro.measure.backend import (
    BackendStats,
    HardwareBackend,
    MeasurementConfig,
)
from repro.measure.extrapolate import (
    MIN_PROBE,
    _continuation_matches,
    _detect_period,
    _form_blockers,
    _signatures,
    _uses_divider,
    _uses_stores,
    unrolled_counters,
)
from repro.pipeline.core import Core, build_core
from repro.uarch.configs import get_uarch

from tests.test_sim_differential import assert_identical

DATABASE = load_default_database()


def _body(uid, n=2):
    return independent_sequence(DATABASE.by_uid(uid), n)


def _expected(uarch_name, code, targets, init=None):
    """Ground truth: simulate each target on a fresh reference core."""
    core = build_core(get_uarch(uarch_name), kernel="reference")
    return {t: core.run(list(code) * t, init) for t in targets}


def check_ladder(uarch_name, kernel, code, targets, init=None):
    core = build_core(get_uarch(uarch_name), kernel=kernel)
    results, stats = unrolled_counters(core, code, init, targets)
    assert sorted(results) == sorted(set(targets))
    expected = _expected(uarch_name, code, targets, init)
    for t in sorted(results):
        assert_identical(
            results[t], expected[t], f"({uarch_name} {kernel} x{t})"
        )
    return core, results, stats


class TestReferenceOptOut:
    """kernel=reference must bypass both fast tiers entirely."""

    def test_simulates_every_target(self):
        core, _results, stats = check_ladder(
            "SKL", "reference", _body("ADD_R64_R64"), [2, 25]
        )
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0
        assert stats.runs_analytic == 0
        assert core.cycles_simulated > 0

    def test_empty_inputs(self):
        core = build_core(get_uarch("SKL"), kernel="event")
        results, stats = unrolled_counters(
            core, _body("ADD_R64_R64"), None, []
        )
        assert results == {}
        assert stats.runs_extrapolated == 0


class TestDividerFallback:
    """Divider forms break the prefix property: never extrapolated,
    never served in closed form, on either fast kernel."""

    @pytest.mark.parametrize("kernel", ["event", "analytic"])
    def test_simulates_all(self, kernel):
        code = [instantiate(DATABASE.by_uid("DIV_R32"))] * 2
        core, _results, stats = check_ladder("SKL", kernel, code, [2, 20])
        assert stats.runs_extrapolated == 0
        assert stats.runs_analytic == 0
        assert stats.runs_fallback == 2
        assert core.cycles_simulated > 0

    def test_guard_sees_divider_anywhere_in_body(self):
        core = build_core(get_uarch("SKL"), kernel="event")
        mixed = _body("ADD_R64_R64") + [
            instantiate(DATABASE.by_uid("DIV_R32"))
        ]
        assert _uses_divider(core, mixed)
        assert not _uses_divider(core, _body("ADD_R64_R64"))


class TestStoresFallback:
    """Stores make rename value-dependent: the templates refuse and the
    value-emulating probe takes over (extrapolation itself is still
    fine)."""

    def test_analytic_tier_declines(self):
        code = _body("MOV_M64_R64")
        core, _results, stats = check_ladder(
            "SKL", "analytic", code, [2, 40]
        )
        assert stats.runs_analytic == 0
        assert stats.cycles_analytic == 0
        assert stats.runs_emulated == 1
        # The event probe still extrapolates the long target.
        assert stats.runs_extrapolated == 1

    def test_guard_flags(self):
        core = build_core(get_uarch("SKL"), kernel="analytic")
        assert _uses_stores(core, _body("MOV_M64_R64"))
        assert not _uses_stores(core, _body("MOV_R64_M64"))


class TestStoreGuardWitness:
    """Why the store guard exists: store-to-load forwarding keys on
    effective addresses, which the templates never compute.

    ``MOV [R8], R9; MOV R9, [R8]`` is a forwarding chain (151 cycles at
    25 copies on SKL); renamed without values it looks like two
    independent µop groups (29 cycles).  With ``[R10]`` as the load
    address the chain exists only when ``init`` makes R8 and R10 alias.
    The default tier must match the reference loop either way.
    """

    CHAIN = ("MOV qword ptr [R8], R9", "MOV R9, qword ptr [R8]")
    SPLIT = ("MOV qword ptr [R8], R9", "MOV R9, qword ptr [R10]")

    @pytest.mark.parametrize(
        "texts, init",
        [
            (CHAIN, None),
            (CHAIN, {"R8": 0x2000}),
            (SPLIT, {"R8": 0x2000, "R10": 0x2000}),
            (SPLIT, {"R8": 0x2000, "R10": 0x3000}),
        ],
        ids=["chain", "chain-moved", "split-alias", "split-apart"],
    )
    def test_default_tier_matches_reference(self, texts, init):
        code = [parse_instruction(text, DATABASE) for text in texts]
        _core, _results, stats = check_ladder(
            "SKL", "event", code, [5, 25], init
        )
        assert stats.runs_emulated == 1


@pytest.fixture
def probe_sizes(monkeypatch):
    """Spy on the probe lengths :func:`_verified_period` simulates —
    template-replayed and value-emulating probes alike."""
    sizes = []
    original = extrapolate._verified_period

    def spy(make_probe, targets):
        def recording(copies):
            sizes.append(copies)
            return make_probe(copies)

        return original(recording, targets)

    monkeypatch.setattr(extrapolate, "_verified_period", spy)
    return sizes


@pytest.fixture
def emulated_sizes(monkeypatch):
    """Spy on ``Core.run_instrumented``: the value-emulating probes."""
    sizes = []
    original = Core.run_instrumented

    def spy(self, code, copies, init=None):
        sizes.append(copies)
        return original(self, code, copies, init)

    monkeypatch.setattr(Core, "run_instrumented", spy)
    return sizes


class TestShortProbes:
    """Targets below MIN_PROBE are prefixes of one short probe: no
    extrapolation, and the probe is clamped to the largest target."""

    def test_all_targets_prefix(self):
        targets = [3, 7]
        assert targets[-1] < MIN_PROBE
        core, _results, stats = check_ladder(
            "SKL", "event", _body("IMUL_R64_R64"), targets
        )
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0

    def test_probe_not_longer_than_largest_target(
        self, probe_sizes, emulated_sizes
    ):
        core = build_core(get_uarch("SKL"), kernel="event")
        unrolled_counters(core, _body("ADD_R64_R64"), None, [3, 7])
        assert probe_sizes == [7]
        assert emulated_sizes == []  # replayed from rename templates


class TestProbeCount:
    """The detection window is read as a prefix of the checking probe,
    so every step of the check is a single simulation — of a
    template-replayed probe for store-free bodies, of a value-emulating
    one for store bodies."""

    def test_default_ladder_is_one_probe(self, probe_sizes, emulated_sizes):
        _core, _results, stats = check_ladder(
            "SKL", "event", _body("ADD_R64_R64"), [5, 25]
        )
        assert probe_sizes == [25]
        assert emulated_sizes == []
        assert stats.runs_extrapolated == 0
        assert stats.runs_emulated == 0

    def test_verified_paper_ladder_is_one_probe(
        self, probe_sizes, emulated_sizes
    ):
        _core, _results, stats = check_ladder(
            "SKL", "event", _body("ADD_R64_R64"), [10, 110]
        )
        assert probe_sizes == [2 * MIN_PROBE]
        assert emulated_sizes == []
        assert stats.runs_extrapolated == 1
        assert stats.runs_fallback == 0

    def test_failed_checks_simulate_each_size_once(
        self, monkeypatch, probe_sizes
    ):
        monkeypatch.setattr(
            extrapolate, "_continuation_matches", lambda *args: False
        )
        _core, _results, stats = check_ladder(
            "SKL", "event", _body("ADD_R64_R64"), [10, 110]
        )
        assert probe_sizes == [36, 72, 110]
        # The last probe covers the longest target: all prefixes.
        assert stats.runs_extrapolated == 0
        assert stats.runs_fallback == 0

    @pytest.mark.parametrize(
        "targets, sizes",
        [([5, 25], [25]), ([10, 110], [2 * MIN_PROBE])],
    )
    def test_store_ladder_is_one_emulated_probe(
        self, targets, sizes, probe_sizes, emulated_sizes
    ):
        _core, _results, stats = check_ladder(
            "SKL", "event", _body("MOV_M64_R64"), targets
        )
        assert probe_sizes == sizes
        assert emulated_sizes == sizes
        assert stats.runs_emulated == 1
        assert stats.runs_fallback == 0


class TestCheckedTransient:
    """A real catalog body whose detection window locks onto a transient.

    ``CMPSB; MOVSX RDI, SI; MOV RSI, 7`` is the chain the latency
    planner measures for CMPSB.  On SKL it retires a copy every 2 cycles
    (ports rotating with period 4) for its first 29 copies, then settles
    into 7 cycles per 4 copies.  The 18-copy window sees period 4 in
    the transient; the check on copies 18-35 rejects it, the 36-copy
    window finds no period, and the 110-copy target is simulated in full.

    Bypassing the check would not change the counters for this body:
    the 36-copy probe's tail already holds the new steady state, which
    also has period 4.  So this pins that the check fires on a real
    body and that the failed-check path stays exact.  It is not a
    witness that the check is needed (no such body was found).
    """

    def _code(self):
        return [
            parse_instruction(text, DATABASE)
            for text in ("CMPSB", "MOVSX RDI, SI", "MOV RSI, 7")
        ]

    def test_window_period_fails_check(self):
        core = build_core(get_uarch("SKL"), kernel="event")
        signatures = _signatures(
            core.run_instrumented(self._code(), 2 * MIN_PROBE)
        )
        period = _detect_period(signatures[:MIN_PROBE])
        assert period == 4
        assert not _continuation_matches(signatures, MIN_PROBE, period)

    @pytest.mark.parametrize(
        "kernel, sizes",
        # Both tiers replay the same templates through the same check;
        # only the scheduler differs (closed form on the analytic tier).
        [("event", [36, 72]), ("analytic", [36, 72])],
    )
    def test_ladder_stays_exact(
        self, kernel, sizes, probe_sizes, emulated_sizes
    ):
        _core, _results, stats = check_ladder(
            "SKL", kernel, self._code(), [10, 110]
        )
        assert probe_sizes == sizes
        assert emulated_sizes == []
        assert stats.runs_extrapolated == 0
        assert stats.runs_fallback == 1


class TestFallbackCounter:
    """Full-length fallbacks reach RunStatistics and the stats report."""

    def test_backend_snapshot_carries_fallbacks(self):
        backend = HardwareBackend(get_uarch("SKL"), kernel="event")
        backend.measure([instantiate(DATABASE.by_uid("DIV_R32"))])
        assert backend.runs_fallback == 2  # both unroll targets
        statistics = RunStatistics()
        statistics.fold_snapshot(BackendStats.zero(), backend.stats_tuple())
        assert statistics.runs_fallback == 2
        assert statistics.as_dict()["runs_fallback"] == 2

    def test_extrapolated_body_has_no_fallback(self):
        backend = HardwareBackend(
            get_uarch("SKL"), MeasurementConfig.paper(), kernel="event"
        )
        backend.measure(_body("ADD_R64_R64"))
        assert backend.runs_extrapolated == 1
        assert backend.runs_fallback == 0

    def test_rendered_in_stats_lines(self, capsys):
        _print_cache_stats(RunStatistics(runs_fallback=7))
        assert "7 full-length fallbacks" in capsys.readouterr().err


class TestEmulatedCounter:
    """Ladders that needed value-emulating rename reach RunStatistics
    and the stats report; template-served ones do not count."""

    def test_backend_snapshot_carries_emulated(self):
        backend = HardwareBackend(get_uarch("SKL"), kernel="event")
        backend.measure(_body("MOV_M64_R64"))
        backend.measure(_body("ADD_R64_R64"))
        assert backend.runs_emulated == 1
        statistics = RunStatistics()
        statistics.fold_snapshot(BackendStats.zero(), backend.stats_tuple())
        assert statistics.as_dict()["runs_emulated"] == 1

    def test_rendered_in_stats_lines(self, capsys):
        _print_cache_stats(RunStatistics(runs_emulated=3))
        assert "3 emulated probes" in capsys.readouterr().err


class TestTemplateMemoBound:
    """The backend bounds the core's template memo like its other
    in-process stores, and counts its evictions."""

    def _bodies(self):
        add = DATABASE.by_uid("ADD_R64_R64")
        imul = DATABASE.by_uid("IMUL_R64_R64")
        return [
            independent_sequence(add, 2),
            [instantiate(imul)] * 2,
            independent_sequence(add, 3),
            # Same shape as the first body, measured after its eviction.
            independent_sequence(add, 2)[::-1],
        ]

    def test_bound_of_one_keeps_results_and_counts_evictions(self):
        uarch = get_uarch("SKL")
        bounded = HardwareBackend(
            uarch, MeasurementConfig(max_cached_measurements=1),
            kernel="event",
        )
        unbounded = HardwareBackend(
            uarch, MeasurementConfig(max_cached_measurements=None),
            kernel="event",
        )
        assert bounded._core.template_memo is bounded._template_memo
        for body in self._bodies():
            assert_identical(
                bounded.measure(body), unbounded.measure(body),
                "(template memo bound 1)",
            )
        assert len(bounded._template_memo) == 1
        assert bounded._template_memo.evictions == 3
        assert unbounded._template_memo.evictions == 0
        assert bounded.cache_evictions == (
            bounded._cache.evictions
            + bounded._run_memo.evictions
            + bounded._template_memo.evictions
        )


class TestNoPeriodFallback:
    """When no timing period is detected, targets up to the simulated
    probe length (twice the detection window, capped at the longest
    target) are still prefixes of that probe; only the longer ones are
    simulated in full — and counted as fallbacks."""

    def test_event_probe_falls_back(self, monkeypatch):
        monkeypatch.setattr(
            extrapolate, "_detect_period", lambda signatures: None
        )
        core, _results, stats = check_ladder(
            "SKL", "event", _body("ADD_R64_R64"), [2, 30, 60]
        )
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0
        assert stats.runs_fallback == 1  # 60; 30 is a probe prefix

    def test_analytic_extends_exactly(self, monkeypatch):
        """The closed form needs no timing period for its own probe —
        but beyond-probe targets without one are re-synthesized at full
        length instead of extrapolated."""
        monkeypatch.setattr(
            extrapolate, "_detect_period", lambda signatures: None
        )
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), [2, 30, 60]
        )
        assert stats.runs_analytic == len([2, 30, 60])
        assert stats.runs_fallback == 1
        assert core.cycles_simulated == 0


class TestSnapshotMiss:
    """No rename-state period within the snapshot budget: the analytic
    tier returns None and the event probe takes over."""

    def test_budget_zero_disables_closed_form(self, monkeypatch):
        monkeypatch.setattr(extrapolate, "SNAPSHOT_BUDGET", 0)
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), [2, 40]
        )
        assert stats.runs_analytic == 0
        assert stats.runs_extrapolated == 1
        # The probe itself may still be scheduled by the analytic
        # kernel per run — but never as a closed-form unroll.
        assert len(core.template_memo) == 0


class TestRecurrenceAbort:
    """A per-port ready-order inversion aborts the recurrence; the
    synthesized stream is then run through the array event kernel —
    still no value emulation, and still bit-identical."""

    def test_event_recovery_path(self, monkeypatch):
        monkeypatch.setattr(
            extrapolate, "schedule_arrays", lambda *args, **kw: None
        )
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), [2, 40]
        )
        # Recovered runs are simulated (array kernel), not closed form.
        assert stats.runs_analytic == 0
        assert core.cycles_simulated > 0
        assert stats.runs_extrapolated >= 1


class TestStructuralMemo:
    """Register-renamed variants of one experiment shape share their
    closed-form schedule through the per-core structural memo."""

    def test_hit_returns_identical_results_and_stats(self):
        uarch = get_uarch("SKL")
        core = build_core(uarch, kernel="analytic")
        form = DATABASE.by_uid("ADD_R64_R64")
        body_a = independent_sequence(form, 2)
        body_b = independent_sequence(form, 2)
        first, stats_a = unrolled_counters(core, body_a, None, [2, 40])
        assert len(core.template_memo) == 1
        second, stats_b = unrolled_counters(core, body_b, None, [2, 40])
        assert len(core.template_memo) == 1  # same key: renamed alike
        for t in (2, 40):
            assert_identical(first[t], second[t], f"(memo hit x{t})")
        assert stats_b.runs_analytic == stats_a.runs_analytic > 0
        assert stats_b.cycles_analytic == stats_a.cycles_analytic > 0
        # A memo hit is not a kernel run.
        assert core.cycles_simulated == 0

    def test_different_shapes_miss(self):
        uarch = get_uarch("SKL")
        core = build_core(uarch, kernel="analytic")
        form = DATABASE.by_uid("ADD_R64_R64")
        unrolled_counters(
            core, independent_sequence(form, 2), None, [2, 40]
        )
        unrolled_counters(
            core, [instantiate(form)] * 2, None, [2, 40]
        )
        assert len(core.template_memo) == 2


class TestFormBlockerCache:
    """The (divider, stores) guard flags are computed once per form."""

    def test_flags_cached_per_form(self):
        core = build_core(get_uarch("SKL"), kernel="analytic")
        div = instantiate(DATABASE.by_uid("DIV_R32"))
        store = instantiate(DATABASE.by_uid("MOV_M64_R64"))
        add = instantiate(DATABASE.by_uid("ADD_R64_R64"))
        assert _form_blockers(core, div)[0] is True
        assert _form_blockers(core, store)[1] is True
        assert _form_blockers(core, add) == (False, False)
        assert set(core.fastpath_blockers) == {
            div.form, store.form, add.form
        }
        # Second call must be served from the cache, not recomputed.
        core._entries._cache.clear()
        assert _form_blockers(core, add) == (False, False)
