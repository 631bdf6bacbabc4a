"""Ground-truth checks of characterization results.

The simulator executes from hidden per-form µop tables
(:func:`repro.uarch.tables.build_entry`).  A characterization is
correct when the port usage inferred from counters equals the table's
port usage exactly, and every exact register/flags latency pair is
within one cycle of the analytical DAG value
(:func:`repro.analysis.latency_truth.expected_latency`).  The pair rules
are those of ``examples/ground_truth_validation.py``: memory-operand
and divider forms are not latency-checked, and only GPR, vector, MMX
and flags endpoints are compared.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.latency_truth import expected_latency
from repro.core.result import PortUsage
from repro.isa.operands import OperandKind
from repro.uarch.tables import build_entry

#: Forms left out of every draw: they have no comparable ground truth
#: (ports are not measured for system/serializing forms; REP and
#: control-flow forms leave the straight-line benchmark model).
EXCLUDED_ATTRIBUTES = ("system", "serializing", "rep", "control_flow")

_UNCHECKED_LATENCY_CATEGORIES = ("div", "vec_fp_div", "vec_fp_sqrt")
_LATENCY_KINDS = (OperandKind.GPR, OperandKind.VEC, OperandKind.MMX)
#: A measured latency may exceed the DAG value by structural hazards
#: between an instruction's own µops; one cycle of slack (plus float
#: rounding) is the validation example's tolerance.
LATENCY_SLACK = 1.1


def checkable(form, uarch) -> bool:
    """Whether *form* has ground truth the checks can compare against."""
    if any(form.has_attribute(attr) for attr in EXCLUDED_ATTRIBUTES):
        return False
    try:
        return build_entry(form, uarch) is not None
    except KeyError:
        return False


def _slot_for_label(form, label):
    if label == "flags":
        return "flags"
    for index in range(len(form.operands)):
        if form.operand_label(index) == label:
            return index
    return None


def latency_pairs(form, result, uarch) -> Tuple[int, int]:
    """``(checked, within)`` exact latency pairs of one result."""
    if result.latency is None or form.has_memory_operand or (
        form.category in _UNCHECKED_LATENCY_CATEGORIES
    ):
        return 0, 0
    checked = within = 0
    for (src_label, dst_label), value in sorted(result.latency.pairs.items()):
        if value.kind != "exact":
            continue
        src = _slot_for_label(form, src_label)
        dst = _slot_for_label(form, dst_label)
        if src is None or dst is None:
            continue
        if any(
            slot != "flags" and form.operands[slot].kind not in _LATENCY_KINDS
            for slot in (src, dst)
        ):
            break
        expected = expected_latency(form, uarch, src, dst)
        if expected is None:
            continue
        checked += 1
        if abs(value.cycles - expected) <= LATENCY_SLACK:
            within += 1
    return checked, within


class TruthReport:
    """Ground-truth tallies over the forms of one sweep."""

    def __init__(self):
        self.forms = 0
        self.ports_exact = 0
        self.latency_checked = 0
        self.latency_within = 0
        #: ``(uid, reason)`` of every form that failed a check.
        self.failed: List[Tuple[str, str]] = []

    def check(self, form, result: Optional[object], uarch) -> None:
        self.forms += 1
        if result is None:
            self.failed.append((form.uid, "missing or quarantined"))
            return
        truth = PortUsage(build_entry(form, uarch).port_usage())
        ok = True
        if result.port_usage == truth:
            self.ports_exact += 1
        else:
            ok = False
            self.failed.append((
                form.uid,
                f"ports {result.port_usage and result.port_usage.notation()}"
                f" != {truth.notation()}",
            ))
        checked, within = latency_pairs(form, result, uarch)
        self.latency_checked += checked
        self.latency_within += within
        if within < checked and ok:
            self.failed.append(
                (form.uid, f"{checked - within} latency pair(s) off")
            )

    def as_dict(self):
        return {
            "forms": self.forms,
            "ports_exact": self.ports_exact,
            "latency_checked": self.latency_checked,
            "latency_within": self.latency_within,
            "failed": [list(item) for item in self.failed],
        }
