"""The benchmark's workloads and their seeded draws of forms."""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.measure.backend import MeasurementConfig

from truth import checkable

HERE = os.path.dirname(os.path.abspath(__file__))
COSTS_PATH = os.path.join(HERE, "costs.json")
CONFIGS = {"default": MeasurementConfig, "paper": MeasurementConfig.paper}

#: Forms per cost group; one of them is drawn.  Neighbours by cost
#: differ little, so the seed varies the forms but hardly the work.
GROUP = 4


@dataclass(frozen=True)
class Workload:
    name: str
    uarch: str
    config: str
    #: Sweep worker processes: 1 is the serial path, more is the work
    #: queue with that many drainers.
    jobs: int
    #: Forms per draw (one from each of this many cost groups).
    forms: int

    @property
    def costs_key(self) -> str:
        return f"{self.uarch}-{self.config}"

    def measurement_config(self) -> MeasurementConfig:
        return CONFIGS[self.config]()


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("cold-skl-default", "SKL", "default", jobs=1, forms=24),
        Workload("cold-nhm-paper", "NHM", "paper", jobs=1, forms=32),
        Workload("queue-skl-2drain", "SKL", "default", jobs=2, forms=48),
    )
}


def load_costs(key: str) -> Dict[str, int]:
    with open(COSTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[key]


def draw_forms(workload: Workload, seed: int, supported, uarch) -> List:
    """A seeded draw of ``workload.forms`` checkable forms.

    The checkable supported forms with a recorded cost are sorted by
    cost; the draw takes one form from each of ``workload.forms`` groups
    of :data:`GROUP` neighbours, centred on evenly spaced cost
    quantiles, and the seed picks which member.  Every seed therefore
    draws the same cost profile, so run-to-run spread comes from the
    program and the host, not from an unlucky draw of expensive forms.
    The costliest 1-2% of the catalog (integer dividers, locked and
    exchanging memory forms) lies above the top group and is never
    drawn.
    """
    costs = load_costs(workload.costs_key)
    pool = sorted(
        (costs[form.uid], form.uid, form)
        for form in supported
        if form.uid in costs and checkable(form, uarch)
    )
    count = workload.forms
    if len(pool) < count * GROUP:
        raise ValueError(
            f"{workload.name}: only {len(pool)} forms to draw "
            f"{count} groups of {GROUP} from"
        )
    rng = random.Random(f"{workload.name}:{seed}")
    draw = []
    for i in range(count):
        centre = (2 * i + 1) * len(pool) // (2 * count)
        start = min(max(0, centre - GROUP // 2), len(pool) - GROUP)
        draw.append(rng.choice(pool[start:start + GROUP])[2])
    return draw
