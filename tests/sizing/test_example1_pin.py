"""Bit-identity pin of the Example-1 plan and the quantities sized from it.

For each movie the plan at a 1230-stream budget is pinned by the ``repr``
of its ``(n*, B*)`` and of its P(hit), by the 1%-blocking VCR reserve at a
third of 1 arrival/min, and by the ``repr`` of the phase-2 mean hold.  The
values were recorded before the model's end-hit, offset-node, CDF-grid and
rate-tolerance settings became constants, so this one test shows that none
of those constants moved a bit: P(hit) carries the first three, the
reserve and the mean hold the last.
"""

from __future__ import annotations

import pytest

from repro.core.phase2 import Phase2Model
from repro.experiments.example1 import paper_example1_specs
from repro.sizing.planner import SystemSizer
from repro.sizing.reservation import VCRLoadModel

#: movie -> (repr((n*, B*)), repr(P(hit)), reserve streams, repr(E[hold])).
_PIN = {
    "movie1": ("(374, 37.6)", "0.5012461002578281", 7, "0.4976052170467351"),
    "movie2": ("(60, 30.0)", "0.5005031151281145", 8, "2.4297539643218267"),
    "movie3": ("(180, 45.0)", "0.5007632532006754", 6, "1.2380008396656152"),
}


@pytest.fixture(scope="module")
def planned():
    sizer = SystemSizer(paper_example1_specs())
    report = sizer.solve(stream_budget=1230)
    return list(zip(sizer.feasible_sets, report.result.allocations))


def test_plan_is_pinned_bit_for_bit(planned):
    observed = {}
    for feasible, allocation in planned:
        model = feasible.model
        config = model.configuration(allocation.num_streams, allocation.buffer_minutes)
        reserve = VCRLoadModel(model, config, viewer_arrival_rate=1.0 / 3.0).plan(0.01)
        observed[allocation.spec.name] = (
            repr((allocation.num_streams, allocation.buffer_minutes)),
            repr(model.hit_probability(config)),
            reserve.reserve_streams,
            repr(Phase2Model(config).mean_hold()),
        )
    assert observed == _PIN
