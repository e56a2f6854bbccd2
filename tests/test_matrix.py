"""The sweep engine under every harness: deterministic and non-vacuous.

One counting run per case plus one swept cell per harness keeps this
cheap; the full sweeps run through the CLI and the per-harness suites
(test_crash_matrix, test_interleave, test_rebalance).
"""

from __future__ import annotations

import pytest

from repro.tools.campaign import Campaign
from repro.tools.crashmatrix import MOUNT, CrashMatrix
from repro.tools.interleave import ZOMBIE, InterleaveMatrix
from repro.tools.rebalancematrix import RebalanceMatrix

#: harness -> (class, the case swept for one cell, its axis value);
#: ``None`` picks the harness's only case.
HARNESSES = {
    "crash": (CrashMatrix, "rename", MOUNT),
    "interleave": (InterleaveMatrix, "mkdir-create", ZOMBIE),
    "campaign": (Campaign, "mkdir-create", ZOMBIE),
    "rebalance": (RebalanceMatrix, None, "resume"),
}


@pytest.mark.parametrize("harness", HARNESSES)
def test_sweep_is_deterministic_and_non_vacuous(harness):
    factory, name, mode = HARNESSES[harness]
    cells = []
    for run in range(2):
        matrix = factory(seed=7)
        # The first scenario arms the campaign's outage + flaky shards,
        # so its seeded fault draws are part of what must replay.
        matrix.scenario = matrix.SCENARIOS[0]
        [case] = [c for c in matrix.cases()
                  if name is None or c.name == name]
        total = matrix.count_points(case)
        cells.append((total, matrix.run_cell(case, mode, 2, total)))
    assert cells[0] == cells[1]
    assert cells[0][1].consistent, cells[0][1]
    # Each swept op is genuinely multi-step: a single-mutation op would
    # make its sweep vacuous.
    for case in matrix.cases():
        total = matrix.count_points(case)
        assert total >= 3, (harness, case, total)
