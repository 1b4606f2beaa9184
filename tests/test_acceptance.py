"""Acceptance battery: every numbered criterion at the full profile.

Each test runs one criterion end to end with the pinned seed and tolerance,
prints its one-line verdict to the live terminal, and fails if the criterion
fails or overruns its time budget. The same battery is scriptable through
`matrixball suite --profile full`.
"""

import pytest

from matrixball import suite

SEED = 7
PROFILE = "full"

NAMES = {
    1: "structure-roots",
    2: "cocycle-suite",
    3: "kernel-form",
    4: "hua-eigenvalue",
    5: "third-order-ratio",
    6: "cs-triple",
    7: "fatou-recovery",
    8: "domination",
    9: "norm-sandwich",
    10: "schur-l2",
    11: "inversion-roundtrip",
    12: "determinism",
}


@pytest.mark.parametrize("index", sorted(NAMES))
def test_criterion(index, capsys):
    res = suite.run_criterion(index, seed=SEED, profile=PROFILE)
    with capsys.disabled():
        print("\n" + res.line(), end="")
    assert res.name == NAMES[index]
    assert res.passed, res.line() + " :: " + repr(res.details)
    assert res.elapsed_s <= res.budget_s, (
        "criterion %d exceeded its %.0fs budget (%.1fs)"
        % (index, res.budget_s, res.elapsed_s)
    )
