"""Run-level behaviour pin: every round of 30 small runs, frozen in a file.

The README's `demo.json` config at seed 1 is run under each of the five
alignment losses, both prototype modes and all three scenarios (30 runs,
10 rounds each), and every round's per-client accuracies, per-client loss
terms, structural skip count, effective dimensionality and participation
ratio must match `run_golden.json` to a relative 1e-9 (integers exactly).

This is a pin on behaviour, not an oracle: it says the program still does
what it did when the file was written, so that a refactor can be checked
against it.  Regenerate it only for an intended change of behaviour, and
only together with a CHANGES.md entry that says what changed and why:

    PYTHONPATH=src python tests/test_run_golden.py --write

Never regenerate it to make a refactor pass.
"""

import json
import math
import os
import sys

import pytest

from fedstruct.config import config_from_dict
from fedstruct.federation import PROTOTYPE_MODES, SCENARIOS
from fedstruct.losses import KNOWN_LOSSES
from fedstruct.runner import run_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run_golden.json")
DEMO = {
    "dataset": {"classes": 5, "input_dim": 8, "samples_per_class": 40},
    "partition": {"clients": 4, "alpha": 0.5},
    "training": {"rounds": 10, "batch_size": 16, "local_epochs": 1},
    "seed": 1,
}
FIELDS = ("per_client_accuracy", "loss_terms", "skipped_structural_steps",
          "effective_dimensionality", "participation_ratio")
RTOL = 1e-9
ATOL = 1e-12  # for terms that are exactly 0 (no global prototypes yet)
CASES = [f"{loss}/{mode}/{scenario}"
         for loss in KNOWN_LOSSES for mode in PROTOTYPE_MODES for scenario in SCENARIOS]


def pinned_rounds(case: str) -> list[dict]:
    loss, mode, scenario = case.split("/")
    payload = json.loads(json.dumps(DEMO))
    payload["training"].update(alignment=loss, prototype_mode=mode)
    run = run_scenario(config_from_dict(payload), scenario=scenario)
    return [{k: rep.to_json_dict()[k] for k in FIELDS} for rep in run.reports]


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, int):
        assert got == want, f"{where}: {got!r} != {want!r}"
    else:
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (
            f"{where}: {got!r} vs pinned {want!r}")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_run_matches_pinned_rounds(case, golden):
    _assert_close(pinned_rounds(case), golden[case], case)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    lines = [f"{json.dumps(case)}: {json.dumps(pinned_rounds(case), sort_keys=True)}"
             for case in sorted(CASES)]
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
