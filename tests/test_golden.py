"""Golden-run corpus: every report field of a fixed set of runs, frozen.

`tests/golden/` holds one JSON file per config below, written by
`tests/golden/regen.py`. A refactor that should move no number passes
this test unchanged; a change that moves runs on purpose regenerates the
files and names, in its change notes, each config that moved and why.
Integers (events, dimensions, sample counts) must match exactly, floats
(errors, accuracies, angles) to 1e-12.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lllsim.driver import RunConfig, RunReport, run_one

GOLDEN_DIR = Path(__file__).parent / "golden"

_SEEDED = [
    dict(mode=mode, d=100, k=5, m=60, seed=seed)
    for mode in ("basic", "rr", "joint")
    for seed in range(4)
]
CONFIGS = {
    **{"{mode}_d{d}_m{m}_s{seed}".format(**kw): kw for kw in _SEEDED},
    "rr_d100_m600_s1": dict(mode="rr", d=100, k=5, m=600, seed=1),
    "basic_mc_d100_m60_s0": dict(
        mode="basic", d=100, k=5, m=60, seed=0, check_mode="montecarlo"
    ),
    "rr_mc_d100_m60_s0": dict(
        mode="rr", d=100, k=5, m=60, seed=0, check_mode="montecarlo"
    ),
    "rr_threshold5_d100_m60_s0": dict(
        mode="rr", d=100, k=5, m=60, seed=0, refine_every="threshold", r_max=5
    ),
    "rr_threshold6_d100_m120_s3": dict(
        mode="rr", d=100, k=5, m=120, seed=3, refine_every="threshold", r_max=6
    ),
    "rr_k1_d100_m60_s0": dict(mode="rr", d=100, k=1, m=60, seed=0),
}

INT_FIELDS = (
    "new_feature_events",
    "relearn_events",
    "feature_dim_curve",
    "samples_cum_curve",
    "refinement_count",
    "refinement_converged",
    "samples_representation",
    "samples_combination",
    "samples_checking",
    "samples_total",
    "error_contract_ok",
)
FLOAT_FIELDS = (
    "per_task_error",
    "accuracy_curve",
    "min_accuracy_curve",
    "angle_curve",
)


def record(config: dict) -> dict:
    """The config and every report field but wall_time, as JSON-ready values."""
    report = run_one(RunConfig(**config))
    rec = {"config": config}
    for name in INT_FIELDS + FLOAT_FIELDS:
        value = getattr(report, name)
        rec[name] = np.asarray(value).tolist() if np.ndim(value) else value
    return rec


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_golden_record(name):
    stored = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert stored["config"] == CONFIGS[name]
    got = record(CONFIGS[name])
    for field in INT_FIELDS:
        assert got[field] == stored[field], field
    for field in FLOAT_FIELDS:
        np.testing.assert_allclose(
            got[field], stored[field], rtol=0.0, atol=1e-12, err_msg=field
        )


def test_corpus_records_every_report_field_but_wall_time():
    recorded = set(INT_FIELDS + FLOAT_FIELDS) | {"mode", "seed", "wall_time"}
    assert recorded == {f.name for f in dataclasses.fields(RunReport)}
    assert len(INT_FIELDS + FLOAT_FIELDS) == len(recorded) - 3


def test_every_golden_file_has_a_config():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CONFIGS)
