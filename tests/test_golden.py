"""Golden-run corpus: every report field of a fixed set of runs, frozen.

`tests/golden/` holds one JSON file per config below, written by
`tests/golden/regen.py`. A refactor that should move no number passes
this test unchanged; a change that moves runs on purpose regenerates the
files and names, in its change notes, each config that moved and why.
Integers (events, dimensions, sample counts) must match exactly, floats
(errors, accuracies, angles) to 1e-12.

The same directory freezes a few `lllsim lowerbound` commands: a SHA-256
of the Bernoulli patterns they draw (exact), the exceedance statistic's
scalars and both ledger rows (floats to 1e-12).
"""

import csv
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lllsim import cli, lowerbound, synthetic
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
    "rr_threshold5_d100_m60_s0": dict(mode="rr", d=100, k=5, m=60, seed=0, r_max=5),
    "rr_threshold6_d100_m120_s3": dict(mode="rr", d=100, k=5, m=120, seed=3, r_max=6),
    "rr_k1_d100_m60_s0": dict(mode="rr", d=100, k=1, m=60, seed=0),
}

# `lllsim lowerbound` arguments; the README command, instance tasks, and a
# two-coordinate subset, where a quarter of all draws are redrawn zeros
LOWERBOUND_COMMANDS = {
    "lowerbound_k16_t10000_s0": "--k 16 --eps 0.02 --trials 10000",
    "lowerbound_k4_n50_s1": "--k 4 --n-random 50 --seed 1",
    "lowerbound_k6_subset02_t500_s9": (
        "--k 6 --eps 0.05 --subset 0,2 --trials 500 --seed 9"
    ),
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


class _RecordingGenerator(np.random.Generator):
    """A generator that appends every `integers` draw to a list."""

    def __init__(self, bit_generator, draws: list):
        super().__init__(bit_generator)
        self.draws = draws

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.draws.append(np.array(out))
        return out


def record_lowerbound(args: str) -> dict:
    """Drawn patterns, exceedance statistic and ledger of one lowerbound command."""
    draws, stats = [], []

    def substream(seed, *path):
        return _RecordingGenerator(
            synthetic.rng_substream(seed, *path).bit_generator, draws
        )

    def angle_stats(*a, **kw):
        stats.append(lowerbound.new_task_angle_stats(*a, **kw))
        return stats[-1]

    with tempfile.TemporaryDirectory() as out, mock.patch.object(
        lowerbound, "rng_substream", substream
    ), mock.patch.object(cli, "new_task_angle_stats", angle_stats):
        assert cli.main(["lowerbound", *args.split(), "-o", out]) == 0
        with open(Path(out) / "ledger.csv", newline="") as fh:
            ledger = [[_cell(c) for c in row] for row in csv.reader(fh)]
    (st,) = stats
    # a draw is one row of 0/1 entries on S, or a block of such rows; the
    # patterns are the rows that are not all zero, in draw order
    rows = np.concatenate([d.reshape(-1, d.shape[-1]) for d in draws])
    kept = rows[rows.any(axis=1)].astype(np.int64)
    return {
        "args": args,
        "patterns_sha256": hashlib.sha256(kept.tobytes()).hexdigest(),
        "patterns_shape": list(kept.shape),
        "redrawn_zero_rows": int(rows.shape[0] - kept.shape[0]),
        "tasks": int(st.angles.size),
        "threshold": float(st.threshold),
        "fraction_exceeding": float(st.fraction_exceeding),
        "bound": float(st.bound),
        "angle_min": float(st.angles.min()),
        "angle_max": float(st.angles.max()),
        "angle_mean": float(st.angles.mean()),
        # about 100 angles in task order: the order the patterns were used in
        "angle_sample": st.angles[:: max(1, st.angles.size // 100)].tolist(),
        "ledger": ledger,
    }


def _cell(text: str):
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


_LB_EXACT = ("args", "patterns_sha256", "patterns_shape", "redrawn_zero_rows", "tasks")
_LB_FLOAT = (
    "threshold",
    "fraction_exceeding",
    "bound",
    "angle_min",
    "angle_max",
    "angle_mean",
)


@pytest.mark.parametrize("name", sorted(LOWERBOUND_COMMANDS))
def test_lowerbound_matches_golden_record(name):
    stored = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert stored["args"] == LOWERBOUND_COMMANDS[name]
    got = record_lowerbound(LOWERBOUND_COMMANDS[name])
    assert got["patterns_shape"][0] == got["tasks"]
    for field in _LB_EXACT:
        assert got[field] == stored[field], field
    for field in _LB_FLOAT:
        assert got[field] == pytest.approx(stored[field], rel=0.0, abs=1e-12), field
    np.testing.assert_allclose(
        got["angle_sample"], stored["angle_sample"], rtol=0.0, atol=1e-12
    )
    assert len(got["ledger"]) == len(stored["ledger"]) == 3
    for row, want in zip(got["ledger"], stored["ledger"]):
        assert [type(c) for c in row] == [type(c) for c in want]
        assert row == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_every_golden_file_has_a_config():
    names = sorted(CONFIGS) + sorted(LOWERBOUND_COMMANDS)
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(names)
