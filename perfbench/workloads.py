"""The benchmark's workloads: the operations of one pass and their checks.

A pass is a fixed list of operations (ops) run one after another by a single
caller, a closed loop. `make_ops(seed, j, workdir)` builds pass j's inputs
from the workload seed; the same (seed, j) always gives the same inputs.
Each op is timed on its own `call`; its `check` runs outside the timing.

The package is called through module attributes (`driver.run_one`, not a
name imported from it), so calls made while a `spans.Tracer` is active are
recorded.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lllsim import cli, driver, refinement, synthetic


@dataclass(frozen=True)
class Outcome:
    """What a check found: failed conditions, and labeled samples charged."""

    problems: tuple = ()
    samples: int = 0
    tasks: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def instance_seed(seed: int, j: int) -> int:
    """Seed of pass j's problem instance; distinct for every (seed, j)."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def check_report(cfg, rep) -> Outcome:
    problems = []
    if cfg.mode in ("basic", "rr"):
        if not rep.error_contract_ok:
            problems.append("a recorded task error exceeds epsilon")
        if rep.samples_cum_curve[-1] != rep.samples_total:
            problems.append("cumulative sample curve does not end at samples_total")
    if cfg.mode == "rr":
        if rep.feature_dim_curve[-1] > 2 * cfg.k - 1:
            problems.append(f"final dimension {rep.feature_dim_curve[-1]} > 2k-1")
        if not rep.refinement_converged:
            problems.append("a refinement did not converge")
    if cfg.mode == "joint":
        if rep.feature_dim_curve[-1] != cfg.k:
            problems.append(f"final dimension {rep.feature_dim_curve[-1]} != k")
        if not np.all(np.isfinite(rep.per_task_error)):
            problems.append("non-finite task error")
    return Outcome(
        tuple(f"{cfg.mode}: {p}" for p in problems), rep.samples_total, rep.m
    )


def _run_op(cfg) -> Op:
    gt = synthetic.generate_problem(cfg.d, cfg.k, cfg.m, cfg.seed)
    return Op(
        cfg.mode,
        lambda: driver.run_one(cfg, problem=gt),
        lambda rep: check_report(cfg, rep),
    )


def long_stream(seed: int, j: int, workdir: Path) -> list:
    s = instance_seed(seed, j)
    shapes = (("basic", 250), ("rr", 250), ("joint", 100))
    return [
        _run_op(driver.RunConfig(d=100, k=5, m=m, mode=mode, seed=s))
        for mode, m in shapes
    ]


def wide(seed: int, j: int, workdir: Path) -> list:
    s = instance_seed(seed, j)
    return [_run_op(driver.RunConfig(d=400, k=5, m=24, mode="rr", seed=s))]


SDP_SHAPE = (100, 30, 3)  # unit Gaussian rows (n, d) and target rank k
SDP_TOL = 5e-3  # the driver's default sdp_tol, fixed here so the workload cannot drift


def check_refinement(k: int, out) -> Outcome:
    _, cert, sol = out
    problems = []
    if not sol.converged:
        problems.append(f"gap {sol.gap:.3g} above tol after {sol.iterations} iterations")
    if cert.dims > 2 * k - 1:
        problems.append(f"rounded dimension {cert.dims} > 2k-1")
    if not cert.max_distance <= cert.approx_bound:
        problems.append(
            f"max distance {cert.max_distance:.4g} above bound {cert.approx_bound:.4g}"
        )
    return Outcome(tuple(f"refine: {p}" for p in problems))


def sdp_hard(seed: int, j: int, workdir: Path) -> list:
    n, d, k = SDP_SHAPE
    W = np.random.default_rng([seed, j]).standard_normal((n, d))
    W /= np.linalg.norm(W, axis=1)[:, None]
    return [
        Op(
            "refine",
            lambda: refinement.refine(W, k, 1.0, tol=SDP_TOL, full_output=True),
            lambda out: check_refinement(k, out),
        )
    ]


CLI_TRIALS, CLI_M = 2, 15


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def check_simulate(out_dir: Path, rc: int) -> Outcome:
    if rc != 0:
        return Outcome((f"simulate: exit code {rc}",))
    with open(out_dir / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = len(driver.MODES) * CLI_TRIALS * CLI_M
    if len(rows) != want:
        return Outcome((f"simulate: runs.csv has {len(rows)} rows, want {want}",))
    last = {}
    for row in rows:  # samples_cum never decreases along a run
        key = (row["mode"], row["trial"])
        last[key] = max(last.get(key, 0), int(row["samples_cum"]))
    return Outcome((), sum(last.values()), len(rows))


def check_lowerbound(rc: int) -> Outcome:
    return Outcome(() if rc == 0 else (f"lowerbound: exit code {rc}",))


def cli_trials(seed: int, j: int, workdir: Path) -> list:
    s = str(instance_seed(seed, j))
    sim_dir = workdir / "simulate"
    sim = ["simulate", "--d", "100", "--k", "5", "--m", str(CLI_M), "--mode", "all"]
    sim += ["--trials", str(CLI_TRIALS), "--jobs", "2", "--seed", s, "-o", str(sim_dir)]
    lb = ["lowerbound", "--k", "16", "--eps", "0.02", "--trials", "10000"]
    lb += ["--seed", s, "-o", str(workdir / "lowerbound")]
    return [
        Op("simulate", lambda: _cli(sim), lambda rc: check_simulate(sim_dir, rc)),
        Op("lowerbound", lambda: _cli(lb), check_lowerbound),
    ]


WORKLOADS = {
    "long_stream": long_stream,
    "wide": wide,
    "sdp_hard": sdp_hard,
    "cli_trials": cli_trials,
}
