"""Lifelong-learning simulation drivers.

Three modes run over one planted problem. `basic` learns each task inside
the current feature span and falls back to an accurate full-dimensional
learn (appending the result as a new feature) whenever the cheap attempt
fails its check. `rr` additionally refines the feature list down to a
low-dimensional subspace after new-feature events, migrating previously
recorded classifiers into the refined basis. `joint` is the offline
baseline: pool N samples per task, estimate every task direction in full
dimension, and take the best rank-k subspace of the stacked estimates.

Per-task classifiers are the rows of one (m, d) array of ambient unit
vectors, all inside the active subspace. Migrating them to a refined basis
is one projection of that array, and their errors come from one batched
`task_errors` call.

Every labeled sample consumed is charged to exactly one ledger phase
(representation, combination, checking), and reports carry per-task curves
for accuracy, feature dimension, and the angle between the learned subspace
and the true task span.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Subspace, orthonormalize, principal_angles
from .learner import (
    Hypothesis,
    budget,
    check_hypothesis,
    check_hypothesis_mc,
    estimate_direction,
    learn_halfspace,
    learn_in_feature_space,
)
from .refinement import refine
from .synthetic import (
    GroundTruth,
    TaskStream,
    generate_problem,
    rng_substream,
    task_errors,
)

MODES = ("basic", "rr", "joint")
CHECK_MODES = ("oracle", "montecarlo")
REFINE_MODES = ("on_new_feature", "threshold")

# Substream namespace for Monte-Carlo acceptance checks (disjoint from the
# problem/batch/mc namespaces used by the synthetic module).
_NS_CHECK = 20


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on. Immutable and picklable.

    epsilon_acc defaults to epsilon / (acc_constant * sqrt(k)), clamped to
    epsilon so small k stays valid; passing it explicitly overrides the
    formula. acc_constant and c_s defaults are the
    simulation calibration: accurate enough that recorded errors stay under
    epsilon with room, noisy enough that the basic loop keeps learning a few
    more than k features, which is the regime refinement is for.
    """

    d: int
    k: int
    m: int
    N: int = 200
    epsilon: float = 0.1
    epsilon_acc: float | None = None
    acc_constant: float = 0.75
    c_s: float = 0.5
    seed: int = 0
    trials: int = 1
    mode: str = "basic"
    check_mode: str = "oracle"
    refine_every: str = "on_new_feature"
    r_max: int | None = None
    sdp_tol: float = 5e-3
    sdp_max_iters: int | None = None

    def __post_init__(self):
        if not (1 <= self.k <= min(self.m, self.d)):
            raise ValueError(
                f"need 1 <= k <= min(m, d), got k={self.k}, m={self.m}, d={self.d}"
            )
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if self.epsilon_acc is None:
            if self.acc_constant <= 0.0:
                raise ValueError("acc_constant must be positive")
            object.__setattr__(
                self,
                "epsilon_acc",
                min(
                    self.epsilon,
                    self.epsilon / (self.acc_constant * math.sqrt(self.k)),
                ),
            )
        if not (0.0 < self.epsilon_acc <= self.epsilon):
            raise ValueError(
                f"need 0 < epsilon_acc <= epsilon, got {self.epsilon_acc}"
            )
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.c_s <= 0.0:
            raise ValueError("c_s must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.check_mode not in CHECK_MODES:
            raise ValueError(
                f"check_mode must be one of {CHECK_MODES}, got {self.check_mode!r}"
            )
        if self.refine_every not in REFINE_MODES:
            raise ValueError(
                f"refine_every must be one of {REFINE_MODES}, got {self.refine_every!r}"
            )
        if self.refine_every == "threshold" and (
            self.r_max is None or self.r_max < 1
        ):
            raise ValueError("threshold refinement requires r_max >= 1")
        if self.sdp_tol <= 0.0:
            raise ValueError("sdp_tol must be positive")


@dataclass(frozen=True)
class RunReport:
    """Curves and ledger totals from one simulation run."""

    mode: str
    seed: int
    per_task_error: np.ndarray
    accuracy_curve: np.ndarray
    min_accuracy_curve: np.ndarray
    feature_dim_curve: np.ndarray
    angle_curve: np.ndarray
    samples_cum_curve: np.ndarray
    new_feature_events: tuple
    relearn_events: tuple
    refinement_count: int
    refinement_converged: bool
    samples_representation: int
    samples_combination: int
    samples_checking: int
    samples_total: int
    error_contract_ok: bool
    wall_time: float

    def __post_init__(self):
        m = self.per_task_error.shape[0]
        for name in (
            "accuracy_curve",
            "min_accuracy_curve",
            "feature_dim_curve",
            "angle_curve",
            "samples_cum_curve",
        ):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have one entry per task")
        charged = (
            self.samples_representation
            + self.samples_combination
            + self.samples_checking
        )
        if self.samples_total != charged:
            raise ValueError(
                f"samples_total {self.samples_total} != itemized charges {charged}"
            )

    @property
    def m(self) -> int:
        return self.per_task_error.shape[0]


def _angle_to_truth(V: Subspace, truth: Subspace) -> float:
    """Gap-metric angle between the learned subspace and the true span.

    arcsin of the operator-norm distance between the two orthogonal
    projectors: for equal dimensions this is the classical maximal
    principal angle; between subspaces of different dimensions the gap is
    1 (some direction of one is entirely missed by the other), so the
    angle is pi/2. A representation that pads itself with junk dimensions
    scores no better than one that is missing directions.
    """
    if V.dim != truth.dim:
        return math.pi / 2.0
    return principal_angles(V, truth).max


def _project_rows(
    H: np.ndarray, B: np.ndarray, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of H projected onto span(B) and normalized, and their errors on A.

    A row whose projection vanishes is lost: it is not normalized, and its
    error is 1.0.
    """
    P = (H @ B) @ B.T
    norms = np.linalg.norm(P, axis=1)
    kept = norms >= 1e-12
    P[kept] /= norms[kept, None]
    err = np.ones(len(H))
    err[kept] = task_errors(P[kept], A[kept])
    return P, err


def _should_refine(config: RunConfig, active_dim: int) -> bool:
    if config.refine_every == "on_new_feature":
        return True
    return active_dim > config.r_max


def _resolve_problem(config: RunConfig, problem: GroundTruth | None) -> GroundTruth:
    if problem is None:
        return generate_problem(config.d, config.k, config.m, config.seed)
    if (problem.d, problem.k, problem.m) != (config.d, config.k, config.m):
        raise ValueError("problem dimensions do not match the config")
    return problem


def _run_lll(config: RunConfig, problem: GroundTruth | None) -> RunReport:
    """basic and rr: grow features on demand; rr also refines and migrates."""
    t0 = time.perf_counter()
    gt = _resolve_problem(config, problem)
    m = config.m
    stream = TaskStream(ground_truth=gt, rng_seed=config.seed)
    truth = orthonormalize(list(gt.a))
    check_rng = rng_substream(config.seed, _NS_CHECK)

    active: Subspace | None = None
    raw: list[np.ndarray] = []  # every full-d feature learned, in order
    stack: list[np.ndarray] = []  # spanning vectors of the active subspace
    H = np.zeros((m, config.d))  # row t: task t's classifier, in span(active)
    err = np.full(m, np.nan)
    acc_curve = np.empty(m)
    min_curve = np.empty(m)
    dim_curve = np.empty(m, dtype=int)
    ang_curve = np.empty(m)
    cum_curve = np.empty(m, dtype=int)
    events: list[int] = []
    relearns: list[int] = []
    refinements = 0
    refinement_converged = True
    rep = comb = chk = 0
    angled = angle = None  # the subspace the last angle was computed for

    for t in range(m):
        passed = False
        if active is not None:
            h = learn_in_feature_space(stream, t, active, config.epsilon, config.c_s)
            comb += h.samples_used
            ambient = Hypothesis(
                direction=active.basis @ h.direction, samples_used=h.samples_used
            )
            if config.check_mode == "oracle":
                passed = check_hypothesis(ambient, t, gt, config.epsilon)
            else:
                passed, n_chk = check_hypothesis_mc(
                    ambient, t, gt, config.epsilon, check_rng
                )
                chk += n_chk
            if passed:
                H[t] = ambient.direction

        if not passed:
            fresh = learn_halfspace(stream, t, config.epsilon_acc, config.c_s)
            rep += fresh.samples_used
            raw.append(fresh.direction)
            stack.append(fresh.direction)
            active = orthonormalize(stack)
            # the span only grows here, so the earlier classifiers stay in it
            # exactly and need neither migration nor a check
            H[t] = fresh.direction
            events.append(t)
        err[t] = task_errors(H[t : t + 1], gt.a[t : t + 1])[0]

        if not passed and config.mode == "rr" and _should_refine(config, active.dim):
            active, _cert, sol = refine(
                raw,
                config.k,
                config.epsilon_acc,
                tol=config.sdp_tol,
                max_iters=config.sdp_max_iters,
                full_output=True,
            )
            refinements += 1
            refinement_converged = refinement_converged and sol.converged
            stack = [col.copy() for col in active.basis.T]
            H[: t + 1], err[: t + 1] = _project_rows(
                H[: t + 1], active.basis, gt.a[: t + 1]
            )
            # every lost classifier (error 1.0) is among those relearned
            redo = np.flatnonzero(err[: t + 1] > config.epsilon)
            for i in redo.tolist():
                h = learn_in_feature_space(
                    stream, i, active, config.epsilon, config.c_s
                )
                comb += h.samples_used
                H[i] = active.basis @ h.direction
            err[redo] = task_errors(H[redo], gt.a[redo])
            relearns.extend(redo.tolist())

        dim_curve[t] = active.dim
        if active is not angled:  # the subspace changed this task
            angled = active
            angle = _angle_to_truth(angled, truth)
        ang_curve[t] = angle
        seen = err[: t + 1]
        acc_curve[t] = float(np.mean(1.0 - seen))
        min_curve[t] = float(np.min(1.0 - seen))
        cum_curve[t] = rep + comb + chk

    return RunReport(
        mode=config.mode,
        seed=config.seed,
        per_task_error=err,
        accuracy_curve=acc_curve,
        min_accuracy_curve=min_curve,
        feature_dim_curve=dim_curve,
        angle_curve=ang_curve,
        samples_cum_curve=cum_curve,
        new_feature_events=tuple(events),
        relearn_events=tuple(relearns),
        refinement_count=refinements,
        refinement_converged=refinement_converged,
        samples_representation=rep,
        samples_combination=comb,
        samples_checking=chk,
        samples_total=rep + comb + chk,
        error_contract_ok=bool(np.all(err <= config.epsilon)),
        wall_time=time.perf_counter() - t0,
    )


def _run_joint(config: RunConfig, problem: GroundTruth | None) -> RunReport:
    """Offline baseline: estimate every task direction from N pooled samples,
    keep the best rank-k subspace of the stacked estimates, refit inside it.

    Curves are per-prefix so they are comparable to the sequential modes.
    """
    if config.N < 1:
        raise ValueError("joint mode needs N >= 1 samples per task")
    t0 = time.perf_counter()
    gt = _resolve_problem(config, problem)
    m = config.m
    stream = TaskStream(ground_truth=gt, rng_seed=config.seed)
    truth = orthonormalize(list(gt.a))

    est = np.zeros((m, config.d))
    err = np.full(m, np.nan)
    acc_curve = np.empty(m)
    min_curve = np.empty(m)
    dim_curve = np.empty(m, dtype=int)
    ang_curve = np.empty(m)
    cum_curve = np.empty(m, dtype=int)
    rep = 0

    for t in range(m):
        est[t] = estimate_direction(stream, t, config.N)
        rep += config.N
        keff = min(config.k, t + 1)
        _, _, vt = np.linalg.svd(est[: t + 1], full_matrices=False)
        B = vt[:keff].T
        _, err[: t + 1] = _project_rows(est[: t + 1], B, gt.a[: t + 1])
        dim_curve[t] = keff
        ang_curve[t] = _angle_to_truth(Subspace(basis=B), truth)
        seen = err[: t + 1]
        acc_curve[t] = float(np.mean(1.0 - seen))
        min_curve[t] = float(np.min(1.0 - seen))
        cum_curve[t] = rep

    return RunReport(
        mode=config.mode,
        seed=config.seed,
        per_task_error=err,
        accuracy_curve=acc_curve,
        min_accuracy_curve=min_curve,
        feature_dim_curve=dim_curve,
        angle_curve=ang_curve,
        samples_cum_curve=cum_curve,
        new_feature_events=(),
        relearn_events=(),
        refinement_count=0,
        refinement_converged=True,
        samples_representation=rep,
        samples_combination=0,
        samples_checking=0,
        samples_total=rep,
        error_contract_ok=bool(np.all(err <= config.epsilon)),
        wall_time=time.perf_counter() - t0,
    )


def run_one(config: RunConfig, problem: GroundTruth | None = None) -> RunReport:
    """One run of config.mode on `problem`, or on the problem config.seed plants.

    basic grows the feature list on demand and never refines; rr adds
    representation refinement and classifier migration; joint is the
    offline baseline.
    """
    if config.mode == "joint":
        return _run_joint(config, problem)
    return _run_lll(config, problem)


def trial_configs(config: RunConfig) -> list:
    """One single-trial config per trial, seeded seed, seed+1, ...

    Modes sharing a base seed therefore see identical problems and sample
    streams trial by trial, which pairs their comparisons.
    """
    return [
        replace(config, seed=config.seed + i, trials=1)
        for i in range(config.trials)
    ]


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS thread-count setters, tried in this order (each has a matching
# getter, "_get_" for "_set_"): numpy's own wheels export the scipy_openblas
# names with the 64_ suffix of the 64-bit integer build.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process, if readable."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.readlines()
    except OSError:  # no procfs, e.g. macOS
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    return paths


def _limit_blas_threads(threads: int) -> None:
    """Cap every loaded OpenBLAS at `threads` threads in this process.

    Only lowers the count, so a smaller OPENBLAS_NUM_THREADS still holds.
    Does nothing when no OpenBLAS, or none of its thread setters, is found
    (MKL, Accelerate): those keep their own thread count.
    """
    import ctypes  # only pool workers pay for the import

    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapped file deleted since it was loaded
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is None or getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            if getter() > threads:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(threads)
            break


def run_trials(config: RunConfig | Sequence[RunConfig], jobs: int = 1) -> list:
    """Run the trials of one config, or of a sequence of configs, in one pool.

    Given one RunConfig, returns its config.trials reports in trial order.
    Given a sequence of configs, returns one such list per config, in the
    sequence's order; the trials of all of them share a single pool.

    At most min(jobs, total trials, available cores) forked worker processes
    run, each with its share, cores // workers, of the BLAS threads
    (OpenBLAS only); with one worker the trials run serially in this process.
    """
    single = isinstance(config, RunConfig)
    groups = [trial_configs(c) for c in ((config,) if single else config)]
    cfgs = [c for group in groups for c in group]
    cores = _available_cores()
    workers = min(jobs, len(cfgs), cores)
    if workers <= 1:
        reports = [run_one(c) for c in cfgs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_limit_blas_threads,
            initargs=(cores // workers,),  # >= 1, since workers <= cores
        ) as pool:
            reports = list(pool.map(run_one, cfgs))
    done = iter(reports)
    grouped = [[next(done) for _ in group] for group in groups]
    return grouped[0] if single else grouped


_CURVE_FIELDS = (
    "per_task_error",
    "accuracy_curve",
    "min_accuracy_curve",
    "feature_dim_curve",
    "angle_curve",
    "samples_cum_curve",
)
_SCALAR_FIELDS = (
    "samples_total",
    "samples_representation",
    "samples_combination",
    "samples_checking",
    "refinement_count",
    "wall_time",
)


@dataclass(frozen=True)
class SummaryTable:
    """Across-trial mean and standard deviation of every report curve."""

    mode: str
    n_trials: int
    curve_means: dict
    curve_stds: dict
    scalar_means: dict
    scalar_stds: dict


def evaluate_report(reports) -> SummaryTable:
    """Aggregate reports into per-curve-point mean/std (population std)."""
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    m = reports[0].m
    if any(r.m != m for r in reports):
        raise ValueError("mismatched curve lengths across reports")
    modes = {r.mode for r in reports}
    mode = modes.pop() if len(modes) == 1 else "mixed"
    curve_means = {}
    curve_stds = {}
    for name in _CURVE_FIELDS:
        stacked = np.stack([np.asarray(getattr(r, name), dtype=float) for r in reports])
        curve_means[name] = stacked.mean(axis=0)
        curve_stds[name] = stacked.std(axis=0)
    scalar_means = {}
    scalar_stds = {}
    scalars = {name: [float(getattr(r, name)) for r in reports] for name in _SCALAR_FIELDS}
    scalars["new_feature_count"] = [float(len(r.new_feature_events)) for r in reports]
    scalars["relearn_count"] = [float(len(r.relearn_events)) for r in reports]
    for name, vals in scalars.items():
        arr = np.asarray(vals)
        scalar_means[name] = float(arr.mean())
        scalar_stds[name] = float(arr.std())
    return SummaryTable(
        mode=mode,
        n_trials=len(reports),
        curve_means=curve_means,
        curve_stds=curve_stds,
        scalar_means=scalar_means,
        scalar_stds=scalar_stds,
    )


REPORT_COLUMNS = (
    "trial",
    "task_index",
    "mode",
    "feature_dim",
    "new_feature",
    "per_task_error",
    "avg_acc",
    "min_acc",
    "max_principal_angle",
    "samples_cum",
)


def report_rows(report: RunReport, trial: int) -> list:
    """One CSV-ready row per task for a single run."""
    ev = set(report.new_feature_events)
    rows = []
    for t in range(report.m):
        rows.append(
            [
                trial,
                t,
                report.mode,
                int(report.feature_dim_curve[t]),
                1 if t in ev else 0,
                float(report.per_task_error[t]),
                float(report.accuracy_curve[t]),
                float(report.min_accuracy_curve[t]),
                float(report.angle_curve[t]),
                int(report.samples_cum_curve[t]),
            ]
        )
    return rows


def summary_columns(table: SummaryTable) -> list:
    cols = ["task_index"]
    for name in _CURVE_FIELDS:
        cols.append(f"mean_{name}")
        cols.append(f"std_{name}")
    return cols


def summary_rows(table: SummaryTable) -> list:
    """One CSV-ready row per task with mean/std of every curve."""
    m = table.curve_means[_CURVE_FIELDS[0]].shape[0]
    rows = []
    for t in range(m):
        row = [t]
        for name in _CURVE_FIELDS:
            row.append(float(table.curve_means[name][t]))
            row.append(float(table.curve_stds[name][t]))
        rows.append(row)
    return rows
