"""Lifelong-learning simulation drivers.

Three modes run over one planted problem. `basic` learns each task inside
the current feature span and falls back to an accurate full-dimensional
learn (appending the result as a new feature) whenever the cheap attempt
fails its check. `rr` additionally refines the feature list down to a
low-dimensional subspace after new-feature events, migrating previously
recorded classifiers into the refined basis. `joint` is the offline
baseline: pool N samples per task, estimate every task direction in full
dimension, and take the best rank-k subspace of the stacked estimates
from the eigenvectors of their smaller Gram matrix.

A new feature extends the active basis by its Gram-Schmidt residual
(`geometry.extend`), also right after a refinement; rr extends the span of
the raw features the same way, and hands it to each refinement, whose
solver would otherwise orthonormalize them all again. Per-task classifiers
are the rows of one (m, d) array of ambient unit vectors, all inside the
active subspace. Migrating them to a refined basis is one projection of
that array, and their errors come from one batched `task_errors` call.

Every labeled sample consumed is charged to exactly one ledger phase
(representation, combination, checking), and reports carry per-task curves
for accuracy, feature dimension, and the angle between the learned subspace
and the true task span.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Subspace, extend, orthonormalize, principal_angles
from .learner import (
    check_hypothesis,
    check_hypothesis_mc,
    estimate_direction,
    learn_halfspace,
    learn_in_feature_space,
)
from .refinement import refine
from .synthetic import (
    NS_CHECK,
    GroundTruth,
    TaskStream,
    generate_problem,
    rng_substream,
    task_errors,
)
from .threads import available_cores, one_blas_thread, set_fill_share

MODES = ("basic", "rr", "joint")
CHECK_MODES = ("oracle", "montecarlo")


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on. Immutable and picklable.

    One field per decision. rr refines after every new feature, or with
    r_max = R only once a new feature takes the active dimension past R.
    acc_constant sets `epsilon_acc`, the accuracy of a full-d learn.
    acc_constant and c_s defaults are the simulation calibration: accurate
    enough that recorded errors stay under epsilon with room, noisy enough
    that the basic loop keeps learning a few more than k features, which is
    the regime refinement is for.
    """

    d: int
    k: int
    m: int
    N: int = 200
    epsilon: float = 0.1
    acc_constant: float = 0.75
    c_s: float = 0.5
    seed: int = 0
    trials: int = 1
    mode: str = "basic"
    check_mode: str = "oracle"
    r_max: int | None = None
    sdp_tol: float = 5e-3

    @property
    def epsilon_acc(self) -> float:
        """Full-d learn accuracy: epsilon / (acc_constant * sqrt(k)), at most epsilon."""
        return min(self.epsilon, self.epsilon / (self.acc_constant * math.sqrt(self.k)))

    def __post_init__(self):
        if not (1 <= self.k <= min(self.m, self.d)):
            raise ValueError(
                f"need 1 <= k <= min(m, d), got k={self.k}, m={self.m}, d={self.d}"
            )
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if not (self.acc_constant > 0.0 and self.epsilon_acc > 0.0):
            # also rejects nan, and a constant so large that epsilon_acc is 0
            raise ValueError(
                f"need acc_constant > 0 and epsilon_acc > 0, got {self.acc_constant}"
            )
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if self.mode == "joint" and self.N < 1:
            raise ValueError(f"joint mode needs N >= 1 samples per task, got N={self.N}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0.0 < self.c_s < math.inf):  # NaN fails both comparisons
            raise ValueError(f"c_s must be positive and finite, got {self.c_s}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.check_mode not in CHECK_MODES:
            raise ValueError(
                f"check_mode must be one of {CHECK_MODES}, got {self.check_mode!r}"
            )
        if self.mode == "rr" and self.k == self.d:
            # refinement targets a proper subspace: the solver needs k < d
            raise ValueError(f"rr mode needs k < d, got k={self.k}, d={self.d}")
        if self.r_max is not None and self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if not (0.0 < self.sdp_tol < math.inf):
            raise ValueError(
                f"sdp_tol must be positive and finite, got {self.sdp_tol}"
            )


_CURVE_FIELDS = (
    "per_task_error",
    "accuracy_curve",
    "min_accuracy_curve",
    "feature_dim_curve",
    "angle_curve",
    "samples_cum_curve",
)


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
        for name in _CURVE_FIELDS:
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
    return principal_angles(V, truth)[0]


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


def _resolve_problem(config: RunConfig, problem: GroundTruth | None) -> GroundTruth:
    if problem is None:
        return generate_problem(config.d, config.k, config.m, config.seed)
    if (problem.d, problem.k, problem.m) != (config.d, config.k, config.m):
        raise ValueError("problem dimensions do not match the config")
    return problem


class _Recorder:
    """One run's problem, clock and per-task record, filled one task at a time.

    A run writes task errors into `err` (rr rewrites earlier entries on a
    refinement), appends to the event lists, and calls `close` once per
    task; `report` builds the RunReport from these and the run's ledger.
    """

    def __init__(self, config: RunConfig, problem: GroundTruth | None):
        m = config.m
        self.t0 = time.perf_counter()
        self.config = config
        self.gt = _resolve_problem(config, problem)
        self.truth = orthonormalize(self.gt.W_star)
        self.err = np.full(m, np.nan)
        self.acc = np.empty(m)
        self.min_acc = np.empty(m)
        self.dim = np.empty(m, dtype=int)
        self.angle = np.empty(m)
        self.samples = np.empty(m, dtype=int)
        self.events: list[int] = []  # tasks that learned a new feature
        self.relearns: list[int] = []  # tasks relearned after a refinement
        self._angled = self._angle = None  # the last subspace angled, its angle

    def close(self, t: int, V: Subspace, samples: int) -> None:
        """Task t's curve points from V, err[: t + 1] and cumulative samples."""
        self.dim[t] = V.dim
        if V is not self._angled:  # the subspace changed since it was angled
            self._angled = V
            self._angle = _angle_to_truth(V, self.truth)
        self.angle[t] = self._angle
        seen = 1.0 - self.err[: t + 1]
        self.acc[t] = float(np.mean(seen))
        self.min_acc[t] = float(np.min(seen))
        self.samples[t] = samples

    def report(
        self,
        rep: int,
        comb: int = 0,
        chk: int = 0,
        refinements: int = 0,
        converged: bool = True,
    ) -> RunReport:
        return RunReport(
            mode=self.config.mode,
            seed=self.config.seed,
            per_task_error=self.err,
            accuracy_curve=self.acc,
            min_accuracy_curve=self.min_acc,
            feature_dim_curve=self.dim,
            angle_curve=self.angle,
            samples_cum_curve=self.samples,
            new_feature_events=tuple(self.events),
            relearn_events=tuple(self.relearns),
            refinement_count=refinements,
            refinement_converged=converged,
            samples_representation=rep,
            samples_combination=comb,
            samples_checking=chk,
            samples_total=rep + comb + chk,
            error_contract_ok=bool(np.all(self.err <= self.config.epsilon)),
            wall_time=time.perf_counter() - self.t0,
        )


def _run_lll(config: RunConfig, problem: GroundTruth | None) -> RunReport:
    """basic and rr: grow features on demand; rr also refines and migrates."""
    rec = _Recorder(config, problem)
    gt = rec.gt
    stream = TaskStream(ground_truth=gt, rng_seed=config.seed)
    check_rng = rng_substream(config.seed, NS_CHECK)

    active: Subspace | None = None
    raw: list[np.ndarray] = []  # rr: every full-d feature learned, in order
    raw_span: Subspace | None = None  # rr: orthonormalize(raw), one extend at a time
    H = np.zeros((config.m, config.d))  # row t: task t's classifier, in span(active)
    refinements = 0
    refinement_converged = True
    rep = comb = chk = 0

    for t in range(config.m):
        passed = False
        if active is not None:
            h = learn_in_feature_space(stream, t, active, config.epsilon, config.c_s)
            comb += h.samples_used
            if config.check_mode == "oracle":
                passed = check_hypothesis(h, t, gt, config.epsilon)
            else:
                passed, n_chk = check_hypothesis_mc(h, t, gt, config.epsilon, check_rng)
                chk += n_chk
            if passed:
                H[t] = h.direction

        if not passed:
            fresh = learn_halfspace(stream, t, config.epsilon_acc, config.c_s)
            rep += fresh.samples_used
            if config.mode == "rr":
                raw.append(fresh.direction)
                raw_span = extend(raw_span, fresh.direction)
            active = extend(active, fresh.direction)
            # the span only grows here, so the earlier classifiers stay in it
            # exactly and need neither migration nor a check
            H[t] = fresh.direction
            rec.events.append(t)
        rec.err[t] = task_errors(H[t : t + 1], gt.a[t : t + 1])[0]

        lazy = config.r_max is not None and active.dim <= config.r_max
        if not passed and config.mode == "rr" and not lazy:
            active, _cert, sol = refine(
                raw,
                config.k,
                config.epsilon_acc,
                tol=config.sdp_tol,
                full_output=True,
                span=raw_span,
            )
            refinements += 1
            refinement_converged = refinement_converged and sol.converged
            H[: t + 1], rec.err[: t + 1] = _project_rows(
                H[: t + 1], active.basis, gt.a[: t + 1]
            )
            # every lost classifier (error 1.0) is among those relearned
            redo = np.flatnonzero(rec.err[: t + 1] > config.epsilon)
            for i in redo.tolist():
                h = learn_in_feature_space(stream, i, active, config.epsilon, config.c_s)
                comb += h.samples_used
                H[i] = h.direction
            rec.err[redo] = task_errors(H[redo], gt.a[redo])
            rec.relearns.extend(redo.tolist())

        rec.close(t, active, rep + comb + chk)

    return rec.report(
        rep, comb, chk, refinements=refinements, converged=refinement_converged
    )


def _top_k_basis(E: np.ndarray, gram: np.ndarray | None, k: int) -> np.ndarray:
    """Orthonormal (d, min(k, n)) basis of E's top right singular vectors.

    E is (n, d). The basis comes from `eigh` of the smaller Gram matrix:
    with `gram` None, of E E' (n <= d), whose eigenvectors u map to E' u /
    sigma; otherwise of `gram` = E' E. Only the span is used, so the order
    and signs of the columns are free.
    """
    r = min(k, E.shape[0])
    if gram is None:
        vals, vecs = np.linalg.eigh(E @ E.T)
        return (E.T @ vecs[:, -r:]) / np.sqrt(vals[-r:])
    return np.linalg.eigh(gram)[1][:, -r:]


def _run_joint(config: RunConfig, problem: GroundTruth | None) -> RunReport:
    """Offline baseline: estimate every task direction from N pooled samples,
    keep the best rank-k subspace of the stacked estimates, refit inside it.

    Curves are per-prefix so they are comparable to the sequential modes.
    """
    rec = _Recorder(config, problem)
    gt = rec.gt
    stream = TaskStream(ground_truth=gt, rng_seed=config.seed)

    est = np.zeros((config.m, config.d))
    gram = None  # est[: t + 1]' est[: t + 1] once t + 1 > d
    for t in range(config.m):
        est[t] = estimate_direction(stream, t, config.N)
        if gram is not None:
            gram += np.outer(est[t], est[t])
        elif t + 1 > config.d:
            gram = est[: t + 1].T @ est[: t + 1]
        B = _top_k_basis(est[: t + 1], gram, config.k)
        _, rec.err[: t + 1] = _project_rows(est[: t + 1], B, gt.a[: t + 1])
        rec.close(t, Subspace(basis=B), (t + 1) * config.N)

    return rec.report(config.m * config.N)


@one_blas_thread()
def run_one(config: RunConfig, problem: GroundTruth | None = None) -> RunReport:
    """One run of config.mode on `problem`, or on the problem config.seed plants.

    basic grows the feature list on demand and never refines; rr adds
    representation refinement and classifier migration; joint is the
    offline baseline. OpenBLAS runs at one thread for the whole run.
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


@one_blas_thread()
def run_trials(config: RunConfig | Sequence[RunConfig], jobs: int = 1) -> list:
    """Run the trials of one config, or of a sequence of configs, in one pool.

    Given one RunConfig, returns its config.trials reports in trial order.
    Given a sequence of configs, returns one such list per config, in the
    sequence's order; the trials of all of them share a single pool.

    At most min(jobs, total trials, available cores) forked worker processes
    run, each filling full-d sample batches on its share, cores // workers,
    of the threads and computing, like every run_one, with one OpenBLAS
    thread; with one worker the trials run serially in this process. The
    pool is forked with OpenBLAS already at one thread, so no worker has
    to shrink the thread pool it inherits.
    Raises ValueError for jobs < 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    single = isinstance(config, RunConfig)
    groups = [trial_configs(c) for c in ((config,) if single else config)]
    cfgs = [c for group in groups for c in group]
    cores = available_cores()
    workers = min(jobs, len(cfgs), cores)
    if workers <= 1:
        reports = [run_one(c) for c in cfgs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=set_fill_share,
            initargs=(cores // workers,),  # >= 1, since workers <= cores
        ) as pool:
            reports = list(pool.map(run_one, cfgs))
    done = iter(reports)
    grouped = [[next(done) for _ in group] for group in groups]
    return grouped[0] if single else grouped


@dataclass(frozen=True)
class SummaryTable:
    """Across-trial mean and standard deviation of every report curve."""

    curve_means: dict
    curve_stds: dict


def evaluate_report(reports) -> SummaryTable:
    """Aggregate reports into per-curve-point mean/std (population std)."""
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    m = reports[0].m
    if any(r.m != m for r in reports):
        raise ValueError("mismatched curve lengths across reports")
    curve_means = {}
    curve_stds = {}
    for name in _CURVE_FIELDS:
        stacked = np.stack([np.asarray(getattr(r, name), dtype=float) for r in reports])
        curve_means[name] = stacked.mean(axis=0)
        curve_stds[name] = stacked.std(axis=0)
    return SummaryTable(curve_means=curve_means, curve_stds=curve_stds)


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


SUMMARY_COLUMNS = ("task_index",) + tuple(
    f"{stat}_{name}" for name in _CURVE_FIELDS for stat in ("mean", "std")
)


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
