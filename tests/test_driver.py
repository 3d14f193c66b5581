import ctypes
import ctypes.util
import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from lllsim import cli, driver, geometry, learner, refinement, synthetic, threads
from lllsim.driver import (
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    RunConfig,
    evaluate_report,
    report_rows,
    run_one,
    run_trials,
    summary_rows,
    trial_configs,
)
from lllsim.geometry import orthonormalize
from lllsim.learner import budget, mc_check_cost
from lllsim.synthetic import GroundTruth
from oracle import project_rows_unblocked


def _identical_tasks(d: int = 10, m: int = 6) -> GroundTruth:
    e0 = np.eye(d)[0]
    return GroundTruth(
        W_star=e0.reshape(1, d),
        C_star=np.ones((m, 1)),
        a=np.tile(e0, (m, 1)),
        d=d,
        k=1,
        m=m,
        seed=0,
    )


def test_config_epsilon_acc_default_formula():
    cfg = RunConfig(d=20, k=4, m=10)
    assert cfg.epsilon_acc == pytest.approx(0.1 / (0.75 * 2.0))
    # k=1 would push the formula above epsilon; the default clamps
    cfg1 = RunConfig(d=20, k=1, m=10)
    assert cfg1.epsilon_acc == cfg1.epsilon


def test_config_is_frozen():
    cfg = RunConfig(d=10, k=2, m=5)
    with pytest.raises(FrozenInstanceError):
        cfg.d = 11


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=10, k=11, m=20),  # k > d
        dict(d=10, k=3, m=2),  # k > m
        dict(d=10, k=0, m=5),
        dict(d=10, k=2, m=5, epsilon=0.5),
        dict(d=10, k=2, m=5, acc_constant=0.0),
        dict(d=10, k=2, m=5, acc_constant=-1.0),
        dict(d=10, k=2, m=5, acc_constant=math.inf),  # epsilon_acc would be 0
        dict(d=10, k=4, m=5, acc_constant=1e308),  # finite, but epsilon_acc is 0
        dict(d=10, k=2, m=5, acc_constant=math.nan),
        dict(d=10, k=2, m=5, c_s=0.0),
        dict(d=10, k=2, m=5, c_s=math.inf),
        dict(d=10, k=2, m=5, c_s=math.nan),
        dict(d=10, k=2, m=5, epsilon=0.0),
        dict(d=10, k=2, m=5, seed=-1),
        dict(d=10, k=2, m=5, N=-1),
        dict(d=10, k=2, m=5, mode="offline"),
        dict(d=10, k=2, m=5, check_mode="exact"),
        dict(d=10, k=2, m=5, r_max=0),
        dict(d=10, k=2, m=5, sdp_tol=0.0),
        dict(d=10, k=2, m=5, sdp_tol=math.inf),
        dict(d=10, k=2, m=5, sdp_tol=math.nan),
        dict(d=5, k=5, m=30, mode="rr"),  # refinement needs k < d
        dict(d=10, k=2, m=5, N=0, mode="joint"),  # joint pools N samples per task
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_config_has_no_solver_iteration_budget():
    # the solver derives its own budget from the number of features
    with pytest.raises(TypeError, match="sdp_max_iters"):
        RunConfig(d=10, k=2, m=5, sdp_max_iters=5)


def test_config_has_no_trial_count():
    # the trial count is run_trials' argument; a run reads only its config
    with pytest.raises(TypeError, match="trials"):
        RunConfig(d=10, k=2, m=5, trials=2)
    assert len(fields(RunConfig)) == 12


def test_single_task_run():
    cfg = RunConfig(d=30, k=1, m=1, seed=3)
    r = run_one(cfg)
    assert r.new_feature_events == (0,)
    assert list(r.feature_dim_curve) == [1]
    n = budget(30, cfg.epsilon_acc, cfg.c_s)
    assert r.samples_representation == n
    assert r.samples_combination == 0
    assert r.samples_checking == 0
    assert r.samples_total == n
    assert r.per_task_error[0] <= cfg.epsilon
    assert r.error_contract_ok


def test_rank_one_problem_basic():
    cfg = RunConfig(d=20, k=1, m=12, seed=3)
    r = run_one(cfg)
    # one accurate feature serves every task: a single event, dim stays 1
    assert r.new_feature_events == (0,)
    assert set(r.feature_dim_curve) == {1}
    assert r.error_contract_ok
    assert r.angle_curve[-1] < 0.5


def test_rank_one_problem_rr_matches_basic():
    kw = dict(d=20, k=1, m=12, seed=3)
    rb = run_one(RunConfig(mode="basic", **kw))
    rr = run_one(RunConfig(mode="rr", **kw))
    # refining a single feature to target 1 returns its own span
    assert rr.refinement_count == 1
    assert rr.refinement_converged
    assert rr.relearn_events == ()
    assert set(rr.feature_dim_curve) == {1}
    assert rr.angle_curve[-1] == pytest.approx(rb.angle_curve[-1], abs=1e-12)


def test_identical_tasks_single_event():
    gt = _identical_tasks()
    cfg = RunConfig(d=10, k=1, m=6, seed=11)
    r = run_one(cfg, problem=gt)
    assert r.new_feature_events == (0,)
    assert set(r.feature_dim_curve) == {1}
    assert r.error_contract_ok


def test_injected_problem_shape_mismatch():
    gt = _identical_tasks(d=10, m=6)
    with pytest.raises(ValueError):
        run_one(RunConfig(d=12, k=1, m=6), problem=gt)


def test_budget_identity_oracle():
    cfg = RunConfig(d=40, k=3, m=25, seed=7)
    r = run_one(cfg)
    rep_expect = len(r.new_feature_events) * budget(40, cfg.epsilon_acc, cfg.c_s)
    comb_expect = sum(
        budget(int(r.feature_dim_curve[t - 1]), cfg.epsilon, cfg.c_s)
        for t in range(1, cfg.m)
        if r.feature_dim_curve[t - 1] > 0
    )
    assert r.samples_representation == rep_expect
    assert r.samples_combination == comb_expect
    assert r.samples_checking == 0
    assert r.samples_total == rep_expect + comb_expect
    assert r.samples_cum_curve[-1] == r.samples_total


def test_budget_identity_montecarlo():
    cfg = RunConfig(d=40, k=3, m=25, seed=7, check_mode="montecarlo")
    r = run_one(cfg)
    # every task after the first attempts a restricted learn and pays a check
    assert r.samples_checking == (cfg.m - 1) * mc_check_cost(cfg.epsilon)
    assert (
        r.samples_total
        == r.samples_representation + r.samples_combination + r.samples_checking
    )


@pytest.mark.parametrize("learn", ["learn_halfspace", "learn_in_feature_space"])
def test_ledger_charges_an_extra_draw(monkeypatch, learn):
    # a learner that draws 7 rows more than its budget, full-d or in its
    # basis: the report counts the rows drawn, not the budgets
    calls = []
    inner = getattr(driver, learn)

    def greedy(stream, task, *args):
        basis = args[0].basis if learn == "learn_in_feature_space" else None
        synthetic.sample_batch(stream, task, 7, basis)
        calls.append(task)
        return inner(stream, task, *args)

    monkeypatch.setattr(driver, learn, greedy)
    cfg = RunConfig(d=40, k=3, m=25, seed=7)
    r = run_one(cfg)
    rep = len(r.new_feature_events) * budget(40, cfg.epsilon_acc, cfg.c_s)
    comb = sum(
        budget(int(r.feature_dim_curve[t - 1]), cfg.epsilon, cfg.c_s)
        for t in range(1, cfg.m)
    )
    assert calls
    if learn == "learn_halfspace":
        rep += 7 * len(calls)
    else:
        comb += 7 * len(calls)
    assert (r.samples_representation, r.samples_combination) == (rep, comb)
    assert r.samples_cum_curve[-1] == r.samples_total == rep + comb


def test_error_contract_oracle_mode():
    cfg = RunConfig(d=50, k=4, m=30, seed=2)
    r = run_one(cfg)
    assert r.error_contract_ok
    assert np.all(r.per_task_error <= cfg.epsilon)
    assert r.accuracy_curve[-1] >= 1.0 - cfg.epsilon
    assert r.min_accuracy_curve[-1] >= 1.0 - cfg.epsilon


def test_dim_curve_monotone_without_refinement():
    r = run_one(RunConfig(d=50, k=4, m=30, seed=2))
    dims = r.feature_dim_curve
    assert np.all(np.diff(dims) >= 0)
    assert dims.max() == len(r.new_feature_events)


def test_rr_dimension_stays_bounded():
    cfg = RunConfig(d=60, k=4, m=40, seed=0, mode="rr")
    r = run_one(cfg)
    assert len(r.new_feature_events) > cfg.k
    assert r.refinement_count == len(r.new_feature_events)
    assert r.feature_dim_curve.max() <= 2 * cfg.k - 1
    assert r.feature_dim_curve[-1] == cfg.k
    assert r.error_contract_ok


def test_threshold_refinement_is_lazier():
    kw = dict(d=60, k=4, m=40, seed=0)
    eager = run_one(RunConfig(mode="rr", **kw))
    lazy = run_one(RunConfig(mode="rr", r_max=4, **kw))
    assert lazy.refinement_count >= 1
    assert lazy.refinement_count < eager.refinement_count
    assert lazy.feature_dim_curve.max() <= 4
    assert lazy.feature_dim_curve[-1] == 4


# Values a fake `refine` drives rr to on RunConfig(d=40, k=3, m=30, seed=4).
# Real refinements keep every recorded classifier within epsilon, so only a
# fake reaches the migration's relearn and lost-classifier branches.
_MIGRATION_D = 40
_MIGRATION_M = 30
_LOST_ERRORS = [
    0.4957554321864111, 0.41542342793778503, 0.450311569514215, 0.4022045411467279,
    0.4462462680040889, 0.43781105922060126, 0.48396740294413115, 0.49658294952632775,
    0.46701681569043396, 0.5202186094760852, 0.47605549719440404, 0.4386974452328362,
    0.5083686105868638, 0.47730722775605255, 0.49013725853778534, 0.5512650870395038,
    0.49968451171748085, 0.46468619129365873, 0.47268226871685065, 0.4407993209146826,
    0.40413262526834426, 0.41840285365695873, 0.4612163323377066, 0.4888018551083367,
    0.4151477881409896, 0.41536656933365856, 0.4079539900128914, 0.4262796929943543,
    0.46828280137052053, 0.4314904167819829,
]  # fmt: skip
_RELEARN_ERRORS = [
    0.5713897673254029, 0.11569084669655122, 0.42964393036916376, 0.2218970454002007,
    0.2649015991014809, 0.10073668702452822, 0.2468319245456647, 0.35564308161715924,
    0.28199012253370875, 0.3052115125288247, 0.3916861855395976, 0.33896815655887963,
    0.3342948179834513, 0.29209266501300724, 0.3591657190954474, 0.5350907639865119,
    0.15676509280848652, 0.39447994109402656, 0.30397799913842616, 0.423912461993477,
    0.1874428263641575, 0.31200233457778664, 0.21780650193341106, 0.3791852577738627,
    0.15276331821594016, 0.49336620203675924, 0.28902949797814653, 0.5155737802248248,
    0.27453826052554, 0.02541549084339789,
]  # fmt: skip


def _fake_refine(span):
    def refine(features, k, epsilon, **kwargs):
        return span(features), None, SimpleNamespace(converged=True)

    return refine


def _orthogonal_to_first(features):
    f0 = features[0]
    return orthonormalize([e - (e @ f0) * f0 for e in np.eye(_MIGRATION_D)[:3]])


def _last_and_final_axis(features):
    return orthonormalize([features[-1], np.eye(_MIGRATION_D)[-1]])


@pytest.mark.parametrize(
    "span, kept, samples, errors",
    [
        # task 0's classifier is features[0], which the span misses entirely,
        # and no task's classifier passes after migration
        (_orthogonal_to_first, set(), 37300, _LOST_ERRORS),
        # task t's own fresh feature stays in the span and passes, and so do
        # these (refinement at task t, earlier task) pairs
        (
            _last_and_final_axis,
            {(7, 0), (21, 11)} | {(t, t) for t in range(_MIGRATION_M)},
            31098,
            _RELEARN_ERRORS,
        ),
    ],
)
def test_rr_migration_relearns(monkeypatch, span, kept, samples, errors):
    monkeypatch.setattr(driver, "refine", _fake_refine(span))
    m = _MIGRATION_M
    r = run_one(RunConfig(d=_MIGRATION_D, k=3, m=m, seed=4, mode="rr"))
    assert r.new_feature_events == tuple(range(m))
    assert r.refinement_count == m
    assert r.relearn_events == tuple(
        i for t in range(m) for i in range(t + 1) if (t, i) not in kept
    )
    assert r.samples_total == samples
    np.testing.assert_allclose(r.per_task_error, errors, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["basic", "rr"])
def test_one_gram_schmidt_for_the_truth_and_one_per_refinement(monkeypatch, mode):
    # only the truth span runs a whole Gram-Schmidt. A new feature extends
    # the active basis by one column; rr also extends the raw features' span
    # by it, and each refinement's solve takes that span as its Q instead of
    # orthonormalizing the raw features again
    original = geometry.orthonormalize
    calls = []

    def counted(vectors, *args, **kwargs):
        calls.append(len(vectors))
        return original(vectors, *args, **kwargs)

    for module in (geometry, driver, refinement):
        monkeypatch.setattr(module, "orthonormalize", counted)
    extends = []  # (span extended, span returned), in call order

    def counted_extend(V, v):
        out = geometry.extend(V, v)
        extends.append((V, out))
        return out

    monkeypatch.setattr(driver, "extend", counted_extend)
    spans = []  # the span each refinement's solve was given
    solve = refinement.solve_refinement_sdp

    def spied_solve(*args, span=None, **kwargs):
        spans.append(span)
        return solve(*args, span=span, **kwargs)

    monkeypatch.setattr(refinement, "solve_refinement_sdp", spied_solve)
    r = run_one(RunConfig(d=40, k=3, m=30, seed=4, mode=mode))
    events = len(r.new_feature_events)
    assert events > 3
    assert r.refinement_count == (events if mode == "rr" else 0)
    if mode == "basic":
        assert len(calls) == 1 + r.refinement_count
        return
    assert len(calls) == 1
    # per event: the raw span, then the active basis, one extend each
    assert len(extends) == 2 * events
    raw_chain = extends[0::2]
    assert raw_chain[0][0] is None
    assert all(b[0] is a[1] for a, b in zip(raw_chain, raw_chain[1:]))
    assert len(spans) == events
    assert all(span is out for span, (_, out) in zip(spans, raw_chain))
    assert spans[-1].dim == events


def test_row_blocks_cover_the_rows_with_no_lone_row():
    for size in (4, 256):
        for n in range(0, 3 * size + 5):
            blocks = geometry.row_blocks(n, size)
            assert len(blocks) == -(-n // size)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            assert all(len(range(n)[b]) <= size for b in blocks)
            assert n == 1 or all(len(range(n)[b]) >= 2 for b in blocks)


def test_blocked_projection_matches_unblocked_oracle_bitwise():
    # row counts around one, two and three row blocks; row 3 projects to
    # zero and is lost
    d, r = 40, 6
    rng = np.random.default_rng(5)
    B = orthonormalize(list(rng.standard_normal((r, d)))).basis
    block = driver._ROW_BLOCK
    for n in (1, 2, block - 1, block, block + 1, 2 * block + 1, 3 * block + 2):
        A = rng.standard_normal((n, d))
        A /= np.linalg.norm(A, axis=1)[:, None]
        H = A + 0.3 * rng.standard_normal((n, d))
        if n > 3:
            H[3] -= B @ (B.T @ H[3])
        want_P, want_err = project_rows_unblocked(H, B, A)
        out = H.copy()
        err = driver._project_rows(out, B, A, out=out)
        assert err.tobytes() == want_err.tobytes()
        assert out.tobytes() == want_P.tobytes()
        assert driver._project_rows(H, B, A).tobytes() == want_err.tobytes()
        if n > 3:
            assert err[3] == 1.0


def test_rr_peak_memory_holds_one_batch_the_targets_and_one_row_block(monkeypatch):
    # rr d=100 m=800 seed 1 refines at task 781, so one projection covers
    # 782 rows, four row blocks. j = 5: a block's projection holds at most
    # five (block, d) float64 arrays at once, the projected rows P, their
    # kept copy P[kept], the targets' kept copy A[kept], and inside
    # task_errors a difference (or sum) of rows and its square in the norm.
    # Besides those the run holds one full-d batch (the learner's bound,
    # 1.2 times its n*d*4 bytes), and H and gt.a, m*d*8 bytes each.
    # The bound is 3.4 MB; projecting all t + 1 rows at once peaked at 4.7 MB.
    d, m, j = 100, 800, 5
    run_one(RunConfig(d=d, k=5, m=20, mode="rr", seed=1))  # first-call imports and caches
    largest, projected = [0], [0]
    sample_batch, project_rows = learner.sample_batch, driver._project_rows

    def batch_spy(stream, task, n, basis=None):
        batch = sample_batch(stream, task, n, basis)
        if basis is None:
            largest[0] = max(largest[0], batch.x.nbytes)
        return batch

    def project_spy(H, *args, **kwargs):
        projected[0] = max(projected[0], len(H))
        return project_rows(H, *args, **kwargs)

    monkeypatch.setattr(learner, "sample_batch", batch_spy)
    monkeypatch.setattr(driver, "_project_rows", project_spy)
    tracemalloc.start()
    try:
        run_one(RunConfig(d=d, k=5, m=m, mode="rr", seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = driver._ROW_BLOCK
    assert projected[0] > 3 * block
    assert peak <= 1.2 * largest[0] + 2 * m * d * 8 + j * block * d * 8


def test_joint_prefix_dims_and_recovery():
    cfg = RunConfig(d=30, k=3, m=20, N=4000, seed=0, mode="joint")
    r = run_one(cfg)
    expect_dims = [min(3, t + 1) for t in range(20)]
    assert list(r.feature_dim_curve) == expect_dims
    assert r.new_feature_events == ()
    assert r.samples_total == 20 * 4000
    assert r.samples_representation == r.samples_total
    # large pooled budget pins the subspace and the refit errors
    assert r.angle_curve[-1] < 0.05
    assert r.angle_curve[-1] < r.angle_curve[0]
    assert r.accuracy_curve[-1] >= 0.99
    assert r.error_contract_ok


def test_joint_requires_samples():
    with pytest.raises(ValueError, match="joint mode needs N >= 1"):
        RunConfig(d=10, k=2, m=5, N=0, mode="joint")
    RunConfig(d=10, k=2, m=5, N=0, mode="rr")  # only joint draws N per task


def test_angle_is_right_angle_until_dims_match():
    # the gap metric pins pi/2 whenever the learned dimension differs from
    # the truth's, and falls below it where they match; this run starts at
    # dim 1, matches at dim 2, then learns a third feature
    cfg = RunConfig(d=30, k=2, m=20, seed=1)
    r = run_one(cfg)
    dims = np.asarray(r.feature_dim_curve)
    angles = np.asarray(r.angle_curve)
    other = dims != cfg.k
    assert other.any() and not other.all()
    assert np.all(angles[other] == math.pi / 2)
    assert np.all(angles[~other] < math.pi / 2)


def test_trial_configs_seed_spacing():
    cfg = RunConfig(d=10, k=2, m=5, seed=40, mode="rr")
    cfgs = trial_configs(cfg, 3)
    assert [c.seed for c in cfgs] == [40, 41, 42]
    assert all(replace(c, seed=40) == cfg for c in cfgs)


def _no_trial(cfg):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_trials_rejects_nonpositive_jobs(monkeypatch, jobs):
    monkeypatch.setattr(driver, "run_one", _no_trial)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_trials(RunConfig(d=15, k=2, m=8, seed=5), trials=2, jobs=jobs)


@pytest.mark.parametrize("trials", [0, -2])
def test_run_trials_rejects_nonpositive_trials(monkeypatch, trials):
    monkeypatch.setattr(driver, "run_one", _no_trial)
    cfg = RunConfig(d=15, k=2, m=8, seed=5)
    for config in (cfg, [cfg, replace(cfg, mode="rr")]):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_trials(config, trials=trials, jobs=2)


def test_run_trials_parallel_matches_serial():
    cfg = RunConfig(d=15, k=2, m=8, seed=5)
    serial = run_trials(cfg, trials=3, jobs=1)
    parallel = run_trials(cfg, trials=3, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert a.samples_total == b.samples_total
        assert np.array_equal(a.angle_curve, b.angle_curve)
        assert np.array_equal(a.per_task_error, b.per_task_error)


@pytest.mark.parametrize(
    "jobs, trials, cores, workers",
    [(4, 10, 2, 2), (8, 3, 16, 3), (2, 5, 8, 2), (4, 1, 8, None), (4, 6, 1, None)],
)
def test_run_trials_caps_workers(
    monkeypatch, recorded_pools, jobs, trials, cores, workers
):
    # workers = min(jobs, trials, cores), each filling batches on cores //
    # workers threads; one worker means no pool, and so no initializer, at all
    monkeypatch.setattr(driver, "available_cores", lambda: cores)
    monkeypatch.setattr(driver, "run_one", lambda cfg: cfg.seed)
    seeds = run_trials(RunConfig(d=15, k=2, m=8, seed=5), trials=trials, jobs=jobs)
    assert seeds == list(range(5, 5 + trials))
    if workers is None:
        assert recorded_pools == []
    else:
        budget = max(1, cores // workers)
        assert recorded_pools == [(workers, threads.set_fill_share, (budget,))]


@pytest.mark.parametrize(
    "jobs, cores, workers", [(4, 8, 4), (8, 16, 6), (4, 2, 2), (1, 8, None)]
)
def test_run_trials_shares_one_pool_across_configs(
    monkeypatch, recorded_pools, jobs, cores, workers
):
    # 3 configs of 2 trials: one pool of min(jobs, 6, cores) workers for all
    # of them, and the reports come back config by config, trial by trial
    monkeypatch.setattr(driver, "available_cores", lambda: cores)
    monkeypatch.setattr(driver, "run_one", lambda cfg: (cfg.mode, cfg.seed))
    cfgs = [
        RunConfig(d=15, k=2, m=8, seed=5, mode="basic"),
        RunConfig(d=15, k=2, m=8, seed=5, mode="rr"),
        RunConfig(d=15, k=2, m=8, seed=9, mode="joint"),
    ]
    assert run_trials(cfgs, trials=2, jobs=jobs) == [
        [("basic", 5), ("basic", 6)],
        [("rr", 5), ("rr", 6)],
        [("joint", 9), ("joint", 10)],
    ]
    if workers is None:
        assert recorded_pools == []
    else:
        budget = cores // workers
        assert recorded_pools == [(workers, threads.set_fill_share, (budget,))]


def _same_report(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(a)
        if f.name != "wall_time"
    )


def test_run_trials_one_pool_matches_serial_per_config():
    # a real forked pool for two configs returns what each config's own
    # serial run returns, in order
    cfgs = [
        RunConfig(d=15, k=2, m=8, seed=5, mode="basic"),
        RunConfig(d=15, k=2, m=8, seed=5, mode="rr"),
    ]
    pooled = run_trials(cfgs, trials=2, jobs=2)
    assert len(pooled) == 2
    for cfg, reports in zip(cfgs, pooled):
        serial = run_trials(cfg, trials=2, jobs=1)
        assert [r.mode for r in reports] == [cfg.mode] * 2
        assert [r.seed for r in reports] == [5, 6]
        assert len(reports) == len(serial)
        assert all(_same_report(a, b) for a, b in zip(reports, serial))


_OPENBLAS_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_control():
    """(getter, setter) of this process's OpenBLAS thread count, or None.

    Reads /proc/self/maps on its own, so a broken lookup in the package
    cannot turn the thread tests into skips.
    """
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*)$", maps, re.M | re.I))):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_GET_THREADS:
            getter = getattr(lib, name, None)
            setter = getattr(lib, name.replace("_get_", "_set_"), None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


def _blas_threads():
    """This process's OpenBLAS thread count, or None if no getter is found."""
    control = _blas_control()
    return None if control is None else control[0]()


def _worker_threads(config, problem):
    # stands in for _run_lll inside the real run_one of a pool worker
    return threads.fill_share(), _blas_threads()


def test_run_trials_workers_get_their_fill_share_and_one_blas_thread(monkeypatch):
    # a real forked pool: each worker reports, from inside run_one, the
    # threads it fills batches on and the OpenBLAS threads it computes with
    cores = threads.available_cores()
    if cores < 2:
        pytest.skip("one core: run_trials never starts a pool")
    if _blas_threads() is None:
        pytest.skip("no OpenBLAS get_num_threads symbol found")
    monkeypatch.setattr(driver, "_run_lll", _worker_threads)
    seen = run_trials(RunConfig(d=15, k=2, m=8, seed=5), trials=2, jobs=2)
    assert seen == [(cores // 2, 1)] * 2


def _blas_counts(config):
    # stands in for run_one in a pool worker: the thread count it inherited
    return [getter() for getter, _ in threads._openblas_controls()]


def test_run_trials_forks_its_pool_with_one_blas_thread(monkeypatch):
    # a worker forked at the full count re-creates OpenBLAS's thread pool in
    # its first one-thread scope; forked inside run_trials' scope it starts at 1
    controls = threads._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    if threads.available_cores() < 2:
        pytest.skip("one core: run_trials never starts a pool")
    if all(getter() == 1 for getter, _ in controls):
        pytest.skip("OpenBLAS already runs at one thread here")
    monkeypatch.setattr(driver, "run_one", _blas_counts)
    assert run_trials(RunConfig(d=10, k=2, m=3), trials=2, jobs=2) == [[1], [1]]


def _run_cli(tmp_path):
    out = tmp_path / "out"
    return cli.main(["simulate", "--d", "15", "--k", "2", "--m", "8", "-o", str(out)])


_ENTRY_POINTS = {
    # entry point: (module, a function it calls, a call of the entry point)
    "run_one": (driver, "_run_lll", lambda tmp: run_one(RunConfig(d=15, k=2, m=8))),
    "refine": (
        refinement,
        "solve_refinement_sdp",
        lambda tmp: refinement.refine(np.eye(4)[:3], 2, 0.5),
    ),
    "cli.main": (cli, "_resolve", _run_cli),
}


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_points_run_with_one_blas_thread(monkeypatch, tmp_path, entry, raises):
    # from a raised count of 2: 1 inside, 2 again after a return or a raise
    control = _blas_control()
    if control is None:
        pytest.skip("no OpenBLAS get_num_threads symbol found")
    getter, setter = control
    module, inner, call = _ENTRY_POINTS[entry]
    original = getattr(module, inner)
    inside = []

    def probe(*args, **kwargs):
        inside.append(getter())
        if raises:
            raise RuntimeError("raised inside")  # one that cli.main maps to no code
        return original(*args, **kwargs)

    monkeypatch.setattr(module, inner, probe)
    before = getter()
    setter(2)
    try:
        if raises:
            with pytest.raises(RuntimeError, match="raised inside"):
                call(tmp_path)
        else:
            call(tmp_path)
        assert inside == [1]
        assert getter() == 2
    finally:
        setter(before)


@pytest.fixture
def fresh_blas_lookup():
    """Drops the cached OpenBLAS lookup before and after the test."""
    threads._openblas_controls.cache_clear()
    yield
    threads._openblas_controls.cache_clear()


def test_limit_blas_threads_never_raises_the_count(fresh_blas_lookup):
    before = _blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS get_num_threads symbol found")
    threads._limit_blas_threads(before + 1)
    assert _blas_threads() == before


@pytest.mark.parametrize("library", ["none", "unloadable", "libc"])
def test_limit_blas_threads_without_openblas_does_nothing(
    monkeypatch, fresh_blas_lookup, library
):
    # no library found, one that cannot be loaded, or one that exports no
    # thread setter: no call, no raise
    paths = {"none": [], "unloadable": ["/nonexistent/libopenblas.so"]}.get(library)
    if library == "libc":
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("libc not found")
        paths = [libc]
    before = _blas_threads()
    monkeypatch.setattr(threads, "_openblas_paths", lambda: paths)
    threads._limit_blas_threads(1)
    assert _blas_threads() == before


class _CountingThreadPool(ThreadPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


def test_reports_and_batches_do_not_depend_on_the_fill_share(monkeypatch):
    # a wide instance and one of its ~9.4k x 400 full-d batches, at fill
    # shares 1 and 2: the same report and the same bytes, and every fill
    # thread joined before sample_batch returns
    cfg = RunConfig(d=400, k=5, m=24, mode="rr", seed=3)
    gt = synthetic.generate_problem(cfg.d, cfg.k, cfg.m, cfg.seed)
    monkeypatch.setattr(synthetic, "ThreadPoolExecutor", _CountingThreadPool)
    reports, batches, pools = [], [], []
    for share in (1, 2):
        monkeypatch.setattr(threads, "_fill_share", share)
        _CountingThreadPool.made = 0
        reports.append(run_one(cfg, problem=gt))
        stream = synthetic.TaskStream(ground_truth=gt, rng_seed=cfg.seed)
        alive = threading.active_count()
        batches.append(synthetic.sample_batch(stream, 0, 9400))
        assert threading.active_count() == alive
        pools.append(_CountingThreadPool.made)
    assert _same_report(*reports)
    assert batches[0].x.tobytes() == batches[1].x.tobytes()
    assert np.array_equal(batches[0].y, batches[1].y)
    assert pools[0] == 0 and pools[1] > 1  # share 2 filled on helper threads


def test_joint_prefix_bases_match_the_svd_at_every_fill_share(monkeypatch):
    # m > d, so the prefixes take their bases from E E' while t + 1 <= d and
    # from E'E after, and the first k prefixes keep every direction; the
    # report is the same at fill shares 1 and 2
    cfg = RunConfig(d=20, k=3, m=60, mode="joint", seed=2)
    basis = driver._top_k_basis
    reports, seen = [], []

    def spied(E, gram, k):
        B = basis(E, gram, k)
        seen.append((E.copy(), gram is None, B))
        return B

    monkeypatch.setattr(driver, "_top_k_basis", spied)
    for share in (1, 2):
        monkeypatch.setattr(threads, "_fill_share", share)
        reports.append(run_one(cfg))
    assert _same_report(*reports)
    assert len(seen) == 2 * cfg.m
    assert [small for _, small, _ in seen[: cfg.m]] == [t < cfg.d for t in range(cfg.m)]
    for E, _, B in seen[: cfg.m]:
        r = min(cfg.k, len(E))
        assert B.shape == (cfg.d, r)
        assert np.abs(B.T @ B - np.eye(r)).max() <= 1e-12
        vt = np.linalg.svd(E, full_matrices=False)[2][:r]
        assert np.abs(B @ B.T - vt.T @ vt).max() <= 1e-12


def test_evaluate_report_single():
    r = run_one(RunConfig(d=15, k=2, m=8, seed=5))
    table = evaluate_report([r])
    assert np.array_equal(table.curve_means["angle_curve"], r.angle_curve)
    assert np.all(table.curve_stds["angle_curve"] == 0.0)


def test_evaluate_report_mean_of_trials():
    reports = run_trials(RunConfig(d=15, k=2, m=8, seed=5), trials=3)
    table = evaluate_report(reports)
    expect = np.mean([r.samples_total for r in reports])
    assert table.curve_means["samples_cum_curve"][-1] == pytest.approx(expect)
    stacked = np.stack([r.accuracy_curve for r in reports])
    assert np.allclose(table.curve_means["accuracy_curve"], stacked.mean(axis=0))


def test_evaluate_report_rejects_mismatch():
    a = run_one(RunConfig(d=15, k=2, m=8, seed=5))
    b = run_one(RunConfig(d=15, k=2, m=6, seed=5))
    with pytest.raises(ValueError):
        evaluate_report([a, b])
    with pytest.raises(ValueError):
        evaluate_report([])


def test_report_rows_shape_and_flags():
    cfg = RunConfig(d=20, k=2, m=10, seed=4)
    r = run_one(cfg)
    rows = report_rows(r, trial=2)
    assert len(rows) == 10
    assert all(len(row) == len(REPORT_COLUMNS) for row in rows)
    assert sum(row[REPORT_COLUMNS.index("new_feature")] for row in rows) == len(
        r.new_feature_events
    )
    assert rows[-1][REPORT_COLUMNS.index("samples_cum")] == r.samples_total
    assert all(row[0] == 2 for row in rows)
    assert all(row[2] == "basic" for row in rows)


def test_summary_rows_match_columns():
    reports = run_trials(RunConfig(d=15, k=2, m=8, seed=5), trials=2)
    table = evaluate_report(reports)
    rows = summary_rows(table)
    assert len(rows) == 8
    assert all(len(row) == len(SUMMARY_COLUMNS) for row in rows)
    assert SUMMARY_COLUMNS[0] == "task_index"
    assert [row[0] for row in rows] == list(range(8))


def test_runs_are_deterministic():
    cfg = RunConfig(d=25, k=3, m=15, seed=9, mode="rr")
    a = run_one(cfg)
    b = run_one(cfg)
    assert np.array_equal(a.per_task_error, b.per_task_error)
    assert np.array_equal(a.angle_curve, b.angle_curve)
    assert a.new_feature_events == b.new_feature_events
    assert a.samples_total == b.samples_total
