import ctypes
import ctypes.util
import math
import re
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import numpy as np
import pytest

from lllsim import driver
from lllsim.driver import (
    REPORT_COLUMNS,
    RunConfig,
    evaluate_report,
    report_rows,
    run_one,
    run_trials,
    summary_columns,
    summary_rows,
    trial_configs,
)
from lllsim.geometry import orthonormalize
from lllsim.learner import budget, mc_check_cost
from lllsim.synthetic import GroundTruth


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
    explicit = RunConfig(d=20, k=4, m=10, epsilon_acc=0.03)
    assert explicit.epsilon_acc == 0.03


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
        dict(d=10, k=2, m=5, epsilon_acc=0.2),  # above epsilon
        dict(d=10, k=2, m=5, epsilon_acc=0.0),
        dict(d=10, k=2, m=5, acc_constant=0.0),
        dict(d=10, k=2, m=5, c_s=0.0),
        dict(d=10, k=2, m=5, trials=0),
        dict(d=10, k=2, m=5, seed=-1),
        dict(d=10, k=2, m=5, N=-1),
        dict(d=10, k=2, m=5, mode="offline"),
        dict(d=10, k=2, m=5, check_mode="exact"),
        dict(d=10, k=2, m=5, refine_every="never"),
        dict(d=10, k=2, m=5, refine_every="threshold"),  # needs r_max
        dict(d=10, k=2, m=5, refine_every="threshold", r_max=0),
        dict(d=10, k=2, m=5, sdp_tol=0.0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


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
    lazy = run_one(
        RunConfig(mode="rr", refine_every="threshold", r_max=4, **kw)
    )
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
    0.48796907173330717, 0.4841824605081071, 0.47901803737049764, 0.39251924102579283,
    0.4698199487296316, 0.4695323136246447, 0.5138000872826521, 0.5103131875876744,
    0.48179229005279145, 0.48173763779832657, 0.5200124319070956, 0.38741048978916215,
    0.514341334941954, 0.4927858180541957, 0.5140802999113284, 0.48278693775058246,
    0.4372164837020402, 0.45855140636120584, 0.45343653385059446, 0.43170223420434095,
    0.38508695231560053, 0.3917231234514476, 0.4504561767469733, 0.4859906857397902,
    0.4237466345983072, 0.4459718213069349, 0.41939075844799434, 0.4340198612838666,
    0.46569283676813716, 0.4323499512070183,
]  # fmt: skip
_RELEARN_ERRORS = [
    0.37855478963883343, 0.10059703985523742, 0.44517661284536003, 0.2451721262717349,
    0.23704754773893774, 0.10626849141816591, 0.2710178711574149, 0.38634722851194636,
    0.2995775689824417, 0.30726276410224884, 0.3188549577300642, 0.3507055662894055,
    0.36206715338672446, 0.2753508846471836, 0.43849788980686716, 0.42572472776990444,
    0.18776221237318302, 0.42388020787572456, 0.24044138435492715, 0.4160022854811359,
    0.2090145719940491, 0.38818651783411223, 0.21248958279890248, 0.4655601351168911,
    0.21708053501597666, 0.45067631751536097, 0.26719084360217604, 0.44271578700620445,
    0.31294450951721875, 0.041689173418082336,
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
    cfg = RunConfig(d=10, k=2, m=5, N=0, mode="joint")
    with pytest.raises(ValueError):
        run_one(cfg)


def test_angle_is_right_angle_until_dims_match():
    cfg = RunConfig(d=30, k=2, m=20, seed=1)
    r = run_one(cfg)
    # one feature cannot carry a 2-dim truth: gap metric pins pi/2
    assert r.feature_dim_curve[0] == 1
    assert r.angle_curve[0] == pytest.approx(math.pi / 2)
    assert r.feature_dim_curve[-1] == 2
    assert r.angle_curve[-1] < math.pi / 2


def test_trial_configs_seed_spacing():
    cfg = RunConfig(d=10, k=2, m=5, seed=40, trials=3, mode="rr")
    cfgs = trial_configs(cfg)
    assert [c.seed for c in cfgs] == [40, 41, 42]
    assert all(c.trials == 1 for c in cfgs)
    assert all(c.mode == "rr" for c in cfgs)


def test_run_trials_parallel_matches_serial():
    cfg = RunConfig(d=15, k=2, m=8, seed=5, trials=3)
    serial = run_trials(cfg, jobs=1)
    parallel = run_trials(cfg, jobs=2)
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
    # workers = min(jobs, trials, cores), each capped at cores // workers BLAS
    # threads; one worker means no pool, and so no initializer, at all
    monkeypatch.setattr(driver, "_available_cores", lambda: cores)
    monkeypatch.setattr(driver, "run_one", lambda cfg: cfg.seed)
    seeds = run_trials(RunConfig(d=15, k=2, m=8, seed=5, trials=trials), jobs=jobs)
    assert seeds == list(range(5, 5 + trials))
    if workers is None:
        assert recorded_pools == []
    else:
        budget = max(1, cores // workers)
        assert recorded_pools == [(workers, driver._limit_blas_threads, (budget,))]


@pytest.mark.parametrize(
    "jobs, cores, workers", [(4, 8, 4), (8, 16, 6), (4, 2, 2), (1, 8, None)]
)
def test_run_trials_shares_one_pool_across_configs(
    monkeypatch, recorded_pools, jobs, cores, workers
):
    # 2 + 3 + 1 trials: one pool of min(jobs, 6, cores) workers for all of
    # them, and the reports come back config by config, trial by trial
    monkeypatch.setattr(driver, "_available_cores", lambda: cores)
    monkeypatch.setattr(driver, "run_one", lambda cfg: (cfg.mode, cfg.seed))
    cfgs = [
        RunConfig(d=15, k=2, m=8, seed=5, trials=2, mode="basic"),
        RunConfig(d=15, k=2, m=8, seed=5, trials=3, mode="rr"),
        RunConfig(d=15, k=2, m=8, seed=9, trials=1, mode="joint"),
    ]
    assert run_trials(cfgs, jobs=jobs) == [
        [("basic", 5), ("basic", 6)],
        [("rr", 5), ("rr", 6), ("rr", 7)],
        [("joint", 9)],
    ]
    if workers is None:
        assert recorded_pools == []
    else:
        budget = cores // workers
        assert recorded_pools == [(workers, driver._limit_blas_threads, (budget,))]


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
        RunConfig(d=15, k=2, m=8, seed=5, trials=2, mode="basic"),
        RunConfig(d=15, k=2, m=8, seed=5, trials=2, mode="rr"),
    ]
    pooled = run_trials(cfgs, jobs=2)
    assert len(pooled) == 2
    for cfg, reports in zip(cfgs, pooled):
        serial = run_trials(cfg, jobs=1)
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


def _blas_threads():
    """This process's OpenBLAS thread count, or None if no getter is found.

    Reads /proc/self/maps on its own, so a broken lookup in the driver
    cannot turn the thread-cap test into a skip.
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
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def _worker_blas_threads(cfg):
    return _blas_threads()


def test_run_trials_workers_get_their_share_of_blas_threads(monkeypatch):
    # a real forked pool: each worker reports the OpenBLAS threads it runs with
    cores = driver._available_cores()
    if cores < 2:
        pytest.skip("one core: run_trials never starts a pool")
    inherited = _blas_threads()
    if inherited is None:
        pytest.skip("no OpenBLAS get_num_threads symbol found")
    # the cap only lowers: workers keep a smaller OPENBLAS_NUM_THREADS
    expected = min(inherited, max(1, cores // 2))
    monkeypatch.setattr(driver, "run_one", _worker_blas_threads)
    threads = run_trials(RunConfig(d=15, k=2, m=8, seed=5, trials=2), jobs=2)
    assert threads == [expected] * 2


def test_limit_blas_threads_never_raises_the_count():
    before = _blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS get_num_threads symbol found")
    driver._limit_blas_threads(before + 1)
    assert _blas_threads() == before


@pytest.mark.parametrize("library", ["none", "unloadable", "libc"])
def test_limit_blas_threads_without_openblas_does_nothing(monkeypatch, library):
    # no library found, one that cannot be loaded, or one that exports no
    # thread setter: no call, no raise
    paths = {"none": [], "unloadable": ["/nonexistent/libopenblas.so"]}.get(library)
    if library == "libc":
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("libc not found")
        paths = [libc]
    before = _blas_threads()
    monkeypatch.setattr(driver, "_openblas_paths", lambda: paths)
    driver._limit_blas_threads(1)
    assert _blas_threads() == before


def test_evaluate_report_single():
    r = run_one(RunConfig(d=15, k=2, m=8, seed=5))
    table = evaluate_report([r])
    assert table.n_trials == 1
    assert table.mode == "basic"
    assert np.array_equal(table.curve_means["angle_curve"], r.angle_curve)
    assert np.all(table.curve_stds["angle_curve"] == 0.0)
    assert table.scalar_means["samples_total"] == r.samples_total
    assert table.scalar_stds["samples_total"] == 0.0
    assert table.scalar_means["new_feature_count"] == len(r.new_feature_events)


def test_evaluate_report_mean_of_trials():
    reports = run_trials(RunConfig(d=15, k=2, m=8, seed=5, trials=3))
    table = evaluate_report(reports)
    expect = np.mean([r.samples_total for r in reports])
    assert table.scalar_means["samples_total"] == pytest.approx(expect)
    stacked = np.stack([r.accuracy_curve for r in reports])
    assert np.allclose(table.curve_means["accuracy_curve"], stacked.mean(axis=0))


def test_evaluate_report_rejects_mismatch():
    a = run_one(RunConfig(d=15, k=2, m=8, seed=5))
    b = run_one(RunConfig(d=15, k=2, m=6, seed=5))
    with pytest.raises(ValueError):
        evaluate_report([a, b])
    with pytest.raises(ValueError):
        evaluate_report([])


def test_evaluate_report_mixed_modes():
    a = run_one(RunConfig(d=15, k=2, m=8, seed=5))
    b = run_one(RunConfig(d=15, k=2, m=8, seed=5, mode="rr"))
    assert evaluate_report([a, b]).mode == "mixed"


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
    reports = run_trials(RunConfig(d=15, k=2, m=8, seed=5, trials=2))
    table = evaluate_report(reports)
    cols = summary_columns(table)
    rows = summary_rows(table)
    assert len(rows) == 8
    assert all(len(row) == len(cols) for row in rows)
    assert cols[0] == "task_index"
    assert [row[0] for row in rows] == list(range(8))


def test_runs_are_deterministic():
    cfg = RunConfig(d=25, k=3, m=15, seed=9, mode="rr")
    a = run_one(cfg)
    b = run_one(cfg)
    assert np.array_equal(a.per_task_error, b.per_task_error)
    assert np.array_equal(a.angle_curve, b.angle_curve)
    assert a.new_feature_events == b.new_feature_events
    assert a.samples_total == b.samples_total
