import math
import tracemalloc

import numpy as np
import pytest

from lllsim import learner
from lllsim.geometry import orthonormalize
from lllsim.learner import (
    _POLISH_BLOCK,
    Hypothesis,
    _normalize,
    _polish,
    budget,
    check_hypothesis,
    check_hypothesis_mc,
    estimate_direction,
    learn_halfspace,
    learn_in_feature_space,
)
from lllsim.synthetic import (
    GroundTruth,
    TaskStream,
    generate_problem,
    sample_batch,
    task_error_exact,
)
from oracle import dist_to_subspace, mistakes, polish_with_recounts


def _single_task_problem(a: np.ndarray) -> GroundTruth:
    a = a / np.linalg.norm(a)
    d = a.size
    return GroundTruth(
        W_star=a.reshape(1, d),
        C_star=np.array([[1.0]]),
        a=a.reshape(1, d),
        d=d,
        k=1,
        m=1,
        seed=0,
    )


def test_budget_frozen_value():
    # 100 * ln(10) / 0.1 = 2302.585..., rounded up
    assert budget(100, 0.1, c_s=1.0) == 2303


def test_budget_monotonicity():
    assert budget(50, 0.05, 4.0) >= budget(50, 0.1, 4.0) >= budget(50, 0.2, 4.0)
    assert budget(200, 0.1, 4.0) >= budget(100, 0.1, 4.0) >= budget(10, 0.1, 4.0)


def test_budget_validates():
    with pytest.raises(ValueError):
        budget(10, 0.5, 4.0)
    with pytest.raises(ValueError):
        budget(10, 0.0, 4.0)
    with pytest.raises(ValueError):
        budget(0, 0.1, 4.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_s must be positive and finite"):
            budget(10, 0.1, c_s=bad)


def test_estimate_direction_noiseless_target():
    gt = _single_task_problem(np.eye(10)[0])
    stream = TaskStream(ground_truth=gt, rng_seed=4)
    ahat = estimate_direction(stream, task=0, n=100_000)
    assert np.linalg.norm(ahat - gt.a[0]) <= 0.02
    assert np.linalg.norm(ahat) == pytest.approx(1.0, abs=1e-12)


def test_learn_halfspace_budget_and_unit_norm():
    gt = generate_problem(d=30, k=3, m=5, seed=2)
    stream = TaskStream(ground_truth=gt, rng_seed=2)
    h = learn_halfspace(stream, task=1, eps_target=0.1, c_s=4.0)
    assert h.samples_used == budget(30, 0.1, 4.0)
    assert np.linalg.norm(h.direction) == pytest.approx(1.0, abs=1e-12)


def test_learn_halfspace_rejects_bad_eps():
    gt = generate_problem(d=5, k=2, m=3, seed=0)
    stream = TaskStream(ground_truth=gt, rng_seed=0)
    with pytest.raises(ValueError):
        learn_halfspace(stream, task=0, eps_target=0.5, c_s=4.0)


def test_learn_halfspace_calibration():
    # c_s = 4 must hit the target error in >= 95 of 100 trials
    hits = 0
    for seed in range(100):
        gt = generate_problem(d=50, k=3, m=5, seed=seed)
        stream = TaskStream(ground_truth=gt, rng_seed=seed)
        h = learn_halfspace(stream, task=0, eps_target=0.1, c_s=4.0)
        if task_error_exact(h.direction, 0, gt) <= 0.1:
            hits += 1
    assert hits >= 95


def _polish_batch(d: int, n: int, seed: int, r: int | None = None, dtype=np.float64):
    """(x, y, a): n labeled samples of a task in R^d, reduced to r random
    coordinates (a basis that misses the target) when r is given; x in dtype."""
    rng = np.random.default_rng(seed)
    gt = _single_task_problem(rng.standard_normal(d))
    batch = sample_batch(TaskStream(ground_truth=gt, rng_seed=seed), 0, n)
    x = batch.x
    if r is not None:
        x = x @ orthonormalize(list(rng.standard_normal((r, d)))).basis
    return x.astype(dtype), batch.y, gt.a[0]


def _signed(x, y):
    """The signed rows y*x that `_polish` fits, in x's dtype."""
    return x * y.astype(x.dtype)[:, None]


def test_polish_separable_batch_matches_recounting_oracle():
    for dtype in (np.float64, np.float32):
        x, y, _ = _polish_batch(d=40, n=2000, seed=3, dtype=dtype)
        start = y @ x
        assert mistakes(start, x, y) > 0  # the polish has work to do
        w = _polish(start, _signed(x, y))
        assert w.dtype == dtype
        assert mistakes(w, x, y) == 0
        assert np.array_equal(w, polish_with_recounts(start, x, y))


@pytest.mark.parametrize("seed", [5, 9])
def test_polish_at_the_epoch_cap_matches_recounting_oracle(seed):
    # the target is outside the 3 coordinates kept, so the batch is not
    # separable in them and every one of the 64 epochs makes mistakes; with
    # seed 5 no epoch beats the start (epochs 29 and 57 tie it), with seed 9
    # the fewest mistakes come after epochs 6, 14 and 56, and the first wins
    for dtype in (np.float64, np.float32):
        x, y, _ = _polish_batch(d=20, n=400, seed=seed, r=3, dtype=dtype)
        start = y @ x
        w = _polish(start, _signed(x, y))
        assert mistakes(w, x, y) > 0  # a clean epoch would have ended it
        assert mistakes(w, x, y) <= mistakes(start, x, y)
        assert np.array_equal(w, polish_with_recounts(start, x, y))


def test_polish_keeps_a_mistake_free_start():
    x, y, a = _polish_batch(d=30, n=1000, seed=8)
    assert mistakes(a, x, y) == 0
    w = _polish(a, _signed(x, y))
    assert np.array_equal(w, a)
    assert np.array_equal(w, polish_with_recounts(a, x, y))


def _one_block_polish(w, xy, monkeypatch):
    """_polish on at most one block of signed rows, with a copy of xy kept
    to check that it leaves them alone and `_count_mistakes` made to fail."""
    assert len(xy) <= _POLISH_BLOCK
    xy0 = xy.copy()

    def no_recount(*args):
        raise AssertionError("a one-block polish recounted its mistakes")

    with monkeypatch.context() as patch:
        patch.setattr(learner, "_count_mistakes", no_recount)
        w = _polish(w, xy)
    assert np.array_equal(xy, xy0)
    return w


def _last_iterate(w, x, y):
    """The one-block polish's iterate after all 64 epochs."""
    y = y.astype(x.dtype)
    w = w.astype(x.dtype)
    for _ in range(64):
        bad = (x @ w) * y <= 0.0
        w = w + y[bad] @ x[bad]
    return w


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_block_polish_of_a_separable_batch_matches_recounting_oracle(
    monkeypatch, dtype
):
    x, y, _ = _polish_batch(d=20, n=200, seed=3, dtype=dtype)
    start = y @ x
    assert mistakes(start, x, y) > 0
    want = polish_with_recounts(start, x, y)
    w = _one_block_polish(start, _signed(x, y), monkeypatch)
    assert w.dtype == dtype
    assert mistakes(w, x, y) == 0
    assert np.array_equal(w, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [1, 4])
def test_one_block_polish_at_the_epoch_cap_matches_recounting_oracle(
    monkeypatch, seed, dtype
):
    # 150 rows in 3 coordinates that miss the target: every epoch makes
    # mistakes, and the last iterate is not the winner. With seed 1 an
    # epoch-end iterate wins, with seed 4 the start does
    x, y, _ = _polish_batch(d=20, n=150, seed=seed, r=3, dtype=dtype)
    start = y @ x
    want = polish_with_recounts(start, x, y)
    w = _one_block_polish(start, _signed(x, y), monkeypatch)
    assert np.array_equal(w, want)
    assert (w is start) == (seed == 4)
    last = _last_iterate(start, x, y)
    assert 0 < mistakes(w, x, y) < mistakes(last, x, y)


@pytest.mark.parametrize("n", [_POLISH_BLOCK, _POLISH_BLOCK + 1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_polish_at_the_block_boundary_matches_recounting_oracle(monkeypatch, n, dtype):
    # n = 256 is the largest batch of one block, scan-counted with no
    # recount; n = 257 adds a block of one row and recounts at the cap
    polish = _polish if n > _POLISH_BLOCK else (
        lambda w, xy: _one_block_polish(w, xy, monkeypatch)
    )
    x, y, _ = _polish_batch(d=20, n=n, seed=2, dtype=dtype)
    start = y @ x
    assert mistakes(start, x, y) > 0
    w = polish(start, _signed(x, y))
    assert mistakes(w, x, y) == 0
    assert np.array_equal(w, polish_with_recounts(start, x, y))
    # 3 coordinates that miss the target: the cap ends the passes
    x, y, _ = _polish_batch(d=20, n=n, seed=2, r=3, dtype=dtype)
    start = y @ x
    w = polish(start, _signed(x, y))
    assert mistakes(w, x, y) > 0
    assert np.array_equal(w, polish_with_recounts(start, x, y))


def _reference_direction(stream, task: int, n: int, basis=None) -> np.ndarray:
    """estimate_direction on the unsigned batch (x, y): start y @ x, then
    the recounting polish."""
    batch = sample_batch(stream, task, n, basis)
    y = batch.y.astype(batch.x.dtype)
    return _normalize(polish_with_recounts(y @ batch.x, batch.x, y))


@pytest.mark.parametrize("r", [None, 3, 23])
def test_estimate_direction_matches_the_unsigned_reference(r):
    # full-d: 2000 float32 rows, eight blocks. In span: r random coordinates
    # that miss the targets, so every polish runs to the cap; at eps = 0.1
    # and c_s = 0.5 dim 3 draws 35 rows, one block of strided coordinates,
    # and dim 23 draws 265, past one block
    d = 40
    gt = generate_problem(d=d, k=2, m=3, seed=6)
    stream, twin, probe = (TaskStream(ground_truth=gt, rng_seed=6) for _ in range(3))
    basis, n = None, 2000
    if r is not None:
        basis = orthonormalize(list(np.random.default_rng(r).standard_normal((r, d)))).basis
        n = budget(r, 0.1, 0.5)
        assert (n > _POLISH_BLOCK) == (r == 23)
        assert not sample_batch(probe, 0, n, basis).x.flags.c_contiguous
    for task in range(3):
        want = _reference_direction(twin, task, n, basis)
        assert np.array_equal(estimate_direction(stream, task, n, basis), want)


def test_learn_past_one_chunk_holds_the_batch_once():
    # a large learn holds its float32 batch once, with no copy of it
    n, d = 100_000, 50
    gt = generate_problem(d=d, k=1, m=1, seed=0)
    stream = TaskStream(ground_truth=gt, rng_seed=0)
    tracemalloc.start()
    try:
        estimate_direction(stream, 0, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * d * 4


def test_full_d_learn_holds_one_float32_batch():
    # a full-d learn at d=400 with wide's eps_acc and c_s: its one batch of
    # n*d float32 values is the peak; a float64 copy of it would double that
    eps, d = 0.059628, 400
    n = budget(d, eps, 0.5)
    assert n == 9458
    gt = generate_problem(d=d, k=2, m=2, seed=0)
    stream = TaskStream(ground_truth=gt, rng_seed=0)
    tracemalloc.start()
    try:
        h = learn_halfspace(stream, task=0, eps_target=eps, c_s=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.direction.dtype == np.float64
    assert peak <= 1.2 * n * d * 4


def _assert_in_span_answer(h, V, gt, seed: int, task: int) -> None:
    """h is a unit vector of R^d in span(V), and V.basis @ the coordinate fit
    of a stream seeded like the one that produced it."""
    assert h.direction.shape == (gt.d,)
    assert np.linalg.norm(h.direction) == pytest.approx(1.0, abs=1e-12)
    assert dist_to_subspace(h.direction, V) <= 1e-12
    stream = TaskStream(ground_truth=gt, rng_seed=seed)
    coords = estimate_direction(stream, task, h.samples_used, basis=V.basis)
    assert np.array_equal(h.direction, V.basis @ coords)


def test_learn_in_feature_space_realizable():
    gt = generate_problem(d=20, k=2, m=6, seed=13)
    V = orthonormalize(list(gt.W_star))
    stream = TaskStream(ground_truth=gt, rng_seed=13)
    h = learn_in_feature_space(stream, task=3, V=V, eps_target=0.1, c_s=4.0)
    assert h.samples_used == budget(2, 0.1, 4.0) == 185
    _assert_in_span_answer(h, V, gt, seed=13, task=3)
    assert task_error_exact(h.direction, 3, gt) <= 0.1


def test_learn_in_feature_space_orthogonal_target():
    # target along e1, features span {e2, e3}: every candidate errs exactly 1/2
    gt = _single_task_problem(np.eye(6)[0])
    V = orthonormalize([np.eye(6)[1], np.eye(6)[2]])
    stream = TaskStream(ground_truth=gt, rng_seed=7)
    h = learn_in_feature_space(stream, task=0, V=V, eps_target=0.1, c_s=4.0)
    _assert_in_span_answer(h, V, gt, seed=7, task=0)
    assert task_error_exact(h.direction, 0, gt) == pytest.approx(0.5, abs=1e-12)


def test_check_hypothesis_inclusive_threshold():
    gt = _single_task_problem(np.eye(8)[0])
    a = gt.a[0]
    perp = np.eye(8)[1]
    exact = Hypothesis(direction=a, samples_used=0)
    assert check_hypothesis(exact, 0, gt, eps=0.01)
    # orthogonal hypothesis errs exactly 0.5 in floats: boundary is included
    h_perp = Hypothesis(direction=perp, samples_used=0)
    assert task_error_exact(perp, 0, gt) == 0.5
    assert check_hypothesis(h_perp, 0, gt, eps=0.5)
    assert not check_hypothesis(h_perp, 0, gt, eps=0.4999)
    # generic boundary: checking at the error's own float value passes
    theta = 0.1 * math.pi
    h_border = Hypothesis(
        direction=math.cos(theta) * a + math.sin(theta) * perp, samples_used=0
    )
    err = task_error_exact(h_border.direction, 0, gt)
    assert check_hypothesis(h_border, 0, gt, eps=err)
    # error 0.12 against eps 0.1 fails
    theta_bad = 0.12 * math.pi
    h_bad = Hypothesis(
        direction=math.cos(theta_bad) * a + math.sin(theta_bad) * perp, samples_used=0
    )
    assert not check_hypothesis(h_bad, 0, gt, eps=0.1)


def test_check_hypothesis_mc_cost_and_agreement():
    gt = _single_task_problem(np.eye(5)[0])
    h = Hypothesis(direction=gt.a[0], samples_used=0)
    rng = np.random.default_rng(0)
    ok, n_test = check_hypothesis_mc(h, 0, gt, eps=0.1, rng=rng)
    assert ok
    assert n_test == math.ceil(32 / 0.1) == 320
    # a wildly wrong hypothesis is rejected
    bad = Hypothesis(direction=np.eye(5)[1], samples_used=0)
    ok_bad, _ = check_hypothesis_mc(bad, 0, gt, eps=0.1, rng=np.random.default_rng(1))
    assert not ok_bad


def test_hypothesis_requires_unit_direction():
    with pytest.raises(ValueError):
        Hypothesis(direction=np.array([2.0, 0.0]), samples_used=3)


def test_in_span_learn_draws_no_ambient_rows():
    # an in-span learn at large d draws r + 1 coordinates per sample, so it
    # peaks far below the n*d*4 bytes of a float32 batch in R^d
    d, r = 2000, 5
    gt = generate_problem(d=d, k=1, m=1, seed=1)
    V = orthonormalize(list(np.random.default_rng(1).standard_normal((r, d))))
    stream = TaskStream(ground_truth=gt, rng_seed=1)
    n = budget(r, 0.02, 4.0)
    tracemalloc.start()
    try:
        h = learn_in_feature_space(stream, 0, V, 0.02, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.samples_used == n
    assert peak <= n * d * 4 / 50
    _assert_in_span_answer(h, V, gt, seed=1, task=0)
