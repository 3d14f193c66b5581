import math
import tracemalloc

import numpy as np
import pytest

from lllsim.geometry import orthonormalize
from lllsim.learner import (
    _LEARN_CHUNK,
    _POLISH_BLOCK,
    C_S_DEFAULT,
    Hypothesis,
    _count_mistakes,
    _polish,
    adversarial_learn,
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
from oracle import polish_with_recounts


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
    assert budget(50, 0.05) >= budget(50, 0.1) >= budget(50, 0.2)
    assert budget(200, 0.1) >= budget(100, 0.1) >= budget(10, 0.1)


def test_budget_validates():
    with pytest.raises(ValueError):
        budget(10, 0.5)
    with pytest.raises(ValueError):
        budget(10, 0.0)
    with pytest.raises(ValueError):
        budget(0, 0.1)
    with pytest.raises(ValueError):
        budget(10, 0.1, c_s=0.0)


def test_estimate_direction_noiseless_target():
    gt = _single_task_problem(np.eye(10)[0])
    stream = TaskStream(ground_truth=gt, rng_seed=4)
    ahat = estimate_direction(stream, task=0, n=100_000)
    assert np.linalg.norm(ahat - gt.a[0]) <= 0.02
    assert np.linalg.norm(ahat) == pytest.approx(1.0, abs=1e-12)


def test_learn_halfspace_budget_and_unit_norm():
    gt = generate_problem(d=30, k=3, m=5, seed=2)
    stream = TaskStream(ground_truth=gt, rng_seed=2)
    h = learn_halfspace(stream, task=1, eps_target=0.1)
    assert h.samples_used == budget(30, 0.1, C_S_DEFAULT)
    assert np.linalg.norm(h.direction) == pytest.approx(1.0, abs=1e-12)


def test_learn_halfspace_rejects_bad_eps():
    gt = generate_problem(d=5, k=2, m=3, seed=0)
    stream = TaskStream(ground_truth=gt, rng_seed=0)
    with pytest.raises(ValueError):
        learn_halfspace(stream, task=0, eps_target=0.5)


def test_learn_halfspace_calibration():
    # the default constant must hit the target error in >= 95 of 100 trials
    hits = 0
    for seed in range(100):
        gt = generate_problem(d=50, k=3, m=5, seed=seed)
        stream = TaskStream(ground_truth=gt, rng_seed=seed)
        h = learn_halfspace(stream, task=0, eps_target=0.1)
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


def test_polish_separable_batch_matches_recounting_oracle():
    for dtype in (np.float64, np.float32):
        x, y, _ = _polish_batch(d=40, n=2000, seed=3, dtype=dtype)
        start = y @ x
        assert _count_mistakes(start, x, y) > 0  # the polish has work to do
        w = _polish(start, [(x, y)])
        assert w.dtype == dtype
        assert _count_mistakes(w, x, y) == 0
        assert np.array_equal(w, polish_with_recounts(start, x, y))


@pytest.mark.parametrize("seed", [5, 9])
def test_polish_at_the_epoch_cap_matches_recounting_oracle(seed):
    # the target is outside the 3 coordinates kept, so the batch is not
    # separable in them and every one of the 64 epochs makes mistakes; with
    # seed 5 no epoch beats the start, with seed 9 the fewest mistakes come
    # after epoch 13 and again after epoch 41, and the first of the two wins
    for dtype in (np.float64, np.float32):
        x, y, _ = _polish_batch(d=20, n=400, seed=seed, r=3, dtype=dtype)
        start = y @ x
        w = _polish(start, [(x, y)])
        assert _count_mistakes(w, x, y) > 0  # a clean epoch would have ended it
        assert _count_mistakes(w, x, y) <= _count_mistakes(start, x, y)
        assert np.array_equal(w, polish_with_recounts(start, x, y))


def test_polish_keeps_a_mistake_free_start():
    x, y, a = _polish_batch(d=30, n=1000, seed=8)
    assert _count_mistakes(a, x, y) == 0
    w = _polish(a, [(x, y)])
    assert np.array_equal(w, a)
    assert np.array_equal(w, polish_with_recounts(a, x, y))


def test_polish_over_chunks_matches_one_batch():
    # chunks cut at multiples of the polish block leave the blocks unchanged
    x, y, _ = _polish_batch(d=20, n=1000, seed=9, r=3, dtype=np.float32)
    start = y @ x
    cut = 2 * _POLISH_BLOCK
    w = _polish(start, [(x[:cut], y[:cut]), (x[cut:], y[cut:])])
    assert np.array_equal(w, _polish(start, [(x, y)]))


def test_learn_past_one_chunk_holds_the_batch_once():
    # n spans two sample chunks; concatenating them would hold the batch twice
    n, d = 100_000, 50
    assert n > _LEARN_CHUNK
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


def test_learn_in_feature_space_realizable():
    gt = generate_problem(d=20, k=2, m=6, seed=13)
    V = orthonormalize(list(gt.W_star))
    stream = TaskStream(ground_truth=gt, rng_seed=13)
    h = learn_in_feature_space(stream, task=3, V=V, eps_target=0.1)
    assert h.direction.shape == (2,)
    assert h.samples_used == budget(2, 0.1, C_S_DEFAULT) == 185
    ambient = V.basis @ h.direction
    assert np.linalg.norm(ambient) == pytest.approx(1.0, abs=1e-10)
    assert task_error_exact(ambient, 3, gt) <= 0.1


def test_learn_in_feature_space_orthogonal_target():
    # target along e1, features span {e2, e3}: every candidate errs exactly 1/2
    gt = _single_task_problem(np.eye(6)[0])
    V = orthonormalize([np.eye(6)[1], np.eye(6)[2]])
    stream = TaskStream(ground_truth=gt, rng_seed=7)
    h = learn_in_feature_space(stream, task=0, V=V, eps_target=0.1)
    ambient = V.basis @ h.direction
    assert task_error_exact(ambient, 0, gt) == pytest.approx(0.5, abs=1e-12)


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


def test_adversarial_learn_frozen_value():
    a = np.array([1.0, 0.0, 0.0])
    out = adversarial_learn(a, eps_i=0.1, adv_coord=2)
    expected = np.array([1.0, 0.0, 0.1]) / math.sqrt(1.01)
    assert np.allclose(out, expected, atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_adversarial_learn_zero_eps_and_distance_bound():
    a = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(adversarial_learn(a, 0.0, 3), a)
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        a = np.concatenate([v, [0.0]])
        eps = float(rng.uniform(0.0, 0.9))
        out = adversarial_learn(a, eps, k)
        assert np.linalg.norm(out - a) <= eps + 1e-12


def test_adversarial_learn_validates():
    a = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        adversarial_learn(a, 0.1, 5)
    with pytest.raises(ValueError):
        adversarial_learn(np.array([1.0, 0.5]), 0.1, 1)
    with pytest.raises(ValueError):
        adversarial_learn(a, 1.5, 1)


def test_hypothesis_requires_unit_direction():
    with pytest.raises(ValueError):
        Hypothesis(direction=np.array([2.0, 0.0]), samples_used=3)
