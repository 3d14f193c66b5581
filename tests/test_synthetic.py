import math

import numpy as np
import pytest

from lllsim.synthetic import (
    _SAMPLE_BLOCK,
    NS_BATCH,
    GroundTruth,
    TaskStream,
    disagreement_exact,
    disagreement_mc,
    generate_problem,
    rng_substream,
    sample_batch,
    task_error_exact,
    task_errors,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def test_disagreement_exact_frozen_values():
    assert disagreement_exact(E1, E1) == pytest.approx(0.0, abs=1e-15)
    assert disagreement_exact(E1, -E1) == pytest.approx(1.0, abs=1e-15)
    assert disagreement_exact(E1, E2) == pytest.approx(0.5, abs=1e-15)
    v = (E1 + E2) / math.sqrt(2.0)
    assert disagreement_exact(E1, v) == pytest.approx(0.25, abs=1e-12)


def test_disagreement_exact_validates():
    with pytest.raises(ValueError):
        disagreement_exact(np.zeros(3), E1)
    with pytest.raises(ValueError):
        disagreement_exact(E1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        disagreement_exact(2.0 * E1, E1)


def test_disagreement_symmetry_and_triangle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        u, v, w = rng.standard_normal((3, 5))
        u, v, w = (t / np.linalg.norm(t) for t in (u, v, w))
        duv = disagreement_exact(u, v)
        assert duv == pytest.approx(disagreement_exact(v, u), abs=1e-15)
        assert duv <= disagreement_exact(u, w) + disagreement_exact(w, v) + 1e-12


def test_disagreement_chord_bridge():
    # chord <= angle <= (pi/2) chord on the unit sphere, hence the sandwich
    rng = np.random.default_rng(29)
    for _ in range(1000):
        u, v = rng.standard_normal((2, 4))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        chord = np.linalg.norm(u - v)
        d = disagreement_exact(u, v)
        assert 0.95 * chord / math.pi <= d + 1e-12
        assert d <= chord / 2.0 + 1e-12


def test_generate_problem_shapes_and_rank():
    gt = generate_problem(d=100, k=5, m=100, seed=7)
    assert gt.W_star.shape == (5, 100)
    assert gt.C_star.shape == (100, 5)
    assert gt.a.shape == (100, 100)
    assert np.allclose(np.linalg.norm(gt.a, axis=1), 1.0, atol=1e-9)
    assert np.linalg.matrix_rank(gt.a) == 5


def test_generate_problem_rank_one_collinear():
    gt = generate_problem(d=2, k=1, m=3, seed=1)
    for i in range(3):
        dot = abs(float(gt.a[0] @ gt.a[i]))
        assert dot == pytest.approx(1.0, abs=1e-12)


def test_generate_problem_square_full_rank():
    gt = generate_problem(d=5, k=5, m=5, seed=11)
    assert np.linalg.matrix_rank(gt.a) == 5


def test_generate_problem_deterministic():
    g1 = generate_problem(d=20, k=3, m=10, seed=42)
    g2 = generate_problem(d=20, k=3, m=10, seed=42)
    assert np.array_equal(g1.W_star, g2.W_star)
    assert np.array_equal(g1.C_star, g2.C_star)
    assert np.array_equal(g1.a, g2.a)
    g3 = generate_problem(d=20, k=3, m=10, seed=43)
    assert not np.array_equal(g1.W_star, g3.W_star)


def test_generate_problem_validates_dimensions():
    with pytest.raises(ValueError):
        generate_problem(d=3, k=4, m=10, seed=0)
    with pytest.raises(ValueError):
        generate_problem(d=10, k=4, m=3, seed=0)
    with pytest.raises(ValueError):
        generate_problem(d=10, k=0, m=3, seed=0)


def test_sample_batch_labels_match_definition():
    gt = generate_problem(d=10, k=2, m=4, seed=5)
    stream = TaskStream(ground_truth=gt, rng_seed=5)
    batch = sample_batch(stream, task=2, n=500)
    assert len(batch) == 500
    margins = batch.x @ gt.a[2] * batch.y
    assert np.all(margins >= 0.0)


def test_sample_batch_rejects_bad_args():
    gt = generate_problem(d=4, k=2, m=3, seed=0)
    stream = TaskStream(ground_truth=gt, rng_seed=0)
    with pytest.raises(ValueError):
        sample_batch(stream, task=0, n=0)
    with pytest.raises(ValueError):
        sample_batch(stream, task=3, n=5)


def test_sample_batch_label_balance():
    gt = generate_problem(d=8, k=3, m=5, seed=9)
    stream = TaskStream(ground_truth=gt, rng_seed=9)
    batch = sample_batch(stream, task=0, n=100_000)
    frac_pos = float(np.mean(batch.y == 1))
    assert 0.494 <= frac_pos <= 0.506


def test_sample_batch_deterministic_and_advancing():
    gt = generate_problem(d=6, k=2, m=3, seed=3)
    s1 = TaskStream(ground_truth=gt, rng_seed=3)
    s2 = TaskStream(ground_truth=gt, rng_seed=3)
    b1 = sample_batch(s1, task=1, n=50)
    b2 = sample_batch(s2, task=1, n=50)
    assert np.array_equal(b1.x, b2.x) and np.array_equal(b1.y, b2.y)
    # a second batch on the same task continues, not repeats
    b3 = sample_batch(s1, task=1, n=50)
    assert not np.array_equal(b1.x, b3.x)
    # other tasks draw from distinct substreams
    b4 = sample_batch(s2, task=0, n=50)
    assert not np.array_equal(b2.x, b4.x)


@pytest.mark.parametrize("n", [1, _SAMPLE_BLOCK, 2 * _SAMPLE_BLOCK + 17])
def test_sample_batch_is_the_float32_rounding_of_one_draw(n):
    # the blocked draw continues one generator: x is the float32 rounding of
    # a single (n, d) float64 draw of the batch's substream, y its labels
    gt = generate_problem(d=12, k=3, m=4, seed=6)
    stream = TaskStream(ground_truth=gt, rng_seed=6)
    sample_batch(stream, task=2, n=5)
    batch = sample_batch(stream, task=2, n=n)
    x64 = rng_substream(6, NS_BATCH, 2, 1).standard_normal((n, 12))
    assert batch.x.dtype == np.float32
    assert np.array_equal(batch.x, x64.astype(np.float32))
    assert np.array_equal(batch.y, np.where(x64 @ gt.a[2] >= 0.0, 1, -1))


def test_task_error_exact_frozen_values():
    gt = generate_problem(d=12, k=3, m=6, seed=21)
    a = gt.a[4]
    assert task_error_exact(a, 4, gt) == pytest.approx(0.0, abs=1e-12)
    assert task_error_exact(-a, 4, gt) == pytest.approx(1.0, abs=1e-12)
    # rotate a by angle 0.1*pi inside a plane containing it
    rng = np.random.default_rng(1)
    u = rng.standard_normal(12)
    u -= (u @ a) * a
    u /= np.linalg.norm(u)
    theta = 0.1 * math.pi
    h = math.cos(theta) * a + math.sin(theta) * u
    assert task_error_exact(h, 4, gt) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        task_error_exact(a, 6, gt)


def test_task_errors_match_task_error_exact_row_by_row():
    gt = generate_problem(d=30, k=4, m=40, seed=5)
    H = np.random.default_rng(5).standard_normal((gt.m, gt.d))
    H /= np.linalg.norm(H, axis=1)[:, None]
    errs = task_errors(H, gt.a)
    assert errs.shape == (gt.m,)
    expect = [task_error_exact(H[i], i, gt) for i in range(gt.m)]
    np.testing.assert_allclose(errs, expect, rtol=0, atol=1e-15)
    assert task_errors(H[:0], gt.a[:0]).shape == (0,)


def test_task_errors_rejects_non_unit_rows_and_shape_mismatch():
    gt = generate_problem(d=12, k=3, m=6, seed=21)
    H = gt.a.copy()
    H[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        task_errors(H, gt.a)
    with pytest.raises(ValueError):
        task_errors(gt.a, H)
    with pytest.raises(ValueError):
        task_errors(gt.a[:5], gt.a)
    with pytest.raises(ValueError):
        task_errors(gt.a[0], gt.a[0])


def test_disagreement_mc_matches_exact():
    v = (E1 + E2) / math.sqrt(2.0)
    est = disagreement_mc(E1, v, n=1_000_000, seed=0)
    assert est == pytest.approx(0.25, abs=0.0013)
    est2 = disagreement_mc(E1, E2, n=1_000_000, seed=1)
    assert est2 == pytest.approx(0.5, abs=0.0015)
    assert disagreement_mc(E1, E1, n=1000, seed=2) == 0.0


def test_disagreement_mc_deterministic():
    a = disagreement_mc(E1, E2, n=10_000, seed=123)
    b = disagreement_mc(E1, E2, n=10_000, seed=123)
    assert a == b


def test_ground_truth_invariants_enforced():
    W = np.eye(2, 3)
    C = np.array([[1.0, 0.0]])
    bad_a = np.array([[2.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        GroundTruth(W_star=W, C_star=C, a=bad_a, d=3, k=2, m=1, seed=0)
