"""Acceptance gate: end-to-end behavioral guarantees at pinned tolerances.

Each test exercises one headline property of the package (refinement
certificates on planted instances, solver agreement with brute force,
the lifelong-learning protocol at simulation scale, sample-complexity
scaling shapes, adversarial lower-bound statistics, and the geometry
kernel) with explicit numeric tolerances and runtime budgets.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lllsim.driver import RunConfig, run_trials
from lllsim.geometry import Subspace, orthonormalize, principal_angles
from lllsim.lowerbound import allocation_cost, build_instance, new_task_angle_stats
from lllsim.refinement import refine, solve_refinement_sdp
from lllsim.synthetic import disagreement_exact
from oracle import (
    adversarial_subspace_angle,
    dense_solution_X,
    disagreement_mc,
    dist_to_subspace,
    exhaustive_angle_stats,
    find_balanced_subset,
    project,
)

N_PLANTED = 50
PLANTED_D, PLANTED_K, PLANTED_N, PLANTED_EPS = 100, 5, 30, 0.02


def _planted_features(rng, d, k, n, eps):
    """Unit features within eps of a random k-dim subspace."""
    B = np.linalg.qr(rng.standard_normal((d, k)))[0]
    feats = []
    for _ in range(n):
        c = rng.standard_normal(k)
        v = B @ (c / np.linalg.norm(c))
        delta = rng.standard_normal(d)
        delta -= (delta @ v) * v
        delta *= eps / np.linalg.norm(delta)
        w = v + delta
        feats.append(w / np.linalg.norm(w))
    return feats


@pytest.fixture(scope="module")
def planted_solutions():
    out = []
    for i in range(N_PLANTED):
        rng = np.random.default_rng(1000 + i)
        feats = _planted_features(rng, PLANTED_D, PLANTED_K, PLANTED_N, PLANTED_EPS)
        t0 = time.perf_counter()
        V, cert, sol = refine(feats, PLANTED_K, eps_acc=PLANTED_EPS, full_output=True)
        out.append((V, cert, sol, time.perf_counter() - t0, feats))
    return out


def test_refinement_certificate_on_planted_instances(planted_solutions):
    # every feature must stay within sqrt(2)*eps (plus 5% slack) of the
    # rounded subspace, whose dimension may not exceed 2k-1
    bound = math.sqrt(2.0) * PLANTED_EPS * 1.05
    for V, cert, _, elapsed, _ in planted_solutions:
        assert cert.dims <= 2 * PLANTED_K - 1
        assert V.basis.shape[1] == cert.dims
        assert cert.max_distance <= bound
        assert elapsed < 5.0


def test_sdp_value_matches_brute_force_on_two_axes():
    t0 = time.perf_counter()
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    sol = solve_refinement_sdp([e1, e2], k=1)
    assert abs(sol.t - 0.5) <= 1e-3

    # dense sweep of 1-dim candidate subspaces over the whole sphere
    theta = np.linspace(0.0, np.pi, 181)
    phi = np.linspace(0.0, 2.0 * np.pi, 361)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    feats = np.stack([e1, e2])
    dist_sq = 1.0 - (dirs @ feats.T) ** 2  # (n_dirs, 2)
    brute = float(dist_sq.max(axis=1).min())
    assert abs(brute - 0.5) <= 2e-3
    assert time.perf_counter() - t0 < 1.0


def test_solved_instances_keep_eigenvalue_floor(planted_solutions):
    # ascending eigenvalues: entry 2k-1 (0-based) is the (2k)-th smallest
    for _, _, sol, _, feats in planted_solutions:
        lam = np.linalg.eigvalsh(dense_solution_X(feats, sol.k, sol.Xr))
        assert lam[2 * PLANTED_K - 1] >= 0.5 - 1e-4
    axes = [np.eye(3)[0], np.eye(3)[1]]
    two_axes = solve_refinement_sdp(axes, k=1)
    lam = np.linalg.eigvalsh(dense_solution_X(axes, two_axes.k, two_axes.Xr))
    assert lam[1] >= 0.5 - 1e-4


def test_lifelong_protocol_dims_accuracy_and_angle_advantage():
    t0 = time.perf_counter()
    base = dict(d=100, k=5, m=100, N=200, epsilon=0.1, seed=0)
    basic = run_trials(RunConfig(mode="basic", **base), trials=10, jobs=4)
    rr = run_trials(RunConfig(mode="rr", **base), trials=10, jobs=4)
    # the offline baseline leg
    run_trials(RunConfig(mode="joint", **base), trials=10, jobs=4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    assert all(int(r.feature_dim_curve[-1]) <= 9 for r in rr)
    assert all(len(r.new_feature_events) <= 15 for r in basic)
    for r in (*basic, *rr):  # oracle-checked lifelong runs
        assert float(r.accuracy_curve[-1]) >= 0.90
        assert float(r.min_accuracy_curve[-1]) >= 0.90
    wins = sum(
        1 for b, r in zip(basic, rr) if r.angle_curve[-1] < b.angle_curve[-1]
    )
    assert wins >= 7


def _mean_samples_total(**kwargs):
    reports = run_trials(RunConfig(mode="basic", seed=0, **kwargs), trials=12, jobs=4)
    return float(np.mean([r.samples_total for r in reports]))


def test_total_samples_scale_linearly_in_dimension():
    grid = (50, 100, 200)
    means = [_mean_samples_total(d=d, k=5, m=100, epsilon=0.1) for d in grid]
    slope, intercept = np.polyfit(grid, means, 1)
    pred = slope * np.asarray(grid) + intercept
    resid = np.asarray(means) - pred
    centered = np.asarray(means) - np.mean(means)
    r2 = 1.0 - float(resid @ resid) / float(centered @ centered)
    assert r2 >= 0.98
    assert slope > 0.0


def test_total_samples_scale_inversely_in_epsilon():
    grid = (0.2, 0.1, 0.05)
    means = [_mean_samples_total(d=100, k=5, m=100, epsilon=e) for e in grid]
    for lo, hi in zip(means, means[1:]):
        ratio = hi / lo  # epsilon halves between adjacent points
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


def test_adversarial_angle_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 17))
        eps = rng.uniform(0.1, 1.0, size=k)
        eps *= rng.uniform(0.05, 0.49) / np.linalg.norm(eps)
        expected = math.atan(float(np.linalg.norm(eps)))
        assert abs(adversarial_subspace_angle(eps) - expected) <= 1e-6


def test_new_task_angle_exceedance_at_scale():
    k = 256
    instance = build_instance(k, 0, 7, [0.01] * k)
    stats = new_task_angle_stats(instance, trials=10_000)
    assert stats.fraction_exceeding >= 0.86


def test_empirical_exceedance_matches_exhaustive_enumeration():
    eps = [0.04] * 4 + [0.005] * 12  # uneven but balanced split over k=16
    instance = build_instance(16, 0, 11, eps)
    empirical = new_task_angle_stats(instance, trials=10_000)
    exhaustive = exhaustive_angle_stats(instance)
    assert abs(
        empirical.fraction_exceeding - exhaustive.fraction_exceeding
    ) <= 0.05


def test_balanced_subset_postconditions_hold():
    rng = np.random.default_rng(42)
    p, C = 1.0 / 3.0, math.sqrt(2.0)
    for case in range(1000):
        k = int(rng.integers(3, 65))
        b = rng.uniform(1.3, 1.8, size=k)
        if case % 3 == 0 and k >= 20:
            j = int(rng.integers(1, 3))
            b[:j] = rng.uniform(4.0, 8.0, size=j)  # outliers the filter must drop
        if np.any(b < b.mean() / C):
            b = rng.uniform(1.3, 1.8, size=k)  # keep the input hypothesis valid
        report = find_balanced_subset(b, p, C)
        assert len(report.S) >= math.ceil(2 * k / 3)
        assert report.iterations <= k
        kept = b[list(report.S)]
        rms = math.sqrt(float(np.mean(kept**2)))
        assert np.all(kept <= report.gamma * rms + 1e-9)


def _compositions(total, parts):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield np.diff((0, *cuts, total))


def test_uniform_allocation_minimizes_basis_cost():
    d, eps = 100, 0.1
    for k in range(1, 9):
        grid_total = 2 * k  # integer grid on the squared-allocation simplex
        uniform_cost = allocation_cost(d, k, [eps / math.sqrt(k)] * k, eps, 0)[0]
        best = math.inf
        for weights in _compositions(grid_total, k):
            alloc = eps * np.sqrt(np.asarray(weights) / grid_total)
            best = min(best, allocation_cost(d, k, alloc, eps, 0)[0])
        assert best >= uniform_cost * (1.0 - 1e-6)
        assert math.isclose(uniform_cost, d * k**1.5 / eps, rel_tol=1e-12)


def test_geometry_property_suite():
    t0 = time.perf_counter()

    rng = np.random.default_rng(42)
    for _ in range(425):  # projection orthogonality, Pythagoras, idempotence
        d = int(rng.integers(2, 21))
        r = int(rng.integers(1, d + 1))
        S = orthonormalize(list(rng.standard_normal((r, d))))
        x = rng.standard_normal(d)
        px = project(x, S)
        residual = x - px
        assert abs(float(px @ residual)) <= 1e-8
        dist = dist_to_subspace(x, S)
        assert abs(float(x @ x) - float(px @ px) - dist * dist) <= 1e-8
        assert np.linalg.norm(project(px, S) - px) <= 1e-8

    rng = np.random.default_rng(7)
    for _ in range(425):  # principal angles do not depend on the chosen basis
        d = int(rng.integers(3, 16))
        rf = int(rng.integers(1, d))
        rg = int(rng.integers(1, d))
        F = orthonormalize(list(rng.standard_normal((rf, d))))
        G = orthonormalize(list(rng.standard_normal((rg, d))))
        QF = np.linalg.qr(rng.standard_normal((rf, rf)))[0]
        QG = np.linalg.qr(rng.standard_normal((rg, rg)))[0]
        a1 = principal_angles(F, G)
        a2 = principal_angles(Subspace(F.basis @ QF), Subspace(G.basis @ QG))
        assert np.allclose(a1, a2, atol=1e-8)

    rng = np.random.default_rng(123)
    n = 1_000_000
    for i in range(150):  # Monte Carlo disagreement against the closed form
        d = int(rng.integers(2, 6))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        p = disagreement_exact(u, v)
        p_hat = disagreement_mc(u, v, n, seed=9000 + i)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        assert abs(p_hat - p) <= 3.0 * sigma

    assert time.perf_counter() - t0 < 30.0
