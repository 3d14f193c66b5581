import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from lllsim.geometry import Subspace, orthonormalize, principal_angles
from lllsim.refinement import (
    DEFAULT_TOL,
    RefinementCertificate,
    SdpSolution,
    _mirror_prox_step,
    _normalize_logs,
    _project,
    dump_solution,
    refine,
    round_sdp,
    solve_refinement_sdp,
)
from oracle import (
    brute_force_refine,
    dense_round_sdp,
    dense_solution_X,
    dist_to_subspace,
    project_by_bisection,
)

E = np.eye(5)


def _planted_features(rng, d, k, n, eps):
    """Unit vectors at tangential distance eps/sqrt(1+eps^2) from a random
    k-dim subspace; the subspace complement is feasible with value <= eps^2."""
    B = np.linalg.qr(rng.standard_normal((d, k)))[0]
    W = []
    for _ in range(n):
        c = rng.standard_normal(k)
        v = B @ (c / np.linalg.norm(c))
        delta = rng.standard_normal(d)
        delta -= (delta @ v) * v
        delta *= eps / np.linalg.norm(delta)
        w = v + delta
        W.append(w / np.linalg.norm(w))
    return W, B


def test_solver_coordinate_features_exact():
    W = [np.eye(5)[0], np.eye(5)[1]]
    sol = solve_refinement_sdp(W, k=2)
    assert sol.t == 0.0
    assert sol.gap == 0.0
    assert sol.converged
    assert sol.iterations == 0
    X = dense_solution_X(W, sol.k, sol.Xr)
    assert np.allclose(X, np.diag([0.0, 0.0, 1.0, 1.0, 1.0]), atol=1e-12)


def test_solver_two_features_one_dim_saddle():
    # two orthogonal features, one dimension to keep: value 1/2 at X = I/2
    W = [np.eye(3)[0], np.eye(3)[1]]
    sol = solve_refinement_sdp(W, k=1)
    assert sol.t == pytest.approx(0.5, abs=1e-6)
    assert sol.gap <= 1e-4
    assert sol.converged
    X = dense_solution_X(W, sol.k, sol.Xr)
    assert X[2, 2] == pytest.approx(1.0, abs=1e-9)
    assert X[0, 0] + X[1, 1] == pytest.approx(1.0, abs=1e-9)


def test_solver_three_axes_symmetric_value():
    W = [np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    sol = solve_refinement_sdp(W, k=1)
    assert sol.t == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert sol.converged
    assert sol.iterations <= 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solver_near_planted_reaches_default_tol(seed, near_planted_rows):
    # a rank-3 span plus small noise is PCA with a perturbation: the default
    # budget must reach the default tolerance, and quickly
    sol = solve_refinement_sdp(near_planted_rows(seed), 3)
    assert sol.converged
    assert sol.iterations <= 100


@pytest.mark.parametrize("d, k", [(3, 1), (3, 2), (5, 2), (7, 3), (10, 1), (10, 4)])
def test_solver_coordinate_axes_known_optimum(d, k):
    # t* = (d - k) / d: X = (d - k)/d * I is feasible at that value, and the
    # uniform-weight dual, the sum of the d - k smallest eigenvalues of I / d,
    # reaches it; the certified lower bound t - gap can never pass it
    t_star = (d - k) / d
    sol = solve_refinement_sdp(list(np.eye(d)), k=k)
    assert sol.converged
    assert sol.t == pytest.approx(t_star, abs=DEFAULT_TOL)
    assert t_star - DEFAULT_TOL <= sol.t - sol.gap <= t_star + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_gaussian_instance_pinned_budget(seed):
    # 100 unit Gaussian rows in R^30, k=3: the budget of 2000 sits below the
    # ~6-8k iterations Hedge at a fixed worst-case step sqrt(ln n / T)
    # needed here, and far above the 34-39 mirror-prox steps
    W = np.random.default_rng(seed).standard_normal((100, 30))
    W /= np.linalg.norm(W, axis=1)[:, None]
    sol = solve_refinement_sdp(W, k=3, max_iters=2000, tol=5e-3)
    assert sol.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_stops_on_averaged_dual(seed):
    # same instances, default budget: they stop at 39/38/34 iterations,
    # step 1 included, once the gap certified by the averaged weights (or
    # a half step's) meets tol; the bound leaves about 50% margin
    W = np.random.default_rng(seed).standard_normal((100, 30))
    W /= np.linalg.norm(W, axis=1)[:, None]
    sol = solve_refinement_sdp(W, k=3, tol=5e-3)
    assert sol.converged
    assert sol.iterations <= 60


def test_solver_gaussian_instance_reaches_1e_3():
    # seed 0 at tol 1e-3: 66 iterations of the default budget of 2303
    W = _unit_rows(0, 100, 30)
    sol = solve_refinement_sdp(W, k=3, tol=1e-3)
    assert sol.converged and sol.gap <= 1e-3
    eig = np.linalg.eigvalsh(sol.Xr)
    assert eig[0] >= -1e-9 and eig[-1] <= 1.0 + 1e-9
    assert np.trace(sol.Xr) == pytest.approx(30 - 3, abs=1e-9)
    values = np.einsum("ij,jk,ik->i", W, dense_solution_X(W, sol.k, sol.Xr), W)
    assert sol.t == pytest.approx(values.max(), abs=1e-12)


def test_solver_gaussian_instance_reaches_the_default_tol():
    # seed 0 at the default tol 1e-4: 148 iterations of the budget of 2303,
    # so `lllsim refine --k 3` on these rows exits 0, not 4
    W = _unit_rows(0, 100, 30)
    sol = solve_refinement_sdp(W, k=3)
    assert sol.converged and sol.gap <= DEFAULT_TOL
    assert sol.iterations <= 300


@pytest.mark.parametrize("r, s", [(2, 1), (5, 2), (12, 9), (30, 27)])
def test_projection_onto_the_feasible_set(r, s):
    # the projection of a symmetric Y is the nearest X with 0 <= X <= I and
    # trace s; over that set, the convex hull of the rank-s projectors,
    # max_Z <Y - P, Z> is the sum of the s largest eigenvalues of Y - P (Ky
    # Fan), so the variational inequality <Y - P, Z - P> <= 0 for every
    # feasible Z is one eigenvalue check
    rng = np.random.default_rng(r)
    for scale in (0.1, 1.0, 10.0):
        G = scale * rng.standard_normal((r, r))
        Y = 0.5 * (G + G.T)
        P = _project(Y, s)
        eig = np.linalg.eigvalsh(P)
        assert eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12
        assert np.trace(P) == pytest.approx(s, abs=1e-12)
        assert np.allclose(P, project_by_bisection(Y, s), rtol=0.0, atol=1e-9)
        R = Y - P
        assert np.linalg.eigvalsh(R)[-s:].sum() <= np.vdot(R, P) + 1e-9 * (1.0 + scale)
    # ties and points already inside: the centre stays put, any multiple of
    # the identity lands on it
    centre = np.eye(r) * (s / r)
    for Y in (centre, 7.0 * np.eye(r), -3.0 * np.eye(r)):
        assert np.allclose(_project(Y, s), centre, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_steps_up_to_1_pass_the_local_test(seed):
    # F is 1-Lipschitz for unit rows, so the solver accepts any step up to 1
    # without testing it; check that such steps do pass Nemirovski's test
    # from random feasible points, and that the test rejects large steps
    rng = np.random.default_rng(seed)
    n, r, s = 40, 8, 5
    Wt = rng.standard_normal((n, r))
    Wt /= np.linalg.norm(Wt, axis=1)[:, None]
    rejected = 0
    for _ in range(10):
        G = 3.0 * rng.standard_normal((r, r))
        X = _project(0.5 * (G + G.T), s)
        lq = _normalize_logs(3.0 * rng.standard_normal(n))
        Mz = Wt.T @ (np.exp(lq)[:, None] * Wt)
        vz = np.einsum("ij,jk,ik->i", Wt, X, Wt)
        q = np.exp(lq)
        for gamma in (1.0, 0.5, 0.1, 1e-3):
            Xw, lw, Mw, vw, Xn, ln, excess = _mirror_prox_step(
                Wt, X, lq, Mz, vz, gamma, s
            )
            assert excess <= 1e-12
            # the test's terms, from the definitions
            pw, pn = np.exp(lw), np.exp(ln)
            inner = np.sum((Mw - Mz) * (Xw - Xn)) + (vz - vw) @ (pw - pn)
            div_w = 0.5 * np.sum((Xw - X) ** 2) + pw @ np.log(pw / q)
            div_n = 0.5 * np.sum((Xn - Xw) ** 2) + pn @ np.log(pn / pw)
            assert excess == pytest.approx(gamma * inner - div_w - div_n, abs=1e-12)
        rejected += _mirror_prox_step(Wt, X, lq, Mz, vz, 64.0, s)[-1] > 0.0
    assert rejected > 0


def test_solver_feasibility_and_value_consistency():
    rng = np.random.default_rng(41)
    for trial in range(5):
        d = int(rng.integers(4, 12))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 3))
        W = [v / np.linalg.norm(v) for v in rng.standard_normal((n, d))]
        sol = solve_refinement_sdp(W, k=k, max_iters=400)
        X = dense_solution_X(W, sol.k, sol.Xr)
        eig = np.linalg.eigvalsh(X)
        assert eig[0] >= -1e-6 and eig[-1] <= 1.0 + 1e-6
        assert np.trace(X) == pytest.approx(d - k, abs=1e-6)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
        values = [w @ X @ w for w in W]
        assert sol.t == pytest.approx(max(values), abs=1e-12)
        # checkpointed gaps never increase
        gaps = [row[3] for row in sol.checkpoints]
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_solver_nonconvergence_flag():
    W = [np.eye(3)[0], np.eye(3)[1]]
    sol = solve_refinement_sdp(W, k=1, max_iters=1)
    assert np.array_equal(sol.weights, [0.5, 0.5])  # step 1 is uniform
    assert not sol.converged
    assert sol.gap > 0.4
    assert sol.t == pytest.approx(1.0, abs=1e-12)
    eig = np.linalg.eigvalsh(dense_solution_X(W, sol.k, sol.Xr))
    assert eig[0] >= -1e-6 and eig[-1] <= 1.0 + 1e-6


def test_solver_runs_out_its_default_budget_when_tol_is_out_of_reach():
    # tol 0 is out of reach on Gaussian rows: the solve stops unconverged
    # after exactly its default budget, ceil(500 ln n) = 1243 at n = 12
    W = _unit_rows(3, 12, 6)
    sol = solve_refinement_sdp(W, k=2, tol=0.0)
    assert sol.iterations == math.ceil(500 * math.log(12)) == 1243
    assert not sol.converged and sol.gap > 0.0
    assert sol.checkpoints[-1][0] == 1243


def test_solver_deterministic():
    rng = np.random.default_rng(5)
    W = [v / np.linalg.norm(v) for v in rng.standard_normal((6, 8))]
    a = solve_refinement_sdp(W, k=2, max_iters=300)
    b = solve_refinement_sdp(W, k=2, max_iters=300)
    assert np.array_equal(a.Q, b.Q) and np.array_equal(a.Xr, b.Xr)
    assert a.t == b.t and a.gap == b.gap


def test_solver_validates():
    with pytest.raises(ValueError):
        solve_refinement_sdp([], k=1)
    with pytest.raises(ValueError):
        solve_refinement_sdp([np.eye(3)[0]], k=3)
    with pytest.raises(ValueError):
        solve_refinement_sdp([2.0 * np.eye(3)[0]], k=1)
    with pytest.raises(ValueError):
        solve_refinement_sdp([np.eye(3)[0]], k=0)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        solve_refinement_sdp(list(np.eye(3)), k=1, max_iters=0)
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            solve_refinement_sdp(list(np.eye(3)), k=1, tol=bad)


def _unit_gaussian_rows(n: int, d: int, seed: int) -> np.ndarray:
    W = np.random.default_rng(seed).standard_normal((n, d))
    return W / np.linalg.norm(W, axis=1)[:, None]


def test_solver_given_span_is_its_own_gram_schmidt():
    # the benchmark's sdp_hard shape: 100 unit Gaussian rows in R^30, k = 3;
    # a span folded by the caller replaces the solver's Gram-Schmidt exactly
    W = _unit_gaussian_rows(100, 30, seed=0)
    own = solve_refinement_sdp(W, k=3, tol=5e-3)
    given = solve_refinement_sdp(W, k=3, tol=5e-3, span=orthonormalize(list(W)))
    assert own.iterations > 1
    for f in fields(SdpSolution):
        assert np.array_equal(getattr(own, f.name), getattr(given, f.name)), f.name


def test_solver_rejects_a_span_other_than_the_features_span():
    W = _unit_gaussian_rows(20, 6, seed=1)
    with pytest.raises(ValueError, match=r"span lives in R\^7, the features in R\^6"):
        solve_refinement_sdp(W, k=2, span=Subspace(basis=np.eye(7)[:, :6]))
    with pytest.raises(ValueError, match="span misses a feature"):
        solve_refinement_sdp(W, k=2, span=Subspace(basis=np.eye(6)[:, :5]))
    # one feature leaves span{e0, e1} by an angle whose cosine falls short
    # of 1 by 5e-9, past the 1e-9 allowed; rounding-level losses pass
    theta = 1e-4
    V = [E[0], E[1], math.cos(theta) * E[0] + math.sin(theta) * E[2]]
    plane = Subspace(basis=np.eye(5)[:, :2])
    with pytest.raises(ValueError, match="span misses a feature"):
        solve_refinement_sdp(V, k=1, span=plane)
    sol = solve_refinement_sdp(V[:2], k=1, span=plane)
    assert sol.Q is plane.basis
    # wider than span(W), so r would pass rank(W): an axis no feature
    # fills, more axes than features, and the span of five rows given with four
    wider = Subspace(basis=np.eye(5)[:, :3])
    for feats, span in [
        (V[:2] + [(E[0] + E[1]) / math.sqrt(2.0)], wider),
        (V[:2], wider),
        (W[:4], orthonormalize(list(W[:5]))),
    ]:
        with pytest.raises(ValueError, match="span has a direction no feature fills"):
            solve_refinement_sdp(feats, k=1, span=span)
    assert solve_refinement_sdp(W[:4], k=2, span=orthonormalize(list(W[:4]))).converged


def _manual_solution(eigvals, k):
    eigvals = np.asarray(eigvals, dtype=float)
    X = np.diag(eigvals)
    return SdpSolution(
        Q=np.eye(eigvals.size),
        Xr=X,
        t=float(eigvals.max()),
        weights=np.array([1.0]),
        iterations=1,
        gap=0.0,
        converged=True,
        k=k,
        checkpoints=((1, float(eigvals.max()), float(eigvals.max()), 0.0),),
    )


def test_round_zero_block():
    sol = _manual_solution([0.0, 1.0, 1.0, 1.0], k=1)
    V = round_sdp(sol)
    assert V.dim == 1
    assert np.allclose(np.abs(V.basis[:, 0]), np.eye(4)[0], atol=1e-12)


def test_round_trim_vs_plain():
    # trace 4 = d - k with d=6, k=2. With two eigenvalues below 1/2 the cut
    # keeps 2 columns, fewer than the plain rule's 2k - 1 = 3; with three
    # below 1/2 it keeps all 3, as many as X can have
    sol = _manual_solution([0.2, 0.4, 0.6, 0.8, 1.0, 1.0], k=2)
    trimmed = round_sdp(sol)
    assert trimmed.dim == 2
    assert np.allclose(np.abs(trimmed.basis), np.eye(6)[:, :2], atol=1e-12)
    sol = _manual_solution([0.3, 0.4, 0.45, 0.95, 0.95, 0.95], k=2)
    plain = round_sdp(sol)
    assert plain.dim == 3
    for V in (trimmed, plain):
        assert np.allclose(V.basis.T @ V.basis, np.eye(V.dim), atol=1e-10)


def test_round_floor_at_k():
    # no eigenvalue below 1/2: the rounding still returns k dimensions
    sol = _manual_solution([0.5, 0.5, 1.0], k=1)
    assert round_sdp(sol).dim == 1


def test_round_sign_convention():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    lam = np.array([0.1, 0.3, 0.7, 0.9, 1.0, 1.0])  # trace 4 = d - k for k=2
    X = Q @ np.diag(lam) @ Q.T
    sol = SdpSolution(
        Q=np.eye(6),
        Xr=0.5 * (X + X.T),
        t=1.0,
        weights=np.array([1.0]),
        iterations=1,
        gap=0.0,
        converged=True,
        k=2,
        checkpoints=((1, 1.0, 1.0, 0.0),),
    )
    V = round_sdp(sol)
    assert V.dim == 2
    for j in range(V.dim):
        col = V.basis[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        assert col[nz[0]] > 0.0


def _unit_rows(seed, n, d):
    W = np.random.default_rng(seed).standard_normal((n, d))
    return W / np.linalg.norm(W, axis=1)[:, None]


def _factored_and_dense(W, sol):
    """Round sol both ways after checking sol.Q against the Gram-Schmidt basis."""
    assert np.array_equal(sol.Q, orthonormalize(list(W)).basis)
    X = dense_solution_X(W, sol.k, sol.Xr)
    V = round_sdp(sol)
    D = dense_round_sdp(X, sol.k)
    assert V.dim == D.dim
    return V, D


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_factored_rounding_matches_dense_near_planted(seed, near_planted_rows):
    W = near_planted_rows(seed)
    sol = solve_refinement_sdp(W, 3)
    V, D = _factored_and_dense(W, sol)
    assert principal_angles(V, D)[0] <= 1e-9


def test_factored_rounding_matches_dense_gaussian_rows():
    W = _unit_rows(0, 100, 30)
    sol = solve_refinement_sdp(W, k=3, tol=5e-3)
    V, D = _factored_and_dense(W, sol)
    assert principal_angles(V, D)[0] <= 1e-9


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 3)])
def test_factored_rounding_matches_dense_at_rank_up_to_k(n, k):
    # rank r <= k: the exact optimum t = 0, with k clamped to r = n
    W = _unit_rows(4, n, 6)
    sol = solve_refinement_sdp(W, k)
    assert sol.k == n and sol.Q.shape == (6, n) and sol.t == 0.0
    V, D = _factored_and_dense(W, sol)
    assert V.dim == sol.k
    assert principal_angles(V, D)[0] <= 1e-9


def test_refine_in_a_large_ambient_space_builds_no_d_by_d_matrix():
    # 9 unit features in R^2000: a single d x d float64 matrix is 32 MB, but
    # the work has the features' rank 9 and stays in their span
    W = _unit_rows(0, 9, 2000)
    tracemalloc.start()
    try:
        V, cert = refine(W, k=5, eps_acc=0.1, tol=5e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert V.ambient_dim == 2000 and V.dim <= 9
    assert peak < 8e6


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_completion_past_the_rank_builds_no_d_by_d_matrix():
    # [e0, e1] in R^2000 at k = 3 > rank 2: completing span(Q) by a QR of
    # [Q, I] peaked at 132 MB; the solver clamps k to the rank instead of
    # completing, and the rounding stays in span(Q)
    W = [np.eye(1, 2000, 0)[0], np.eye(1, 2000, 1)[0]]
    sol, peak = _peak_bytes(lambda: solve_refinement_sdp(W, k=3))
    assert peak < 8e6
    assert sol.k == 2 and sol.Q.shape == (2000, 2) and sol.t == 0.0
    V, peak = _peak_bytes(lambda: round_sdp(sol))
    assert peak < 8e6
    assert principal_angles(V, Subspace(basis=sol.Q))[0] <= 1e-12


def test_refine_planted_certificate():
    rng = np.random.default_rng(101)
    eps = 0.05
    W, B = _planted_features(rng, d=30, k=3, n=20, eps=eps)
    V, cert = refine(W, k=3, eps_acc=eps)
    assert cert.dims <= 5
    assert cert.max_distance <= math.sqrt(2.0) * eps * 1.05
    assert cert.max_distance <= cert.approx_bound + 1e-9
    assert cert.max_distance == pytest.approx(
        max(dist_to_subspace(w, V) for w in W), abs=1e-12
    )


def test_refine_all_equal_features():
    w = np.array([3.0, 1.0, -2.0, 0.5])
    w /= np.linalg.norm(w)
    V, cert = refine([w, w, w, w], k=2, eps_acc=0.1)
    assert V.dim == 1
    assert cert.max_distance <= 1e-12
    assert abs(float(V.basis[:, 0] @ w)) == pytest.approx(1.0, abs=1e-12)


def test_refine_exactly_realizable():
    rng = np.random.default_rng(7)
    B = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    W = []
    for _ in range(6):
        c = rng.standard_normal(2)
        v = B @ (c / np.linalg.norm(c))
        W.append(v)
    V, cert = refine(W, k=2, eps_acc=0.01)
    assert V.dim == 2
    assert cert.max_distance <= 1e-5
    assert principal_angles(V, orthonormalize(list(B.T)))[0] <= 1e-6


def test_refine_full_output_gap():
    rng = np.random.default_rng(11)
    W, _ = _planted_features(rng, d=25, k=4, n=15, eps=0.03)
    V, cert, sol = refine(W, k=4, eps_acc=0.03, full_output=True)
    # the planted complement is feasible at eps^2, so the achieved value
    # exceeds it by at most the certified gap; the gap itself stays small
    assert sol.t <= 0.03**2 + sol.gap + 1e-9
    assert sol.gap <= 5e-3


def test_certificate_invariant_enforced():
    with pytest.raises(ValueError):
        RefinementCertificate(max_distance=0.5, dims=1, approx_bound=0.1)


def test_brute_force_two_axes_line():
    V, dist = brute_force_refine([np.eye(3)[0], np.eye(3)[1]], target_dim=1, grid=600)
    assert dist**2 == pytest.approx(0.5, abs=2e-3)
    v = V.basis[:, 0]
    diag1 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    diag2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert max(abs(v @ diag1), abs(v @ diag2)) >= 0.999


def test_brute_force_single_vector_exact():
    V, dist = brute_force_refine([np.eye(3)[0]], target_dim=1, grid=50)
    assert dist == 0.0
    assert abs(float(V.basis[:, 0] @ np.eye(3)[0])) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_plane_in_r3():
    # best plane against all three axes: normal (1,1,1)/sqrt(3), distance 1/sqrt(3)
    W = [np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    V, dist = brute_force_refine(W, target_dim=2, grid=400)
    assert dist == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-3)
    assert V.dim == 2


def test_brute_force_plane_in_r4_exact_pair():
    rng = np.random.default_rng(3)
    B = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    W = []
    for _ in range(5):
        c = rng.standard_normal(2)
        W.append(B @ (c / np.linalg.norm(c)))
    V, dist = brute_force_refine(W, target_dim=2, grid=80)
    assert dist <= 1e-10
    assert V.dim == 2


def test_brute_force_validates():
    with pytest.raises(ValueError):
        brute_force_refine([np.eye(5)[0]], target_dim=1)
    with pytest.raises(ValueError):
        brute_force_refine([np.eye(3)[0]], target_dim=3)


def test_relaxation_ordering_random_instances():
    rng = np.random.default_rng(59)
    for trial in range(5):
        W = [v / np.linalg.norm(v) for v in rng.standard_normal((4, 3))]
        sol = solve_refinement_sdp(W, k=1)
        _, dist = brute_force_refine(W, target_dim=1, grid=300)
        # combinatorial optimum squared sits between t and 2t, up to slack
        assert dist**2 >= sol.t - sol.gap - 1e-9
        assert dist**2 <= 2.0 * (sol.t + sol.gap) + 0.02
        # eigenvalue floor at position 2k
        lam = np.sort(np.linalg.eigvalsh(dense_solution_X(W, sol.k, sol.Xr)))
        assert lam[2 * 1 - 1] >= 0.5 - 1e-4 or len(lam) < 2


def test_dump_solution_roundtrippable_text(tmp_path):
    W = [np.eye(3)[0], np.eye(3)[1]]
    sol = solve_refinement_sdp(W, k=1)
    out = tmp_path / "sol.txt"
    dump_solution(sol, out)
    text = out.read_text().splitlines()
    assert text[0].startswith("t ")
    assert float(text[0].split()[1]) == sol.t
    assert any(line.startswith("checkpoint") for line in text)
    rows = {"Q": [], "Xr": []}
    for line in text:
        tag, *vals = line.split()
        if tag in rows:
            rows[tag].append([float(v) for v in vals])
    Q, Xr = np.array(rows["Q"]), np.array(rows["Xr"])
    assert Q.shape == (3, 2) and Xr.shape == (2, 2)
    X = Q @ Xr @ Q.T + (np.eye(3) - Q @ Q.T)
    assert np.allclose(X, dense_solution_X(W, sol.k, sol.Xr), rtol=0.0, atol=1e-12)
