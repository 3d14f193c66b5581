"""Representation refinement: fit one low-dimensional subspace near all features.

The core problem: given unit feature vectors w_1..w_n, find a subspace V'
of small dimension with max_i dist(w_i, V') small. Its natural relaxation
is the SDP

    minimize   max_i  w_i' X w_i
    over       0 <= X <= I,  trace(X) = d - k,

whose optimal value t* lower-bounds the best achievable squared distance
for k dimensions, and whose solution rounds spectrally to at most 2k-1
dimensions with squared distances <= 2 t*.

The solver is a saddle-point multiplicative-weights scheme: the max player
runs MWU over the n constraints; the min player best-responds with the
projector onto the d-k smallest eigenvectors of M(p) = sum_i p_i w_i w_i'.
Averaged best responses stay feasible by convexity, and averaged duals
certify the gap. Everything happens in the span of the features (dimension
r = rank(W)), which is exact: any feasible ambient X restricts to a
feasible reduced one with the same constraint values, and a reduced
solution extends by the identity on the orthogonal complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Subspace, orthonormalize

DEFAULT_TOL = 1e-4
_FEAS_TOL = 1e-6
_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SdpSolution:
    """Feasible approximate solution of the refinement SDP."""

    X: np.ndarray  # (d, d) symmetric, 0 <= X <= I, trace d - k
    t: float  # achieved value max_i w_i' X w_i
    weights: np.ndarray  # final averaged constraint weights (probability vector)
    iterations: int
    gap: float  # certified optimality gap: t - best dual value
    converged: bool  # gap <= tol
    k: int
    checkpoints: tuple  # (iteration, primal_best, dual_best, gap) rows

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        d = X.shape[0]
        if X.shape != (d, d) or not np.allclose(X, X.T, atol=1e-9):
            raise ValueError("X must be square symmetric")
        eig = np.linalg.eigvalsh(X)
        if eig[0] < -_FEAS_TOL or eig[-1] > 1.0 + _FEAS_TOL:
            raise ValueError(f"eigenvalues outside [0, 1]: [{eig[0]}, {eig[-1]}]")
        if abs(float(np.trace(X)) - (d - self.k)) > _FEAS_TOL:
            raise ValueError("trace(X) != d - k")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")


@dataclass(frozen=True)
class RefinementCertificate:
    """What the rounding achieved and what the solver value promises."""

    max_distance: float
    dims: int
    approx_bound: float

    def __post_init__(self):
        # 1e-9 absolute slack: exact-realizability cases have bound 0 and
        # eigendecomposition-level residual distances
        if self.max_distance > self.approx_bound + 1e-9:
            raise ValueError(
                f"max_distance {self.max_distance} exceeds bound {self.approx_bound}"
            )


def _feature_matrix(W) -> np.ndarray:
    A = np.asarray([np.asarray(w, dtype=float).ravel() for w in W])
    if A.ndim != 2 or A.shape[0] == 0:
        raise ValueError("W must be a nonempty list of vectors")
    norms = np.linalg.norm(A, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("feature vectors must be unit norm")
    return A


def _complete_basis(Q: np.ndarray, extra: int) -> np.ndarray:
    """`extra` orthonormal columns orthogonal to the columns of Q."""
    d, r = Q.shape
    full = np.linalg.qr(np.hstack([Q, np.eye(d)]))[0]
    return full[:, r : r + extra]


def solve_refinement_sdp(
    W, k: int, max_iters: int | None = None, tol: float = DEFAULT_TOL
) -> SdpSolution:
    """Approximately solve the refinement SDP by saddle-point MWU.

    Returns the best averaged iterate with a certified duality gap; if the
    gap does not reach `tol` within `max_iters` the solution is still
    feasible and `converged` is False.
    """
    A = _feature_matrix(W)
    n, d = A.shape
    if not (1 <= k < d):
        raise ValueError(f"need 1 <= k < d, got k={k}, d={d}")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")

    span = orthonormalize(list(A))
    Q = span.basis  # (d, r)
    r = span.dim

    if r <= k:
        # every feasible direction of slack lies outside span(W): the exact
        # optimum is t = 0 with X the identity on a (d-k)-dim complement
        extra = _complete_basis(Q, k - r)
        P = Q @ Q.T + (extra @ extra.T if extra.shape[1] else 0.0)
        X = np.eye(d) - P
        return SdpSolution(
            X=0.5 * (X + X.T),
            t=0.0,
            weights=np.full(n, 1.0 / n),
            iterations=0,
            gap=0.0,
            converged=True,
            k=k,
            checkpoints=((0, 0.0, 0.0, 0.0),),
        )

    Wt = A @ Q  # (n, r) unit rows spanning R^r
    if max_iters is None:
        max_iters = math.ceil(2000.0 * math.log(max(n, 2)))
    eta = math.sqrt(math.log(max(n, 2)) / max_iters)

    log_w = np.zeros(n)
    sum_X = np.zeros((r, r))
    sum_v = np.zeros(n)
    sum_p = np.zeros(n)
    best_primal = np.inf
    best_dual = -np.inf
    best_sum_X = sum_X
    best_count = 1
    checkpoints: list[tuple] = []
    stride = max(1, max_iters // 64)
    done = 0
    for it in range(1, max_iters + 1):
        done = it
        shifted = log_w - log_w.max()
        p = np.exp(shifted)
        p /= p.sum()
        sum_p += p
        M = Wt.T @ (p[:, None] * Wt)
        vals, vecs = np.linalg.eigh(M)
        U = vecs[:, : r - k]  # best response: projector onto r-k smallest
        dual = float(vals[: r - k].sum())
        best_dual = max(best_dual, dual)
        WU = Wt @ U
        v = np.einsum("ij,ij->i", WU, WU)
        sum_v += v
        sum_X += U @ U.T
        primal = float(sum_v.max()) / it
        if primal < best_primal:
            best_primal = primal
            best_sum_X = sum_X.copy()
            best_count = it
        gap = best_primal - best_dual
        if it % stride == 0 or gap <= tol:
            checkpoints.append((it, best_primal, best_dual, max(gap, 0.0)))
        if gap <= tol:
            break
        log_w += eta * v

    # the averaged weights usually certify a much tighter dual value
    p_bar = sum_p / done
    M = Wt.T @ (p_bar[:, None] * Wt)
    best_dual = max(best_dual, float(np.linalg.eigvalsh(M)[: r - k].sum()))

    Xr = best_sum_X / best_count
    Xr = 0.5 * (Xr + Xr.T)
    t_val = float(np.einsum("ij,jk,ik->i", Wt, Xr, Wt).max())
    gap = max(0.0, t_val - best_dual)
    checkpoints.append((done, t_val, best_dual, gap))

    X = Q @ Xr @ Q.T + (np.eye(d) - Q @ Q.T)
    return SdpSolution(
        X=0.5 * (X + X.T),
        t=t_val,
        weights=p_bar,
        iterations=done,
        gap=gap,
        converged=bool(gap <= tol),
        k=k,
        checkpoints=tuple(checkpoints),
    )


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector signs: first non-negligible entry positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
    return out


def round_sdp(sol: SdpSolution, k: int, c: int = 2, trim: bool = True) -> Subspace:
    """Spectral rounding: span of the small-eigenvalue eigenvectors of X.

    The plain rule keeps c*k - 1 dimensions. With `trim`, trailing
    eigenvectors whose eigenvalue is already >= 1/2 are dropped (floored at
    k dimensions): any cut whose next eigenvalue is >= 1/2 preserves the
    distance guarantee dist^2 <= 2 * value, and the trimmed subspace is
    usually exactly k-dimensional on well-posed instances.
    """
    if int(c) != c or c < 2:
        raise ValueError("c must be an integer >= 2")
    d = sol.X.shape[0]
    vals, vecs = np.linalg.eigh(sol.X)
    vecs = _fix_signs(vecs)
    cap = min(int(c) * k - 1, d)
    if trim:
        below = int(np.count_nonzero(vals < 0.5))
        dims = min(max(below, k), cap)
    else:
        dims = cap
    return Subspace(basis=vecs[:, :dims])


def _round_and_certify(
    A: np.ndarray, sol: SdpSolution, k: int, c: int, trim: bool, tol: float
) -> tuple:
    """Round the SDP solution and certify the rounded span against A's rows."""
    V = round_sdp(sol, k, c=c, trim=trim)
    B = V.basis
    resid = A.T - B @ (B.T @ A.T)
    cert = RefinementCertificate(
        max_distance=float(np.linalg.norm(resid, axis=0).max()),
        dims=V.dim,
        approx_bound=math.sqrt(2.0 * max(sol.t, 0.0)) * (1.0 + tol),
    )
    return V, cert


def refine(
    W,
    k: int,
    eps_acc: float,
    c: int = 2,
    tol: float = DEFAULT_TOL,
    max_iters: int | None = None,
    trim: bool = True,
    full_output: bool = False,
):
    """Solve + round: returns (subspace, certificate).

    When some k-dim subspace within eps_acc of every feature exists, the
    SDP value satisfies t <= eps_acc^2 + gap and the certificate bound
    sqrt(2 t) (1 + tol) caps the rounded max distance. With `full_output`
    the SdpSolution is returned as a third element.
    """
    if eps_acc <= 0.0:
        raise ValueError("eps_acc must be positive")
    A = _feature_matrix(W)
    rank = orthonormalize(list(A)).dim
    k_eff = min(k, rank)
    sol = solve_refinement_sdp(list(A), k_eff, max_iters=max_iters, tol=tol)
    V, cert = _round_and_certify(A, sol, k_eff, c, trim, tol)
    if full_output:
        return V, cert, sol
    return V, cert


def refine_auto(
    W,
    eps_acc: float,
    c: int = 2,
    tol: float = DEFAULT_TOL,
    max_iters: int | None = None,
    trim: bool = True,
):
    """Increment k until the SDP value certifies a fit within eps_acc.

    Returns (subspace, certificate, k_used). No optimality guarantee on
    k_used; it is the smallest k whose solved value drops to eps_acc^2.
    """
    if eps_acc <= 0.0:
        raise ValueError("eps_acc must be positive")
    A = _feature_matrix(W)
    d = A.shape[1]
    rank = orthonormalize(list(A)).dim
    top = min(rank, d - 1)
    for k in range(1, top + 1):
        sol = solve_refinement_sdp(list(A), k, max_iters=max_iters, tol=tol)
        if sol.t <= eps_acc * eps_acc or k == top:
            V, cert = _round_and_certify(A, sol, k, c, trim, tol)
            return V, cert, k
    raise AssertionError("unreachable")


def dump_solution(sol: SdpSolution, path) -> None:
    """Text dump of (t, gap, weights, checkpoints, X) for debugging."""
    with open(path, "w") as fh:
        fh.write(
            f"t {sol.t:.17g}\ngap {sol.gap:.17g}\niterations {sol.iterations}\n"
            f"converged {int(sol.converged)}\nk {sol.k}\n"
        )
        fh.write("weights " + " ".join(f"{w:.17g}" for w in sol.weights) + "\n")
        for row in sol.checkpoints:
            fh.write(
                f"checkpoint {row[0]} {row[1]:.17g} {row[2]:.17g} {row[3]:.17g}\n"
            )
        for row in sol.X:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def _sphere_grid(d: int, grid: int) -> np.ndarray:
    """Deterministic near-uniform unit vectors in R^d (d <= 4)."""
    if d == 1:
        return np.array([[1.0]])
    if d == 2:
        theta = np.pi * np.arange(grid * grid) / (grid * grid)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        return _fibonacci_sphere(grid * grid)
    # d == 4: hyperspherical angle lattice
    t1 = np.pi * (np.arange(grid) + 0.5) / grid
    t2 = np.pi * (np.arange(grid) + 0.5) / grid
    t3 = np.pi * np.arange(grid) / grid  # hemisphere: antipodes are the same line
    T1, T2, T3 = np.meshgrid(t1, t2, t3, indexing="ij")
    s1, s2 = np.sin(T1), np.sin(T2)
    pts = np.column_stack(
        [
            np.cos(T1).ravel(),
            (s1 * np.cos(T2)).ravel(),
            (s1 * s2 * np.cos(T3)).ravel(),
            (s1 * s2 * np.sin(T3)).ravel(),
        ]
    )
    return pts


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + math.sqrt(5.0)) * i
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def _best_line(A: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, float]:
    best_val = np.inf
    best_v = cand[0]
    for s in range(0, cand.shape[0], 500_000):
        chunk = cand[s : s + 500_000]
        val = np.max(1.0 - (chunk @ A.T) ** 2, axis=1)
        j = int(np.argmin(val))
        if val[j] < best_val:
            best_val = float(val[j])
            best_v = chunk[j]
    return best_v, math.sqrt(max(best_val, 0.0))


# antisymmetric basis pairs for the plane parametrization in R^4: a 2-plane
# is -omega^2 for omega = sum x+_i S_i + sum x-_i A_i with unit x+, x-
def _wedge_bases() -> tuple[list[np.ndarray], list[np.ndarray]]:
    def E(i, j):
        M = np.zeros((4, 4))
        M[i, j], M[j, i] = 1.0, -1.0
        return M

    S = [(E(0, 1) + E(2, 3)) / 2, (E(0, 2) - E(1, 3)) / 2, (E(0, 3) + E(1, 2)) / 2]
    A = [(E(0, 1) - E(2, 3)) / 2, (E(0, 2) + E(1, 3)) / 2, (E(0, 3) - E(1, 2)) / 2]
    return S, A


def _plane_from_spheres(xp: np.ndarray, xm: np.ndarray) -> np.ndarray:
    S, A = _wedge_bases()
    om = sum(xp[i] * S[i] for i in range(3)) + sum(xm[i] * A[i] for i in range(3))
    P = -om @ om
    if abs(np.trace(P) - 2.0) > 1e-9:  # parametrization sanity
        raise AssertionError("plane parametrization broke")
    return P


def brute_force_refine(W, target_dim: int, grid: int = 400):
    """Exhaustive grid oracle for the subspace-fitting problem at tiny scale.

    Searches a deterministic grid (plus the inputs themselves and their
    pairwise spans, so exactly realizable optima come out exact) and
    returns (subspace, max_distance). Only d <= 4 and target_dim <= 2.
    """
    A = _feature_matrix(W)
    n, d = A.shape
    if d > 4:
        raise ValueError("brute force supports d <= 4 only")
    if target_dim not in (1, 2):
        raise ValueError("brute force supports target_dim in {1, 2} only")
    if target_dim > d:
        raise ValueError("target_dim exceeds the ambient dimension")
    if grid < 2:
        raise ValueError("grid too small")

    if target_dim == d:
        return Subspace(basis=np.eye(d)), 0.0

    if target_dim == 1:
        # the R^4 line lattice has grid^3 candidates; cap to bound memory
        eff = min(grid, 150) if d == 4 else grid
        cand = np.vstack([_sphere_grid(d, eff), A])
        v, dist = _best_line(A, cand)
        return Subspace(basis=v.reshape(-1, 1)), dist

    if d == 3:
        # planes in R^3 are complements of their normals
        normals = _sphere_grid(3, grid)
        extra = [
            np.cross(A[i], A[j]) for i in range(n) for j in range(i + 1, n)
        ]
        extra = [e / np.linalg.norm(e) for e in extra if np.linalg.norm(e) > 1e-12]
        if extra:
            normals = np.vstack([normals, extra])
        best_val = np.inf
        best_n = normals[0]
        for s in range(0, normals.shape[0], 500_000):
            chunk = normals[s : s + 500_000]
            val = np.max(np.abs(chunk @ A.T), axis=1)
            j = int(np.argmin(val))
            if val[j] < best_val:
                best_val = float(val[j])
                best_n = chunk[j]
        basis = _complete_basis(best_n.reshape(-1, 1), 2)
        return Subspace(basis=basis), best_val

    # d == 4: double-sphere sweep over the Grassmannian of 2-planes
    S, Abasis = _wedge_bases()
    sphere = _fibonacci_sphere(grid)
    SW = np.stack([s @ A.T for s in S])  # (3, 4, n)
    AW = np.stack([a @ A.T for a in Abasis])
    U = np.einsum("pi,iaj->paj", sphere, SW)  # (N, 4, n)
    V = np.einsum("qi,iaj->qaj", sphere, AW)
    un = np.einsum("paj,paj->pj", U, U)
    vn = np.einsum("qaj,qaj->qj", V, V)
    best_val = np.inf
    best_pair = (sphere[0], sphere[0])
    for p in range(sphere.shape[0]):
        cross = 2.0 * np.einsum("aj,qaj->qj", U[p], V)
        val = np.max(1.0 - (un[p][None, :] + vn + cross), axis=1)
        q = int(np.argmin(val))
        if val[q] < best_val:
            best_val = float(val[q])
            best_pair = (sphere[p], sphere[q])
    # exact pairwise spans as extra candidates
    best_P = _plane_from_spheres(*best_pair)
    for i in range(n):
        for j in range(i + 1, n):
            span = orthonormalize([A[i], A[j]])
            if span.dim < 2:
                continue
            B = span.basis
            val = float(np.max(1.0 - np.einsum("ij,ij->j", B.T @ A.T, B.T @ A.T)))
            if val < best_val:
                best_val = val
                best_P = B @ B.T
    vals, vecs = np.linalg.eigh(best_P)
    basis = _fix_signs(vecs[:, -2:])
    return Subspace(basis=basis), math.sqrt(max(best_val, 0.0))
