"""Reference implementations the tests compare the package against.

`brute_force_refine` searches a deterministic grid of candidate subspaces
(d <= 4, target dimension <= 2) for the one whose largest feature distance
is smallest. The refinement tests compare the SDP solver against it.

`dense_solution_X` and `dense_round_sdp` build the refinement SDP's d x d
matrix X and round it with a d x d eigendecomposition, as the solver did
before it kept X factored. The refinement tests compare the factored
solution and its rounding against them.

`project_by_bisection` is the Frobenius projection onto the solver's
feasible set {0 <= X <= I, trace(X) = s}, with the eigenvalue shift found
by bisection. The refinement tests compare the solver's projection, which
finds the shift on the piecewise-linear eigenvalue sum, against it.

`gram_schmidt_loop` is the two-pass modified Gram-Schmidt over a whole
list in one loop, as `orthonormalize` ran before it became `extend` folded
over the list. The geometry tests compare the two bit for bit.

`polish_with_recounts` is the perceptron polish on the unsigned batch
(x, y) that recounts its mistakes after every epoch, each counted by
`mistakes` as (x @ w) * y <= 0. The learner tests compare `_polish`, which
fits the signed rows y*x, against it.

`draw_patterns_loop` draws the lower-bound harness's Bernoulli patterns one
row at a time, redrawing each all-zero row, as the harness did before it
drew them in blocks. The lower-bound tests compare `_draw_patterns` against
it bit for bit.

`adversarial_subspace_angle` is the largest principal angle between the
basis tasks' span and the span of the adversary's answers to them, computed
with `orthonormalize` and `principal_angles`. The lower-bound tests compare
it with the proof's closed form arctan(||eps||).

`exhaustive_angle_stats` is the harness's exceedance statistic taken over
every nonzero pattern on S, 2^|S| - 1 of them, for |S| <= `_EXHAUSTIVE_CAP`.
The tests compare it with the sampled statistic of `new_task_angle_stats`.

`adversarial_combination` is the adversary's answer to a combination task:
the task's nearest unit vector in the already learned span, so the span
never grows. The tests check that the answer stays in that span.

`find_balanced_subset` is the proof's filter that repeatedly drops entries
above gamma times the RMS of the survivors and reports the fixpoint as a
`SubsetReport`. The tests check the proof's guarantee that at least
(1 - p) k entries survive, and that every survivor stays under the cap.

`disagreement_mc` estimates the disagreement of two halfspaces from Gaussian
draws on the `NS_ORACLE` substream; the geometry suite compares the exact
angle formula against it. `project` and `dist_to_subspace` are the
orthogonal projection onto a subspace and the distance to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from lllsim.geometry import (
    DROP_TOL,
    Subspace,
    extend,
    orthonormalize,
    principal_angles,
)
from lllsim.learner import _POLISH_BLOCK, _POLISH_EPOCHS
from lllsim.lowerbound import (
    AngleStats,
    LowerBoundInstance,
    _adversarial_estimates,
    _exceedance,
    _tasks,
)
from lllsim.refinement import _feature_matrix, _fix_signs
from lllsim.synthetic import NS_ORACLE, rng_substream

_MC_CHUNK = 1 << 18
_EXHAUSTIVE_CAP = 18  # 2^18 patterns is the largest exhaustive sweep allowed


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


def _complete_basis(Q: np.ndarray, extra: int) -> np.ndarray:
    """`extra` columns orthonormal to Q's, from e_i taken smallest |Q'e_i| first."""
    d, r = Q.shape
    V = Subspace(basis=Q)
    for i in np.argsort(np.einsum("ij,ij->i", Q, Q), kind="stable"):
        if V.dim == r + extra:
            break
        V = extend(V, np.eye(1, d, i)[0])
    return V.basis[:, r:]


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


def dense_solution_X(W, k: int, Xr: np.ndarray) -> np.ndarray:
    """The solver's d x d X for features W, rank k and reduced solution Xr.

    Q is the orthonormal basis of span(W), of dimension r. For r <= k the
    optimum is X = I - P, with P the projector onto span(W) plus k - r
    complement columns (Xr is ignored); otherwise X = Q Xr Q' + (I - QQ').
    """
    A = _feature_matrix(W)
    d = A.shape[1]
    span = orthonormalize(list(A))
    Q = span.basis
    if span.dim <= k:
        extra = _complete_basis(Q, k - span.dim)
        P = Q @ Q.T + (extra @ extra.T if extra.shape[1] else 0.0)
        X = np.eye(d) - P
    else:
        X = Q @ Xr @ Q.T + (np.eye(d) - Q @ Q.T)
    return 0.5 * (X + X.T)


def project_by_bisection(Y: np.ndarray, s: int, steps: int = 200) -> np.ndarray:
    """Projection of symmetric Y onto {0 <= X <= I, trace(X) = s}, 0 < s < r.

    Keeps Y's eigenvectors and maps each eigenvalue lam to clip(lam - theta,
    0, 1), where theta is bisected until the clipped values sum to s.
    """
    lam, V = np.linalg.eigh(Y)
    lo, hi = float(lam.min()) - 1.0, float(lam.max())  # sums r and 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(lam - mid, 0.0, 1.0).sum() > s:
            lo = mid
        else:
            hi = mid
    return (V * np.clip(lam - 0.5 * (lo + hi), 0.0, 1.0)) @ V.T


def dense_round_sdp(X: np.ndarray, k: int) -> Subspace:
    """`round_sdp`'s rule on a d x d X through its full eigendecomposition."""
    vals, vecs = np.linalg.eigh(X)
    dims = min(max(int(np.count_nonzero(vals < 0.5)), k), 2 * k - 1)
    return Subspace(basis=_fix_signs(vecs)[:, :dims])


def gram_schmidt_loop(vectors, drop_tol: float = DROP_TOL) -> np.ndarray:
    """(d, r) orthonormal basis of the vectors' span by one loop over the list."""
    A = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    d = A.shape[0]
    cols: list[np.ndarray] = []
    for j in range(A.shape[1]):
        v = A[:, j].copy()
        scale = max(np.linalg.norm(v), 1.0)
        for _ in range(2):
            for q in cols:
                v -= np.dot(q, v) * q
        nrm = np.linalg.norm(v)
        if nrm > drop_tol * scale:
            cols.append(v / nrm)
        if len(cols) == d:
            break
    return np.column_stack(cols)


def mistakes(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> int:
    """Rows of the batch (x, y) that w misclassifies, ties included, in x's dtype."""
    y = y.astype(x.dtype)
    return int(np.count_nonzero((x @ w.astype(x.dtype)) * y <= 0.0))


def polish_with_recounts(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The perceptron polish that counts the batch's mistakes after every epoch.

    Reference for `lllsim.learner._polish`, which fits y*x and counts the
    mistakes from its own scans, recounting only when the epoch cap is
    reached; both must return the same vector bit for bit. The passes
    compute in x's dtype; a start that wins is returned as given.
    """
    n = y.size
    y = y.astype(x.dtype)
    best_w = w
    best_bad = mistakes(w, x, y)
    w = w.astype(x.dtype)
    for _ in range(_POLISH_EPOCHS):
        if best_bad == 0:
            break
        updated = False
        for lo in range(0, n, _POLISH_BLOCK):
            xb = x[lo : lo + _POLISH_BLOCK]
            yb = y[lo : lo + _POLISH_BLOCK]
            bad = (xb @ w) * yb <= 0.0
            if bad.any():
                w = w + yb[bad] @ xb[bad]
                updated = True
        if not updated:
            best_w, best_bad = w, 0
            break
        n_bad = mistakes(w, x, y)
        if n_bad < best_bad:
            best_w, best_bad = w, n_bad
    return best_w


def draw_patterns_loop(rng: np.random.Generator, n: int, k: int, cols) -> np.ndarray:
    """(n, k) Bernoulli(1/2) patterns on `cols`, drawn row by row, zeros redrawn."""
    patterns = np.zeros((n, k))
    for j in range(n):
        row = rng.integers(0, 2, size=len(cols))
        while not row.any():
            row = rng.integers(0, 2, size=len(cols))
        patterns[j, cols] = row
    return patterns


def adversarial_subspace_angle(eps_vector) -> float:
    """Largest principal angle the adversary can force on the basis tasks.

    Tilting each axis estimate by eps_i into the spare coordinate makes the
    learned span the graph of x -> <eps, x>, whose largest principal angle
    to the true span is arctan(||eps||).
    """
    eps = np.asarray(eps_vector, dtype=float).ravel()
    if eps.size == 0:
        raise ValueError("eps_vector must be nonempty")
    if np.any(eps < 0.0) or np.any(eps >= 0.5):
        raise ValueError("eps entries must lie in [0, 1/2)")
    V = orthonormalize(_adversarial_estimates(eps))
    U = orthonormalize(np.eye(eps.size, eps.size + 1))
    return float(principal_angles(V, U)[0])


def exhaustive_angle_stats(instance: LowerBoundInstance) -> AngleStats:
    """Same statistic over every nonzero pattern on S (small |S| only)."""
    s = len(instance.S)
    if s > _EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive enumeration capped at |S| <= {_EXHAUSTIVE_CAP}")
    patterns = np.zeros((2**s - 1, instance.k))
    patterns[:, list(instance.S)] = (np.arange(1, 2**s)[:, None] >> np.arange(s)) & 1
    return _exceedance(instance, patterns)


def adversarial_combination(instance: LowerBoundInstance, pattern) -> np.ndarray:
    """Adversarial answer for a combination task: the nearest unit vector
    inside the already-learned span, so the span never grows."""
    pattern = np.asarray(pattern, dtype=float).ravel()
    ok = pattern.shape == (instance.k,) and np.isin(pattern, (0.0, 1.0)).all()
    if not (ok and pattern.any()):
        raise ValueError("pattern must be a nonzero 0/1 vector of length k")
    a = _tasks(pattern[None, :])[0]
    B = instance.adversarial_span().basis
    proj = B @ (B.T @ a)
    nrm = np.linalg.norm(proj)
    if nrm == 0.0:
        raise ValueError("task orthogonal to the learned span")
    return proj / nrm


@dataclass(frozen=True)
class SubsetReport:
    S: tuple
    p: float
    C: float
    gamma: float
    iterations: int

    def __post_init__(self):
        if not (0.0 < self.p < 1.0) or self.C <= 1.0:
            raise ValueError("need 0 < p < 1 and C > 1")
        if len(self.S) == 0:
            raise ValueError("subset may not be empty")


def find_balanced_subset(b, p: float, C: float) -> SubsetReport:
    """Filter to a subset on which no entry exceeds gamma times the RMS.

    Repeatedly drops entries above gamma * RMS of the survivors, with
    gamma = sqrt((1/p) ln(C^2/(1-p))). For inputs satisfying b_i >= mean/C
    the fixpoint keeps at least (1-p) k entries.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size == 0 or np.any(b < 0.0):
        raise ValueError("b must be nonempty and nonnegative")
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    if C <= 1.0:
        raise ValueError("C must exceed 1")
    mean = float(b.mean())
    if np.any(b < mean / C - 1e-12):
        raise ValueError("hypothesis violated: some entry is below mean/C")
    gamma = math.sqrt((1.0 / p) * math.log(C * C / (1.0 - p)))
    S = list(range(b.size))
    iterations = 0
    while True:
        iterations += 1
        vals = b[S]
        thresh = gamma * math.sqrt(float(np.sum(vals**2)) / len(S))
        kept = [i for i in S if b[i] <= thresh]
        if len(kept) == len(S):
            break
        S = kept
    return SubsetReport(S=tuple(S), p=p, C=C, gamma=gamma, iterations=iterations)


def disagreement_mc(u: np.ndarray, v: np.ndarray, n: int, seed: int) -> float:
    """Empirical disagreement over n Gaussian draws (deterministic per seed)."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_substream(seed, NS_ORACLE)
    disagree = 0
    done = 0
    while done < n:
        take = min(_MC_CHUNK, n - done)
        x = rng.standard_normal((take, u.size))
        disagree += int(np.count_nonzero((x @ u >= 0.0) != (x @ v >= 0.0)))
        done += take
    return disagree / n


def project(x: np.ndarray, subspace: Subspace) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the subspace."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != subspace.ambient_dim:
        raise ValueError(
            f"vector length {x.size} != ambient dimension {subspace.ambient_dim}"
        )
    B = subspace.basis
    return B @ (B.T @ x)


def dist_to_subspace(x: np.ndarray, subspace: Subspace) -> float:
    """Euclidean distance from ``x`` to the subspace."""
    x = np.asarray(x, dtype=float).ravel()
    return float(np.linalg.norm(x - project(x, subspace)))
