"""Representation refinement: fit one low-dimensional subspace near all features.

The core problem: given unit feature vectors w_1..w_n, find a subspace V'
of small dimension with max_i dist(w_i, V') small. Its natural relaxation
is the SDP

    minimize   max_i  w_i' X w_i
    over       0 <= X <= I,  trace(X) = d - k,

whose optimal value t* lower-bounds the best achievable squared distance
for k dimensions, and whose solution rounds spectrally to at most 2k-1
dimensions with squared distances <= 2 t*.

The solver works on the saddle problem min over X, max over p in the
simplex, of <X, M(p)> with M(p) = sum_i p_i w_i w_i'. For every p, the sum
of the d-k smallest eigenvalues of M(p) lower-bounds the optimum, and the
best such dual value certifies the gap. Step 1 is the best response to
uniform p: the projector onto the d-k smallest eigenvectors of M(p), with
that eigenvalue sum as its dual; it is PCA, and it stops the solve when
its gap is within the tolerance.

Later steps run mirror-prox (Nemirovski 2004, "Prox-method with rate of
convergence O(1/t)"), whose step-weighted averages close the gap as
O(1/t), from the centre of the feasible set with uniform p. The X side
takes Euclidean prox steps, an eigendecomposition and a capped-simplex
shift of the eigenvalues (the Fantope projection of Vu, Cho, Lei and
Rohe 2013); the p side takes entropic (multiplicative) steps. For unit
rows the operator F = (M(p), -v(X)), v_i(X) = w_i' X w_i, is 1-Lipschitz
from the (Frobenius, l1) norm pair to its dual: ||M(q)||_F <= ||q||_1 and
|w' D w| <= ||D||_F. So any step size up to 1 is safe. The step size
starts at `_GAMMA_START`, halves until Nemirovski's local test passes (a
size up to 1 passes untested) and grows by `_GAMMA_GROW` after each
accepted step. The primal candidates are the centre, every iterate and
the weighted average; the dual candidates are the weights of every half
step and their weighted average.

Everything happens in the span of the features (dimension r = rank(W)),
which is exact: any feasible ambient X restricts to a feasible reduced one
with the same constraint values, and a reduced solution extends by the
identity on the orthogonal complement.

The solution is kept in that factored form, X = Q Xr Q' + (I - QQ'), with
Q (d, r) orthonormal and Xr (r, r): the solver, the feasibility checks, the
rounding and `dump_solution` work on Q and Xr, and the d x d matrix X is
never built. k is clamped to r: r <= k gives X = I - QQ' at t = 0.
Rounding keeps at most 2k - 1 of Xr's eigenvectors and k <= r, so every
rounded column lies in span(Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DROP_TOL, Subspace, orthonormalize
from .threads import one_blas_thread

DEFAULT_TOL = 1e-4
_FEAS_TOL = 1e-6
_SIGN_TOL = 1e-12
_GAMMA_START = 64.0  # mirror-prox: the first trial step size
_GAMMA_GROW = 1.25  # growth of the step size after each accepted step


class RefinementError(ValueError):
    """A solve or rounding that breaks its guarantee (feasibility, certificate)."""


@dataclass(frozen=True)
class SdpSolution:
    """Feasible approximate solution of the refinement SDP, in factored form.

    X = Q Xr Q' + (I - QQ'): Xr acts on span(Q), X is the identity on its
    orthogonal complement, and trace(X) = d - k holds when trace(Xr) = r - k.
    """

    Q: np.ndarray  # (d, r) orthonormal columns
    Xr: np.ndarray  # (r, r) symmetric, 0 <= Xr <= I, trace r - k
    t: float  # achieved value max_i w_i' X w_i
    weights: np.ndarray  # final averaged constraint weights (probability vector)
    iterations: int
    gap: float  # certified optimality gap: t - best dual value
    converged: bool  # gap <= tol
    k: int  # target dimension, clamped to r = rank(W)
    checkpoints: tuple  # (iteration, primal_best, dual_best, gap) rows

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Xr = np.asarray(self.Xr, dtype=float)
        d, r = Q.shape
        if r > d or not np.allclose(Q.T @ Q, np.eye(r), atol=1e-9):
            raise RefinementError("Q must have orthonormal columns")
        if Xr.shape != (r, r) or not np.allclose(Xr, Xr.T, atol=1e-9):
            raise RefinementError("Xr must be square symmetric with Q's column count")
        eig = np.linalg.eigvalsh(Xr)
        if eig[0] < -_FEAS_TOL or eig[-1] > 1.0 + _FEAS_TOL:
            raise RefinementError(f"eigenvalues outside [0, 1]: [{eig[0]}, {eig[-1]}]")
        if abs(float(np.trace(Xr)) - (r - self.k)) > _FEAS_TOL:
            raise RefinementError("trace(Xr) != r - k")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise RefinementError("weights must be a probability vector")


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
            raise RefinementError(
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


def _check_span(A: np.ndarray, span: Subspace) -> None:
    """Raise ValueError unless span is span(A): it holds every row of A, each
    to 1e-9 in norm, and the rows fill each of its dimensions (the smallest
    singular value of A Q above DROP_TOL, where Gram-Schmidt drops a residual).
    """
    if span.ambient_dim != A.shape[1]:
        raise ValueError(
            f"span lives in R^{span.ambient_dim}, the features in R^{A.shape[1]}"
        )
    AQ = A @ span.basis
    lost = np.abs(np.linalg.norm(AQ, axis=1) - np.linalg.norm(A, axis=1))
    if lost.max() > 1e-9:
        raise ValueError(f"span misses a feature: a row of W Q is {lost.max():.3g} short")
    # n rows fill at most n dimensions, and svd returns only min(n, r) values
    floor = np.linalg.svd(AQ, compute_uv=False)[-1] if span.dim <= len(A) else 0.0
    if floor <= DROP_TOL:
        raise ValueError(
            f"span has a direction no feature fills: the smallest singular "
            f"value of W Q is {floor:.3g}"
        )


def _gram(Wt: np.ndarray, p: np.ndarray) -> np.ndarray:
    """M(p) = sum_i p_i w_i w_i' over the rows w_i of Wt."""
    return Wt.T @ (p[:, None] * Wt)


def _values(Wt: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The constraint values w_i' X w_i over the rows w_i of Wt."""
    return np.einsum("ij,ij->i", Wt @ X, Wt)


def _weighted_dual(Wt: np.ndarray, p: np.ndarray, k: int) -> float:
    """Dual value of weights p: the r - k smallest eigenvalues of M(p), summed."""
    return float(np.linalg.eigvalsh(_gram(Wt, p))[: Wt.shape[1] - k].sum())


def _capped_shift(lam: np.ndarray, s: int) -> np.ndarray:
    """Euclidean projection of lam onto {mu : 0 <= mu <= 1, sum(mu) = s}.

    It is clip(lam - theta, 0, 1) for the shift theta that makes the sum s,
    with 0 < s < len(lam). The sum falls piecewise linearly in theta, with
    knots at lam - 1 and lam, so theta is interpolated on the piece where
    it crosses s.
    """
    knots = np.sort(np.concatenate((lam - 1.0, lam)))
    sums = np.clip(lam - knots[:, None], 0.0, 1.0).sum(axis=1)  # r, falling to 0
    j = int(np.count_nonzero(sums >= s))  # sums[j - 1] >= s > sums[j]
    lo, hi = knots[j - 1], knots[j]
    theta = lo + (hi - lo) * (sums[j - 1] - s) / (sums[j - 1] - sums[j])
    return np.clip(lam - theta, 0.0, 1.0)


def _project(Y: np.ndarray, s: int) -> np.ndarray:
    """Frobenius projection of symmetric Y onto {0 <= X <= I, trace(X) = s}.

    The eigenvectors stay and the eigenvalues take the capped-simplex shift
    (Vu, Cho, Lei and Rohe 2013, "Fantope projection and selection").
    """
    lam, V = np.linalg.eigh(Y)
    return (V * _capped_shift(lam, s)) @ V.T


def _normalize_logs(lq: np.ndarray) -> np.ndarray:
    """Log-weights shifted so their exponentials sum to 1."""
    top = lq.max()
    return lq - (top + math.log(float(np.exp(lq - top).sum())))


def _kl(la: np.ndarray, lb: np.ndarray) -> float:
    """KL(a || b) of two weight vectors given by normalized log-weights."""
    return float(np.exp(la) @ (la - lb))


def _mirror_prox_step(Wt, X, lq, Mz, vz, gamma, s):
    """One extragradient step of size gamma from z = (X, q), q = exp(lq).

    F(z) = (M(q), -v(X)) with v(X)_i = w_i' X w_i; Mz and vz are M(q) and
    v(X). Each prox step moves X by a Euclidean projection and q by a
    multiplicative update: the half step w uses F(z), the full step z+
    uses F(w), both from z. Returns (Xw, lw, Mw, vw, Xn, ln, excess), where
    excess = gamma <F(w) - F(z), w - z+> - D(w, z) - D(z+, w) with D the
    Bregman divergence (half the squared Frobenius distance plus KL);
    Nemirovski's test accepts the step when excess <= 0.
    """
    Xw = _project(X - gamma * Mz, s)
    lw = _normalize_logs(lq + gamma * vz)
    Mw, vw = _gram(Wt, np.exp(lw)), _values(Wt, Xw)
    Xn = _project(X - gamma * Mw, s)
    ln = _normalize_logs(lq + gamma * vw)
    dXw, dXn = Xw - X, Xn - Xw
    excess = (
        gamma * (np.vdot(Mw - Mz, -dXn) + (vz - vw) @ (np.exp(lw) - np.exp(ln)))
        - 0.5 * (np.vdot(dXw, dXw) + np.vdot(dXn, dXn))
        - _kl(lw, lq)
        - _kl(ln, lw)
    )
    return Xw, lw, Mw, vw, Xn, ln, float(excess)


def solve_refinement_sdp(
    W,
    k: int,
    max_iters: int | None = None,
    tol: float = DEFAULT_TOL,
    span: Subspace | None = None,
) -> SdpSolution:
    """Approximately solve the refinement SDP: a best response, then mirror-prox.

    Step 1 is the best response to uniform weights; steps 2, 3, ... are
    adaptive mirror-prox steps from the centre (see the module docstring).
    `iterations` counts step 1 and every accepted mirror-prox step, and
    `max_iters` (default ceil(2000 ln n)) bounds it; the step size is set
    by the local test, not by the budget. Primal candidates are step 1's
    best response, the centre, every iterate and the step-weighted average
    of the half steps; dual candidates are the eigenvalue sums at uniform
    weights, at every half step's weights and at their weighted average
    p_bar, which comes back as `weights` (uniform when step 1 stops). The
    solver stops once the gap reaches `tol`. Returns the best primal
    candidate with t computed from that Xr and a certified duality gap;
    checkpoints come every max_iters // 64 iterations and at the stop. If
    the gap does not reach `tol` within `max_iters` the solution is still
    feasible and `converged` is False. k is clamped to r = rank(W): for
    r <= k the exact optimum t = 0 comes back without iterating, with `k`
    = r.

    `span` is an orthonormal basis of span(W) the caller already holds, such
    as the driver's raw features folded through `extend`; it stands in for
    `orthonormalize(W)`, which gives the same Q bit for bit. A span in
    another ambient dimension, one that misses a feature (some row of W Q
    shorter than its row of W by more than 1e-9), or one wider than span(W)
    (the smallest singular value of W Q at most DROP_TOL) raises ValueError.
    """
    A = _feature_matrix(W)
    n, d = A.shape
    if not (1 <= k < d):
        raise ValueError(f"need 1 <= k < d, got k={k}, d={d}")
    if not (0.0 <= tol < math.inf):  # NaN fails both comparisons
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    if max_iters is not None and max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    if span is None:
        span = orthonormalize(list(A))
    else:
        _check_span(A, span)
    Q = span.basis  # (d, r)
    r = span.dim
    k = min(k, r)

    if r == k:
        # span(W) itself has at most k dimensions: the exact optimum is
        # t = 0 with X = I - QQ', the identity on span(W)'s complement
        return SdpSolution(
            Q=Q,
            Xr=np.zeros((r, r)),
            t=0.0,
            weights=np.full(n, 1.0 / n),
            iterations=0,
            gap=0.0,
            converged=True,
            k=k,
            checkpoints=((0, 0.0, 0.0, 0.0),),
        )

    Wt = A @ Q  # (n, r) unit rows spanning R^r
    s = r - k
    log_n = math.log(n)  # n >= r >= 2 here
    if max_iters is None:
        max_iters = math.ceil(2000.0 * log_n)
    checkpoints: list[tuple] = []
    stride = max(1, max_iters // 64)

    # step 1: the projector onto the r - k smallest eigenvectors of M(p) at
    # uniform p, and the sum of those eigenvalues
    p_bar = np.full(n, 1.0 / n)
    vals, vecs = np.linalg.eigh(_gram(Wt, p_bar))
    U = vecs[:, :s]
    best_dual = float(vals[:s].sum())
    WU = Wt @ U
    best_primal = float(np.einsum("ij,ij->i", WU, WU).max())
    best_X = U @ U.T
    done = 1
    gap = best_primal - best_dual
    if stride == 1 or gap <= tol:
        checkpoints.append((1, best_primal, best_dual, max(gap, 0.0)))

    if gap > tol and max_iters > 1:
        X = np.eye(r) * (s / r)  # the centre, with uniform weights
        lq = np.full(n, -log_n)
        gamma = _GAMMA_START
        sum_gamma = 0.0
        sum_X, sum_M = np.zeros((r, r)), np.zeros((r, r))
        sum_v, sum_p = np.zeros(n), np.zeros(n)
        for done in range(2, max_iters + 1):
            Mz, vz = _gram(Wt, np.exp(lq)), _values(Wt, X)
            while True:
                Xw, lw, Mw, vw, Xn, ln, excess = _mirror_prox_step(
                    Wt, X, lq, Mz, vz, gamma, s
                )
                # F is 1-Lipschitz, so a step size up to 1 passes the test
                if gamma <= 1.0 or excess <= 0.0:
                    break
                gamma *= 0.5
            pw = np.exp(lw)
            sum_gamma += gamma
            sum_X += gamma * Xw
            sum_M += gamma * Mw
            sum_v += gamma * vw
            sum_p += gamma * pw
            for primal, cand in ((float(vz.max()), X), (float(vw.max()), Xw)):
                if primal < best_primal:
                    best_primal, best_X = primal, cand
            primal = float(sum_v.max()) / sum_gamma
            if primal < best_primal:
                best_primal, best_X = primal, sum_X / sum_gamma
            best_dual = max(
                best_dual,
                float(np.linalg.eigvalsh(Mw)[:s].sum()),
                float(np.linalg.eigvalsh(sum_M / sum_gamma)[:s].sum()),
            )
            gap = best_primal - best_dual
            if done % stride == 0 or gap <= tol:
                checkpoints.append((done, best_primal, best_dual, max(gap, 0.0)))
            if gap <= tol:
                break
            X, lq = Xn, ln
            gamma *= _GAMMA_GROW
        p_bar = sum_p / sum_gamma

    best_dual = max(best_dual, _weighted_dual(Wt, p_bar, k))
    Xr = 0.5 * (best_X + best_X.T)
    t_val = float(np.einsum("ij,jk,ik->i", Wt, Xr, Wt).max())
    gap = max(0.0, t_val - best_dual)
    checkpoints.append((done, t_val, best_dual, gap))

    return SdpSolution(
        Q=Q,
        Xr=Xr,
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


def round_sdp(sol: SdpSolution) -> Subspace:
    """Spectral rounding: span of X's eigenvectors with eigenvalue below 1/2.

    Keeps at least sol.k and at most 2 sol.k - 1 of them: any cut whose next
    eigenvalue is >= 1/2 preserves the distance guarantee dist^2 <= 2 t, and
    at most 2k - 1 eigenvalues of X (trace d - k, all in [0, 1]) lie below
    1/2. The cut is usually exactly k on well-posed instances. X's
    eigenvectors below 1 are Q times Xr's, so only Xr is decomposed.
    """
    k = sol.k
    vals, vecs = np.linalg.eigh(sol.Xr)
    dims = min(max(int(np.count_nonzero(vals < 0.5)), k), 2 * k - 1)
    return Subspace(basis=_fix_signs(sol.Q @ vecs[:, :dims]))


@one_blas_thread()
def refine(
    W,
    k: int,
    eps_acc: float,
    tol: float = DEFAULT_TOL,
    max_iters: int | None = None,
    full_output: bool = False,
    span: Subspace | None = None,
):
    """Solve, then `round_sdp` at the solver's clamped k: (subspace, certificate).

    When some k-dim subspace within eps_acc of every feature exists, the
    SDP value satisfies t <= eps_acc^2 + gap and the certificate bound
    sqrt(2 t) (1 + tol) caps the rounded max distance. eps_acc is only
    checked for sign: it enters none of the solve, the rounding and the
    certificate, and stays a positional parameter because callers pass it
    so. With `full_output` the SdpSolution is returned as a third element.
    `span`, an orthonormal basis of span(W), goes to the solver in place of
    its own Gram-Schmidt (see `solve_refinement_sdp`). OpenBLAS runs at one
    thread throughout.
    """
    if eps_acc <= 0.0:
        raise ValueError("eps_acc must be positive")
    A = _feature_matrix(W)
    sol = solve_refinement_sdp(A, k, max_iters=max_iters, tol=tol, span=span)
    V = round_sdp(sol)
    B = V.basis
    resid = A.T - B @ (B.T @ A.T)
    cert = RefinementCertificate(
        max_distance=float(np.linalg.norm(resid, axis=0).max()),
        dims=V.dim,
        approx_bound=math.sqrt(2.0 * max(sol.t, 0.0)) * (1.0 + tol),
    )
    if full_output:
        return V, cert, sol
    return V, cert


def dump_solution(sol: SdpSolution, path) -> None:
    """Text dump of (t, gap, weights, checkpoints, Q, Xr) for debugging.

    Every line starts with its tag: one `Q` line per row of Q (d, r) and one
    `Xr` line per row of Xr (r, r), from which X = Q Xr Q' + (I - QQ').
    """
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
        for tag, M in (("Q", sol.Q), ("Xr", sol.Xr)):
            for row in M:
                fh.write(tag + "".join(f" {x:.17g}" for x in row) + "\n")
