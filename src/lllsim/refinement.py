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
runs Hedge over the n constraints; the min player best-responds with the
projector onto the d-k smallest eigenvectors of M(p) = sum_i p_i w_i w_i'.
Averaged best responses stay feasible by convexity. For every p, the sum
of the d-k smallest eigenvalues of M(p) lower-bounds the optimum, and the
best such dual value certifies the gap. Two averages are kept: one since
step 1, which drives Hedge, and one restarted after steps 1, 2, 4, 8, ...,
which leaves out the poor early best responses ("suffix averaging", as in
Rakhlin, Shamir and Sridharan 2012). Both are primal candidates at every
step, and both averaged weight vectors are dual candidates every
`_DUAL_EVERY` steps.

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

Hedge's learning rate follows AdaHedge (de Rooij, van Erven, Grunwald and
Koolen 2014, "Follow the Leader If You Can, Hedge If You Must"): with
losses l_i = 1 - w_i' X_t w_i, the rate at step t is eta_t = ln n / Delta,
where Delta is the mixability gap p.l + ln(p.exp(-eta l)) / eta summed over
the earlier steps. While Delta = 0 the rate is infinite and p is uniform
over the constraints with the largest cumulative value, so step 1 uses
uniform weights. The rate adapts to the observed losses and has no
parameter; the iteration budget only bounds the work.
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
_DUAL_EVERY = 8  # iterations between the averaged weights' dual checks


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


def _weighted_dual(Wt: np.ndarray, p: np.ndarray, k: int) -> float:
    """Dual value of weights p: the r - k smallest eigenvalues of M(p), summed."""
    M = Wt.T @ (p[:, None] * Wt)
    return float(np.linalg.eigvalsh(M)[: Wt.shape[1] - k].sum())


def _mixability_gap(p: np.ndarray, loss: np.ndarray, eta: float) -> float:
    """Hedge's mixability gap p.loss + ln(p.exp(-eta loss)) / eta, eta in (0, inf].

    The mix term is shifted by the smallest loss on p's support, so a huge
    eta cannot take the log of an underflowed zero; at eta = inf it is that
    smallest loss. Rounding can push the gap below 0, so it is clamped there.
    """
    support = p > 0.0
    ps, ls = p[support], loss[support]
    low = float(ls.min())
    mix = low
    if not math.isinf(eta):
        mix -= math.log(float(ps @ np.exp(-eta * (ls - low)))) / eta
    return max(0.0, float(ps @ ls) - mix)


def solve_refinement_sdp(
    W,
    k: int,
    max_iters: int | None = None,
    tol: float = DEFAULT_TOL,
    span: Subspace | None = None,
) -> SdpSolution:
    """Approximately solve the refinement SDP by saddle-point MWU.

    The constraint weights follow Hedge with the AdaHedge rate (see the
    module docstring), so `max_iters` (default ceil(2000 ln n)) is only a
    budget: it does not set the step size. The primal value is the best of
    the averaged best responses since step 1 and since the last power of
    two. The dual bound is taken from every iterate's weights and, every
    `_DUAL_EVERY` iterations and once at the end, from both averaged weight
    vectors; the solver stops once the gap reaches `tol`. Returns the best
    averaged iterate with a certified duality gap, t computed from that Xr,
    and as `weights` the average since step 1; checkpoints come every
    max_iters // 64 iterations and at the stop. If the gap does not reach
    `tol` within `max_iters` the solution is still feasible and `converged`
    is False. k is clamped to r = rank(W): for r <= k the exact optimum
    t = 0 comes back without iterating, with `k` = r.

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
    log_n = math.log(n)  # n >= r >= 2 here
    if max_iters is None:
        max_iters = math.ceil(2000.0 * log_n)

    mix_gap = 0.0  # AdaHedge's cumulative mixability gap Delta
    sum_X = np.zeros((r, r))  # sums since step 1
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
        if (it - 1) & (it - 2) == 0:  # it - 1 is 0 or a power of two: restart
            suf_X = np.zeros((r, r))
            suf_v = np.zeros(n)
            suf_p = np.zeros(n)
            suf_count = 0
        if mix_gap > 0.0:
            eta = log_n / mix_gap
            p = np.exp(eta * (sum_v - sum_v.max()))
        else:  # eta = inf: uniform over the current leaders
            eta = math.inf
            p = (sum_v == sum_v.max()).astype(float)
        p /= p.sum()
        M = Wt.T @ (p[:, None] * Wt)
        vals, vecs = np.linalg.eigh(M)
        U = vecs[:, : r - k]  # best response: projector onto r-k smallest
        dual = float(vals[: r - k].sum())
        best_dual = max(best_dual, dual)
        WU = Wt @ U
        v = np.einsum("ij,ij->i", WU, WU)
        P = U @ U.T
        for s_X, s_v, s_p in ((sum_X, sum_v, sum_p), (suf_X, suf_v, suf_p)):
            s_X += P
            s_v += v
            s_p += p
        suf_count += 1
        for s_X, s_v, count in ((sum_X, sum_v, it), (suf_X, suf_v, suf_count)):
            primal = float(s_v.max()) / count
            if primal < best_primal:
                best_primal = primal
                best_sum_X = s_X.copy()
                best_count = count
        if it % _DUAL_EVERY == 0:
            # the averaged weights usually certify a much tighter dual value
            best_dual = max(
                best_dual,
                _weighted_dual(Wt, sum_p / it, k),
                _weighted_dual(Wt, suf_p / suf_count, k),
            )
        gap = best_primal - best_dual
        if it % stride == 0 or gap <= tol:
            checkpoints.append((it, best_primal, best_dual, max(gap, 0.0)))
        if gap <= tol:
            break
        mix_gap += _mixability_gap(p, 1.0 - v, eta)

    p_bar = sum_p / done
    p_suf = suf_p / suf_count
    best_dual = max(best_dual, _weighted_dual(Wt, p_bar, k), _weighted_dual(Wt, p_suf, k))

    Xr = best_sum_X / best_count
    Xr = 0.5 * (Xr + Xr.T)
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
