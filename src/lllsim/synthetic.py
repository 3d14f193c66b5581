"""Planted problems and labeled samples under standard-Gaussian inputs.

A problem plants m unit task vectors a_i = normalize(W*^T c*_i) inside the
k-dimensional row space of W*. Inputs are standard Gaussian, labels are the
halfspace sign, and because the Gaussian is rotationally symmetric every
error probability is the exact angle formula theta/pi, so no test-set noise
anywhere downstream.

Sample batches are stored as float32, half the memory of float64: a batch
of n rows in R^d holds n*d*4 bytes. Each row is drawn in float64 from its
task's counter-based substream and labeled from those float64 values, so
the draws and labels are those of one float64 (n, d) draw; only the stored
inputs are rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-8
_MC_CHUNK = 1 << 18
_SAMPLE_BLOCK = 256  # rows drawn in float64 at a time before rounding to float32

# Substream namespaces: one per independent purpose so parallel trials and
# repeated batches never share generator state.
NS_PROBLEM = 0
NS_BATCH = 1
NS_MC = 2


def rng_substream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, path...)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


@dataclass(frozen=True)
class GroundTruth:
    """A planted lifelong-learning problem."""

    W_star: np.ndarray  # (k, d) hidden feature directions
    C_star: np.ndarray  # (m, k) per-task combination weights
    a: np.ndarray  # (m, d) unit task vectors, a_i = normalize(W_star.T @ C_star[i])
    d: int
    k: int
    m: int
    seed: int

    def __post_init__(self):
        if self.W_star.shape != (self.k, self.d):
            raise ValueError("W_star shape mismatch")
        if self.C_star.shape != (self.m, self.k):
            raise ValueError("C_star shape mismatch")
        if self.a.shape != (self.m, self.d):
            raise ValueError("a shape mismatch")
        norms = np.linalg.norm(self.a, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("task vectors must be unit norm")


@dataclass
class SampleBatch:
    """A batch of labeled samples, stored as arrays."""

    x: np.ndarray  # (n, d) float32
    y: np.ndarray  # (n,) of +/-1

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class TaskStream:
    """Deterministic per-task sample streams over one ground truth."""

    ground_truth: GroundTruth
    rng_seed: int
    _batch_counters: dict = field(default_factory=dict, repr=False)


def generate_problem(d: int, k: int, m: int, seed: int) -> GroundTruth:
    """Draw W*, C* with i.i.d. standard-normal entries and plant the tasks.

    Deterministic per seed. Rows of `a` are normalized; a zero direction
    (probability zero) is replaced by redrawing that row of C*.
    """
    if not (1 <= k <= min(m, d)):
        raise ValueError(f"need 1 <= k <= min(m, d), got k={k}, m={m}, d={d}")
    rng = rng_substream(seed, NS_PROBLEM)
    W = rng.standard_normal((k, d))
    C = rng.standard_normal((m, k))
    A = C @ W
    norms = np.linalg.norm(A, axis=1)
    for i in np.nonzero(norms == 0.0)[0]:
        while norms[i] == 0.0:
            C[i] = rng.standard_normal(k)
            A[i] = C[i] @ W
            norms[i] = np.linalg.norm(A[i])
    A /= norms[:, None]
    return GroundTruth(W_star=W, C_star=C, a=A, d=d, k=k, m=m, seed=seed)


def sample_batch(stream: TaskStream, task: int, n: int) -> SampleBatch:
    """Draw n labeled samples for one task; repeated calls continue the stream.

    The rows are drawn and labeled in float64 blocks of _SAMPLE_BLOCK rows,
    which continue one generator, so x equals the float32 rounding of a
    single (n, d) float64 draw and y holds that draw's labels.
    """
    gt = stream.ground_truth
    if not (0 <= task < gt.m):
        raise ValueError(f"task {task} out of range [0, {gt.m})")
    if n < 1:
        raise ValueError("n must be >= 1")
    batch_idx = stream._batch_counters.get(task, 0)
    stream._batch_counters[task] = batch_idx + 1
    rng = rng_substream(stream.rng_seed, NS_BATCH, task, batch_idx)
    a = gt.a[task]
    x = np.empty((n, gt.d), dtype=np.float32)
    y = np.empty(n, dtype=np.int64)
    block = np.empty((min(n, _SAMPLE_BLOCK), gt.d))
    for lo in range(0, n, _SAMPLE_BLOCK):
        hi = min(lo + _SAMPLE_BLOCK, n)
        rows = block[: hi - lo]
        rng.standard_normal(out=rows)
        y[lo:hi] = np.where(rows @ a >= 0.0, 1, -1)  # ties go to +1
        x[lo:hi] = rows
    return SampleBatch(x=x, y=y)


def _check_unit_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.size != v.size:
        raise ValueError("vectors must share a dimension")
    for t in (u, v):
        nrm = np.linalg.norm(t)
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ValueError(f"expected unit vector, got norm {nrm}")
    return u, v


def disagreement_exact(u: np.ndarray, v: np.ndarray) -> float:
    """Probability the two halfspaces disagree on a Gaussian input: theta/pi."""
    u, v = _check_unit_pair(u, v)
    theta = float(np.arccos(np.clip(u @ v, -1.0, 1.0)))
    return theta / np.pi


def disagreement_mc(u: np.ndarray, v: np.ndarray, n: int, seed: int) -> float:
    """Empirical disagreement over n Gaussian draws (deterministic per seed)."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_substream(seed, NS_MC)
    disagree = 0
    done = 0
    while done < n:
        take = min(_MC_CHUNK, n - done)
        x = rng.standard_normal((take, u.size))
        disagree += int(np.count_nonzero((x @ u >= 0.0) != (x @ v >= 0.0)))
        done += take
    return disagree / n


def task_error_exact(hypothesis: np.ndarray, task: int, gt: GroundTruth) -> float:
    """True generalization error of a unit hypothesis on one task."""
    if not (0 <= task < gt.m):
        raise ValueError(f"task {task} out of range [0, {gt.m})")
    return disagreement_exact(hypothesis, gt.a[task])


def task_errors(H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row-wise disagreement theta/pi of unit hypotheses H with unit targets A.

    H and A are (n, d); row i of the result is disagreement_exact(H[i], A[i])
    up to the rounding of the dot product, which arccos amplifies near 0.
    """
    H = np.asarray(H, dtype=float)
    A = np.asarray(A, dtype=float)
    if H.ndim != 2 or H.shape != A.shape:
        raise ValueError(f"need (n, d) arrays of one shape, got {H.shape}, {A.shape}")
    for M in (H, A):
        off = np.abs(np.linalg.norm(M, axis=1) - 1.0)
        if np.any(off > _UNIT_TOL):
            raise ValueError(f"expected unit rows, got a norm off by {off.max()}")
    return np.arccos(np.clip(np.einsum("ij,ij->i", H, A), -1.0, 1.0)) / np.pi
