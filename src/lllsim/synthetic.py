"""Planted problems and labeled samples under standard-Gaussian inputs.

A problem plants m unit task vectors a_i = normalize(W*^T c*_i) inside the
k-dimensional row space of W*. Inputs are standard Gaussian, labels are the
halfspace sign, and because the Gaussian is rotationally symmetric every
error probability is the exact angle formula theta/pi, so no test-set noise
anywhere downstream.

Sample batches come from SFC64 generators seeded by (seed, task, batch
index). A full-d batch is drawn straight into float32, n*d*4 bytes, in row
chunks of ceil(2^18 / d) rows: chunk 0 from the batch's own SeedSequence,
chunk i >= 1 from its i-th spawn child, each filling its rows in place.
Up to `threads.fill_share()` threads, started and joined within the call,
fill the chunks; the layout depends only on (n, d), so a batch is the same
bytes at any thread count, and one of at most 2^18 values is a single
draw. Each label is the sign of a stored row, widened to float64, against
the target, so labels agree exactly with the inputs a learner sees. A batch
for a learner confined to an orthonormal basis B (d, r) is drawn in its r
float64 coordinates instead: z = B^T x and the label need only r + 1
normals per row, since a.x = z.c + (a - Bc).x with c = B^T a, and the
second term is Gaussian and independent of z. Problems, Monte-Carlo checks
and the other streams use Philox substreams, whose namespaces are listed
here once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .threads import fill_share

_UNIT_TOL = 1e-8
_FILL_CHUNK = 1 << 18  # float32 values per generator in a full-d batch
_SAMPLE_BLOCK = 256  # stored float32 rows widened to float64 at a time for labeling

# Substream namespaces, the second entry of every seed path: one per
# independent purpose, so that parallel trials and repeated batches never
# share generator state. Every stream of the package and its tests is here.
NS_PROBLEM = 0  # generate_problem
NS_BATCH = 1  # sample_batch
NS_ORACLE = 2  # Monte-Carlo disagreement, drawn only by the test oracles
NS_LB_PATTERNS = 10  # lowerbound: random coordinate patterns
NS_LB_TRIALS = 11  # lowerbound: new-task trials
NS_CHECK = 20  # driver: Monte-Carlo acceptance checks


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

    x: np.ndarray  # (n, d) float32 inputs, or (n, r) float64 basis coordinates
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


def sample_batch(
    stream: TaskStream, task: int, n: int, basis: np.ndarray | None = None
) -> SampleBatch:
    """Draw n labeled samples for one task; repeated calls continue the stream.

    Without `basis`, x is a float32 (n, d) standard-normal fill and y the
    sign of each stored row, in float64, against the task vector. x is
    filled in row chunks of ceil(2^18 / d) rows, chunk 0 from the batch's
    SeedSequence and chunk i >= 1 from its i-th spawn child; when there is
    more than one chunk, up to `fill_share()` threads started for this call
    fill them, and all are joined before it returns. With an
    orthonormal `basis` B (d, r), one (n, r + 1) float64 normal draw gives
    the coordinates z = B^T x (columns 1..r, returned as x) and g (column
    0) for the part of a outside B: y = sign(z.c + |a - Bc| g), c = B^T a,
    which has the law of (B^T x, sign(a.x)) at O(n*r) time and memory. Both
    kinds share the task's batch counter. Ties go to +1.
    """
    gt = stream.ground_truth
    if not (0 <= task < gt.m):
        raise ValueError(f"task {task} out of range [0, {gt.m})")
    if n < 1:
        raise ValueError("n must be >= 1")
    batch_idx = stream._batch_counters.get(task, 0)
    stream._batch_counters[task] = batch_idx + 1
    seq = np.random.SeedSequence([stream.rng_seed, NS_BATCH, task, batch_idx])
    a = gt.a[task]
    if basis is not None:
        rng = np.random.Generator(np.random.SFC64(seq))
        c = basis.T @ a
        gz = rng.standard_normal((n, 1 + c.size))
        g, z = gz[:, 0], gz[:, 1:]
        margin = z @ c + np.linalg.norm(a - basis @ c) * g
        return SampleBatch(x=z, y=np.where(margin >= 0.0, 1, -1))
    x = np.empty((n, gt.d), dtype=np.float32)
    _fill_standard_normal(x, seq)
    y = np.empty(n, dtype=np.int64)
    block = np.empty((min(n, _SAMPLE_BLOCK), gt.d))
    for lo in range(0, n, _SAMPLE_BLOCK):
        hi = min(lo + _SAMPLE_BLOCK, n)
        rows = block[: hi - lo]
        np.copyto(rows, x[lo:hi])
        y[lo:hi] = np.where(rows @ a >= 0.0, 1, -1)
    return SampleBatch(x=x, y=y)


def _fill_standard_normal(x: np.ndarray, seq: np.random.SeedSequence) -> None:
    """Fill float32 x (n, d) in place in sample_batch's chunk layout.

    Thread j of t = min(fill_share(), chunks) fills chunks j, j + t, ...;
    the calling thread is thread 0.
    """
    n, d = x.shape
    rows = -(-_FILL_CHUNK // d)
    starts = range(0, n, rows)
    seqs = [seq, *seq.spawn(len(starts) - 1)]
    threads = min(fill_share(), len(starts))

    def fill(first: int) -> None:
        for i in range(first, len(starts), threads):
            rng = np.random.Generator(np.random.SFC64(seqs[i]))
            rng.standard_normal(out=x[starts[i] : starts[i] + rows], dtype=np.float32)

    if threads == 1:
        fill(0)
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(fill, first) for first in range(1, threads)]
        fill(0)
        for helper in helpers:
            helper.result()


def _angle_over_pi(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """theta/pi between unit vectors along the last axis.

    theta = 2 atan2(|u - v|, |u + v|) is accurate to ~1e-16 at every angle,
    where arccos of the dot product turns a one-ulp change of the dot product
    into ~1e-8 near theta = 0.
    """
    half = np.arctan2(np.linalg.norm(U - V, axis=-1), np.linalg.norm(U + V, axis=-1))
    return 2.0 * half / np.pi


def disagreement_exact(u: np.ndarray, v: np.ndarray) -> float:
    """Probability the two halfspaces disagree on a Gaussian input: theta/pi."""
    return float(task_errors(np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0])


def task_error_exact(hypothesis: np.ndarray, task: int, gt: GroundTruth) -> float:
    """True generalization error of a unit hypothesis on one task."""
    if not (0 <= task < gt.m):
        raise ValueError(f"task {task} out of range [0, {gt.m})")
    return disagreement_exact(hypothesis, gt.a[task])


def task_errors(H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row-wise disagreement theta/pi of unit hypotheses H with unit targets A.

    H and A are (n, d); row i of the result is disagreement_exact(H[i], A[i]).
    """
    H = np.asarray(H, dtype=float)
    A = np.asarray(A, dtype=float)
    if H.ndim != 2 or H.shape != A.shape:
        raise ValueError(f"need (n, d) arrays of one shape, got {H.shape}, {A.shape}")
    for M in (H, A):
        off = np.abs(np.linalg.norm(M, axis=-1) - 1.0)
        if (off > _UNIT_TOL).any():
            raise ValueError(f"expected unit rows, got a norm off by {off.max()}")
    return _angle_over_pi(H, A)
