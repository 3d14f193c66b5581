"""Single-task halfspace learners with explicit sample budgets.

The lifelong drivers treat these as black boxes: each call costs a number
of labeled samples fixed by the budget formula, and the returned hypothesis
either meets the target error or gets caught by the post-hoc check.

The estimator runs in two stages. The empirical sum of y*x points at the
target in expectation (E[y*x] = sqrt(2/pi) * a under Gaussian inputs) but
its angle error only shrinks like sqrt(d/n). Perceptron passes over the
same batch then drive the training mistakes to zero; the consistent
direction generalizes at the ~d/n rate the budget formula is shaped for.

Both stages need only the signed rows y*x, and compute in the inputs'
dtype. A full-d learn signs its float32 sample batch in place, so it holds
n*d*4 bytes and no copy of the batch; an in-span learn fits a batch drawn
directly in the basis's r float64 coordinates, n*(r + 1)*8 bytes, signed
into an n*r*8 byte product, with no d-dimensional rows at all. Both
return a unit direction in R^d, normalized in float64; an in-span fit is
mapped to R^d through the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Subspace
from .synthetic import GroundTruth, TaskStream, sample_batch, task_error_exact

_POLISH_EPOCHS = 64
_POLISH_BLOCK = 256


def budget(dim: int, eps_target: float, c_s: float) -> int:
    """Samples allowed for learning one halfspace in `dim` dimensions."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (0.0 < eps_target < 0.5):
        raise ValueError(f"eps_target must be in (0, 1/2), got {eps_target}")
    if not (0.0 < c_s < math.inf):  # NaN fails both comparisons
        raise ValueError(f"c_s must be positive and finite, got {c_s}")
    return math.ceil(c_s * dim * math.log(1.0 / eps_target) / eps_target)


@dataclass(frozen=True)
class Hypothesis:
    """A unit direction plus the sample count it cost to produce."""

    direction: np.ndarray
    samples_used: int

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float).ravel()
        nrm = np.linalg.norm(d)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"direction must be unit norm, got {nrm}")
        object.__setattr__(self, "direction", d)


def _normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        # all-zero accumulator: probability-zero event, pick a fixed direction
        out = np.zeros_like(v)
        out[0] = 1.0
        return out
    return v / nrm


def _count_mistakes(w: np.ndarray, xy: np.ndarray) -> int:
    # w in xy's dtype: a float64 w would make xy @ w copy a float32 xy to float64
    return int(np.count_nonzero(xy @ w.astype(xy.dtype, copy=False) <= 0.0))


def _polish(w: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Perceptron passes toward a direction consistent with the signed rows xy.

    Row i of xy is y_i * x_i, so it is a mistake exactly when xy_i . w <= 0.
    Each epoch scans the batch in blocks of `_POLISH_BLOCK` rows and adds
    each block's mistakes to w; a mistake-free epoch stops the passes. The
    batch need not be separable when the target sits outside the basis: if
    the epoch cap comes first, one last scan counts the final iterate, and
    the result is the first of the start and the epoch-end iterates with the
    fewest mistakes, so it never classifies the batch worse than the start.

    An epoch's scan counts the mistakes of the iterate it started from when
    the batch is one block (every in-span batch up to dim 22 at eps = 0.1,
    and joint's N = 200), so at the cap those counts pick the winner. A
    larger batch recounts its earlier iterates there instead. xy is not
    changed. The passes compute in xy's dtype. The start object itself is
    returned when it wins, so a mistake-free start comes back unchanged.
    """
    ones = np.ones(min(len(xy), _POLISH_BLOCK), dtype=xy.dtype)
    blocks = [xy[lo : lo + _POLISH_BLOCK] for lo in range(0, len(xy), _POLISH_BLOCK)]
    iterates, mistakes = [], []
    current = w
    w = w.astype(xy.dtype, copy=False)
    for epoch in range(_POLISH_EPOCHS + 1):
        iterates.append(current)
        mistakes.append(0)
        for block in blocks:
            bad = block @ w <= 0.0
            n_bad = int(np.count_nonzero(bad))
            mistakes[-1] += n_bad
            if n_bad and epoch < _POLISH_EPOCHS:
                w = w + ones[:n_bad] @ block.compress(bad, axis=0)
        if mistakes[-1] == 0:
            return current
        current = w
    if len(blocks) > 1:
        # later blocks were scanned against updated iterates
        mistakes[:-1] = [_count_mistakes(v, xy) for v in iterates[:-1]]
    return iterates[mistakes.index(min(mistakes))]


def estimate_direction(
    stream: TaskStream, task: int, n: int, basis: np.ndarray | None = None
) -> np.ndarray:
    """Halfspace direction from n labeled samples, optionally in basis coords.

    Stage one accumulates sum(y*x), whose direction is the target in
    expectation. Stage two runs perceptron passes over the drawn batch
    until it is classified without mistakes (or an epoch cap), starting
    from the accumulated sum so the updates refine rather than overwrite
    it. Deterministic given the stream's seed. With an orthonormal `basis`
    (d, r), `sample_batch` draws the inputs' r float64 coordinates and
    labels of the full-dimensional law, and both stages fit those. Without
    it both stages run on the float32 batch. The polish fits the signed
    rows y*x: a full-d batch is signed in place, so it is held once; an
    in-span batch's coordinates are a strided view of its draw, signed
    into one contiguous (n, r) product.
    """
    batch = sample_batch(stream, task, n, basis)
    x = batch.x
    y = batch.y.astype(x.dtype)  # int64 labels would make both products float64
    start = y @ x  # before signing: on a strided x, ones @ xy rounds differently
    xy = np.multiply(x, y[:, None], out=x if x.flags.c_contiguous else None)
    return _normalize(_polish(start, xy))


def learn_halfspace(
    stream: TaskStream, task: int, eps_target: float, c_s: float
) -> Hypothesis:
    """Learn one task in the full ambient space at its sample budget."""
    n = budget(stream.ground_truth.d, eps_target, c_s)
    return Hypothesis(direction=estimate_direction(stream, task, n), samples_used=n)


def learn_in_feature_space(
    stream: TaskStream,
    task: int,
    V: Subspace,
    eps_target: float,
    c_s: float,
) -> Hypothesis:
    """Learn one task restricted to a feature subspace.

    Costs budget(dim V, eps) samples, which is the whole point of keeping a shared
    representation. The fit runs in V's coordinates and the returned direction
    is V.basis @ coords, a unit vector of R^d inside V. If the target sits far
    from V no coefficient vector can be good; the caller is expected to check.
    """
    n = budget(V.dim, eps_target, c_s)
    coords = estimate_direction(stream, task, n, basis=V.basis)
    return Hypothesis(direction=V.basis @ coords, samples_used=n)


def check_hypothesis(h: Hypothesis, task: int, gt: GroundTruth, eps: float) -> bool:
    """Exact error check (threshold inclusive)."""
    return task_error_exact(h.direction, task, gt) <= eps


def mc_check_cost(eps: float) -> int:
    return math.ceil(32.0 / eps)


def check_hypothesis_mc(
    h: Hypothesis, task: int, gt: GroundTruth, eps: float, rng: np.random.Generator
) -> tuple[bool, int]:
    """Monte-Carlo error check; returns (passed, samples charged)."""
    n_test = mc_check_cost(eps)
    x = rng.standard_normal((n_test, gt.d))
    true_y = x @ gt.a[task] >= 0.0
    hyp_y = x @ h.direction >= 0.0
    frac = float(np.count_nonzero(true_y != hyp_y)) / n_test
    return frac <= eps, n_test
