"""Single-task halfspace learners with explicit sample budgets.

The lifelong drivers treat these as black boxes: each call costs a number
of labeled samples fixed by the budget formula, and the returned hypothesis
either meets the target error or gets caught by the post-hoc check.

The estimator runs in two stages. The empirical sum of y*x points at the
target in expectation (E[y*x] = sqrt(2/pi) * a under Gaussian inputs) but
its angle error only shrinks like sqrt(d/n). Perceptron passes over the
same batch then drive the training mistakes to zero; the consistent
direction generalizes at the ~d/n rate the budget formula is shaped for.

Both stages compute in the inputs' dtype. A full-d learn fits the float32
sample batch as stored, so it holds n*d*4 bytes and no float64 copy of the
batch; an in-span learn fits the float64 coordinates x @ basis. The
returned direction is normalized in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Subspace
from .synthetic import GroundTruth, TaskStream, sample_batch, task_error_exact

C_S_DEFAULT = 4.0
_LEARN_CHUNK = 1 << 16
_POLISH_EPOCHS = 64
_POLISH_BLOCK = 256


def budget(dim: int, eps_target: float, c_s: float = C_S_DEFAULT) -> int:
    """Samples allowed for learning one halfspace in `dim` dimensions."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (0.0 < eps_target < 0.5):
        raise ValueError(f"eps_target must be in (0, 1/2), got {eps_target}")
    if c_s <= 0.0:
        raise ValueError("c_s must be positive")
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


def _count_mistakes(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> int:
    # w in x's dtype: a float64 w would make x @ w copy a float32 x to float64
    return int(np.count_nonzero((x @ w.astype(x.dtype, copy=False)) * y <= 0.0))


def _polish(w: np.ndarray, parts) -> np.ndarray:
    """Perceptron passes toward a direction consistent with the batch.

    The batch is a sequence of (x, y) chunks, processed in order, each in
    blocks; an update adds y*x over a block's mistakes, and a mistake-free
    epoch stops the passes. The batch need not be separable when the target
    sits outside the basis: if the epoch cap comes first, the result is the
    first of the start and the epoch-end iterates with the fewest mistakes,
    so it never classifies the batch worse than the start.

    The passes compute in x's dtype. The start object itself is returned
    when it wins, so a mistake-free start comes back unchanged.
    """
    dtype = parts[0][0].dtype
    # int64 labels would upcast to float64
    parts = [(x, y.astype(dtype, copy=False)) for x, y in parts]
    iterates = [w]
    w = w.astype(dtype, copy=False)
    for _ in range(_POLISH_EPOCHS):
        updated = False
        for x, y in parts:
            for lo in range(0, y.size, _POLISH_BLOCK):
                xb = x[lo : lo + _POLISH_BLOCK]
                yb = y[lo : lo + _POLISH_BLOCK]
                bad = (xb @ w) * yb <= 0.0
                if bad.any():
                    w = w + yb[bad] @ xb[bad]
                    updated = True
        if not updated:
            return iterates[-1]
        iterates.append(w)
    mistakes = [sum(_count_mistakes(v, x, y) for x, y in parts) for v in iterates]
    return iterates[mistakes.index(min(mistakes))]


def estimate_direction(
    stream: TaskStream, task: int, n: int, basis: np.ndarray | None = None
) -> np.ndarray:
    """Halfspace direction from n labeled samples, optionally in basis coords.

    Stage one accumulates sum(y*x), whose direction is the target in
    expectation. Stage two runs perceptron passes over the drawn batch
    until it is classified without mistakes (or an epoch cap), starting
    from the accumulated sum so the updates refine rather than overwrite
    it. Deterministic given the stream's seed. With `basis` (d, r), inputs
    are reduced to their r float64 coordinates before fitting; labels still
    come from the full-dimensional sample. Without it both stages run on
    the float32 batch.

    The batch is drawn in chunks of _LEARN_CHUNK rows and polished chunk by
    chunk, so it is held once and never concatenated. _LEARN_CHUNK is a
    multiple of _POLISH_BLOCK, so the polish blocks are those of the whole
    batch.
    """
    dim = stream.ground_truth.d if basis is None else basis.shape[1]
    acc = np.zeros(dim)
    parts = []
    done = 0
    while done < n:
        take = min(_LEARN_CHUNK, n - done)
        batch = sample_batch(stream, task, take)
        z = batch.x if basis is None else batch.x @ basis
        y = batch.y.astype(z.dtype)  # int64 @ float32 would copy z to float64
        acc += y @ z
        parts.append((z, y))
        done += take
    if not parts:
        return _normalize(acc)
    return _normalize(_polish(acc, parts))


def learn_halfspace(
    stream: TaskStream, task: int, eps_target: float, c_s: float = C_S_DEFAULT
) -> Hypothesis:
    """Learn one task in the full ambient space at its sample budget."""
    n = budget(stream.ground_truth.d, eps_target, c_s)
    return Hypothesis(direction=estimate_direction(stream, task, n), samples_used=n)


def learn_in_feature_space(
    stream: TaskStream,
    task: int,
    V: Subspace,
    eps_target: float,
    c_s: float = C_S_DEFAULT,
) -> Hypothesis:
    """Learn one task restricted to a feature subspace.

    Costs budget(dim V, eps) samples, which is the whole point of keeping a shared
    representation. The returned direction is in V's coordinates; map to the
    ambient space with V.basis @ direction. If the target sits far from V no
    coefficient vector can be good; the caller is expected to check.
    """
    n = budget(V.dim, eps_target, c_s)
    direction = estimate_direction(stream, task, n, basis=V.basis)
    return Hypothesis(direction=direction, samples_used=n)


def check_hypothesis(h: Hypothesis, task: int, gt: GroundTruth, eps: float) -> bool:
    """Exact error check (threshold inclusive). Direction must be ambient."""
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


def adversarial_learn(a: np.ndarray, eps_i: float, adv_coord: int) -> np.ndarray:
    """Worst-case-but-valid learner output: tilt `a` by eps_i along one
    coordinate where `a` vanishes. The output stays within distance eps_i
    of the target, so it is a legitimate answer at accuracy eps_i."""
    a = np.asarray(a, dtype=float).ravel()
    if not (0 <= adv_coord < a.size):
        raise ValueError(f"adv_coord {adv_coord} out of range for dimension {a.size}")
    if abs(a[adv_coord]) > 1e-12:
        raise ValueError("target must vanish at the adversarial coordinate")
    if not (0.0 <= eps_i < 1.0):
        raise ValueError(f"eps_i must be in [0, 1), got {eps_i}")
    if eps_i == 0.0:
        return a.copy()
    out = a.copy()
    out[adv_coord] = eps_i
    return out / np.linalg.norm(out)
