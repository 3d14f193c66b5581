"""Adversarial lower-bound harness.

The hard construction: k basis tasks along coordinate axes in R^{k+1},
answered by a worst-case-but-valid learner that tilts every estimate into
the one spare coordinate. Random follow-up tasks are Bernoulli combinations
of the axes. The harness builds that instance (`build_instance`), measures
how far new combination tasks sit from the adversarially learned span
against the high-probability angle bound (`new_task_angle_stats`), and
prices an allocation of basis-task accuracies (`sample_complexity_ledger`),
whose minimum over allocations is d k^{1.5} / eps. The proof's other steps
(the closed-form subspace angle, the exhaustive exceedance sweep, the
adversary's answer to a combination task and the balanced-subset filter)
live in `tests/oracle.py`, next to the tests that check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Subspace, orthonormalize, row_blocks
from .synthetic import NS_LB_PATTERNS, NS_LB_TRIALS, rng_substream

# Most tasks scored per block: the exceedance statistic holds 8 bytes per
# task plus one block of (k+1)-column rows, whatever the number of tasks.
TRIAL_BLOCK = 1024


@dataclass(frozen=True)
class LowerBoundInstance:
    """The hard task sequence in R^{k+1}: axis tasks plus Bernoulli combination
    tasks, with coordinate k left spare for the adversary."""

    k: int
    patterns: np.ndarray  # (n_random, k) the Bernoulli draws
    eps_vector: np.ndarray  # (k,) per-basis-task learner accuracy
    S: tuple  # coordinate subset the combinations are supported on
    seed: int

    def __post_init__(self):
        if not np.all((self.eps_vector >= 0.0) & (self.eps_vector < 0.5)):
            raise ValueError("eps entries must lie in [0, 1/2)")
        outside = [j for j in range(self.k) if j not in set(self.S)]
        if outside and self.patterns.size:
            if np.max(np.abs(self.patterns[:, outside])) > 0.0:
                raise ValueError("random tasks must be supported on S")

    @property
    def d(self) -> int:
        return self.k + 1

    def adversarial_span(self) -> Subspace:
        """Span of the estimates for the subset S."""
        return orthonormalize(_adversarial_estimates(self.eps_vector)[list(self.S)])


@dataclass(frozen=True)
class AngleStats:
    angles: np.ndarray
    threshold: float
    fraction_exceeding: float
    bound: float  # 1 - exp(-|S|/128)


@dataclass(frozen=True)
class LedgerReport:
    basis_cost: float
    new_task_cost: float
    total: float
    feasible: bool  # adversarial angle of the allocation within eps_target
    holder_bound: float  # d * k^1.5 / eps_target
    holder_ok: bool  # basis_cost >= holder_bound whenever sum eps_i^2 <= eps^2


def _draw_patterns(rng: np.random.Generator, n: int, k: int, cols) -> np.ndarray:
    """(n, k) Bernoulli(1/2) patterns supported on `cols`, all-zero draws redrawn.

    The rows still missing are drawn as one block, its nonzero rows kept in
    order, until n are kept. Every entry costs exactly one 32-bit draw, so
    this takes the same stream as drawing row by row, redrawing each zero.
    """
    patterns = np.zeros((n, k))
    kept = 0
    while kept < n:
        block = rng.integers(0, 2, size=(n - kept, len(cols)))
        block = block[block.any(axis=1)]
        patterns[kept : kept + len(block), cols] = block
        kept += len(block)
    return patterns


def _tasks(patterns: np.ndarray) -> np.ndarray:
    """Unit tasks in R^{k+1} for (n, k) patterns; the spare coordinate is 0."""
    n, k = patterns.shape
    tasks = np.zeros((n, k + 1))
    tasks[:, :k] = patterns / np.sqrt(patterns.sum(axis=1))[:, None]
    return tasks


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


def _adversarial_estimates(eps: np.ndarray) -> np.ndarray:
    """The learner's answer to each axis task e_i: tilted by eps_i into e_k."""
    k = eps.size
    axes = np.eye(k, k + 1)
    return np.array([adversarial_learn(axes[i], float(eps[i]), k) for i in range(k)])


def build_instance(
    k: int, n_random: int, seed: int, eps_vector, subset=None
) -> LowerBoundInstance:
    """Deterministic hard instance in R^{k+1}; zero Bernoulli draws redrawn."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_random < 0:
        raise ValueError("n_random must be >= 0")
    eps = np.asarray(eps_vector, dtype=float).ravel()
    if eps.shape != (k,):
        raise ValueError(f"eps_vector must have length {k}")
    if not np.all((eps > 0.0) & (eps < 0.5)):  # NaN fails both comparisons
        raise ValueError("eps entries must lie in (0, 1/2)")
    S = tuple(range(k)) if subset is None else tuple(sorted(set(subset)))
    if not S or any(i < 0 or i >= k for i in S):
        raise ValueError("subset must be a nonempty subset of range(k)")
    rng = rng_substream(seed, NS_LB_PATTERNS)
    patterns = _draw_patterns(rng, n_random, k, list(S))
    return LowerBoundInstance(k=k, patterns=patterns, eps_vector=eps, S=S, seed=seed)


def _score(instance: LowerBoundInstance, n: int, block_patterns) -> AngleStats:
    """The exceedance statistic of n tasks, scored one block of rows at a time.

    `block_patterns(rows)` gives the patterns of the tasks in the slice
    `rows`; it is called for the blocks of `row_blocks(n, TRIAL_BLOCK)` in
    order.

    Requires the balance condition on eps over S: no entry above twice the
    RMS. The exceedance threshold is (1/16) * sqrt(sum of eps_i^2 over S),
    counted inclusively. The check, the adversarial span and the threshold
    are computed once; only the angles array grows with n.
    """
    eps_S = instance.eps_vector[list(instance.S)]
    rms = math.sqrt(float(np.sum(eps_S**2)) / len(instance.S))
    if np.any(eps_S > 2.0 * rms + 1e-12):
        worst = float(eps_S.max())
        raise ValueError(
            f"balance condition violated: max eps {worst} exceeds 2*RMS {2 * rms}"
        )
    B = instance.adversarial_span().basis  # (d, |S|)
    angles = np.empty(n)
    for rows in row_blocks(n, TRIAL_BLOCK):
        resid = _tasks(block_patterns(rows))
        resid -= (resid @ B) @ B.T
        norms = np.linalg.norm(resid, axis=1)
        angles[rows] = np.arcsin(np.clip(norms, 0.0, 1.0))
    threshold = math.sqrt(float(np.sum(eps_S**2))) / 16.0
    return AngleStats(
        angles=angles,
        threshold=threshold,
        fraction_exceeding=float(np.mean(angles >= threshold)),
        bound=1.0 - math.exp(-len(instance.S) / 128.0),
    )


def _exceedance(instance: LowerBoundInstance, patterns: np.ndarray) -> AngleStats:
    """Angles of the patterns' tasks to the adversarially learned span."""
    return _score(instance, patterns.shape[0], patterns.__getitem__)


def new_task_angle_stats(
    instance: LowerBoundInstance, trials: int | None = None
) -> AngleStats:
    """The exceedance statistic of Bernoulli combination tasks.

    With `trials` given, draws that many fresh patterns from a dedicated
    substream, at most TRIAL_BLOCK at a time, each block drawn and scored
    before the next; otherwise evaluates the instance's own random tasks.
    """
    if trials is None:
        if instance.patterns.shape[0] == 0:
            raise ValueError("instance has no random tasks; pass trials")
        return _exceedance(instance, instance.patterns)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng_substream(instance.seed, NS_LB_TRIALS)
    k, cols = instance.k, list(instance.S)

    def draw(rows: slice) -> np.ndarray:
        return _draw_patterns(rng, rows.stop - rows.start, k, cols)

    return _score(instance, trials, draw)


def allocation_cost(d: int, k: int, allocation, eps_target: float, n_random: int):
    """Pure cost arithmetic: basis tasks at d/eps_i each, new tasks at k/eps."""
    alloc = np.asarray(allocation, dtype=float).ravel()
    if alloc.size != k or not np.all((alloc > 0.0) & np.isfinite(alloc)):
        raise ValueError("allocation must give a positive eps to each basis task")
    if not (0.0 < eps_target < math.inf):  # NaN fails both comparisons
        raise ValueError("eps_target must be positive and finite")
    basis = float(d * np.sum(1.0 / alloc))
    new = float(n_random) * k / eps_target
    return basis, new


def sample_complexity_ledger(
    instance: LowerBoundInstance, eps_target: float, allocation
) -> LedgerReport:
    """Cost of an allocation and whether it beats the Holder floor.

    An allocation succeeds only if the adversarial angle it leaves,
    arctan of the norm of its S-restriction, is within eps_target; any
    such allocation has sum of squares <= tan(eps)^2 and therefore basis
    cost >= d k^1.5 / eps up to the tan/identity slack.
    """
    alloc = np.asarray(allocation, dtype=float).ravel()
    basis, new = allocation_cost(
        instance.d, instance.k, alloc, eps_target, instance.patterns.shape[0]
    )
    angle = math.atan(float(np.linalg.norm(alloc[list(instance.S)])))
    feasible = bool(angle <= eps_target)
    bound = instance.d * instance.k**1.5 / eps_target
    budget_ok = float(np.sum(alloc**2)) <= eps_target * eps_target + 1e-15
    holder_ok = bool(basis >= bound * (1.0 - 1e-12)) if budget_ok else True
    return LedgerReport(
        basis_cost=basis,
        new_task_cost=new,
        total=basis + new,
        feasible=feasible,
        holder_bound=bound,
        holder_ok=holder_ok,
    )
