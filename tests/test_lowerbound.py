import itertools
import math

import numpy as np
import pytest

from lllsim import lowerbound
from lllsim.lowerbound import (
    TRIAL_BLOCK,
    LedgerReport,
    LowerBoundInstance,
    _draw_patterns,
    _tasks,
    adversarial_learn,
    allocation_cost,
    build_instance,
    new_task_angle_stats,
    sample_complexity_ledger,
)
from lllsim.synthetic import rng_substream
from oracle import (
    adversarial_combination,
    adversarial_subspace_angle,
    dist_to_subspace,
    draw_patterns_loop,
    exhaustive_angle_stats,
    find_balanced_subset,
    unblocked_angle_stats,
)


def test_build_instance_basic_shape():
    inst = build_instance(k=2, n_random=5, seed=0, eps_vector=[0.1, 0.1])
    assert inst.d == 3
    tasks = _tasks(inst.patterns)
    assert tasks.shape == (5, 3)
    assert np.allclose(np.linalg.norm(tasks, axis=1), 1.0, atol=1e-12)
    assert np.all(np.isin(inst.patterns, [0.0, 1.0]))
    assert np.all(inst.patterns.sum(axis=1) >= 1)  # zero draws redrawn
    assert np.all(tasks[:, 2] == 0.0)  # supported on S = [k]


def test_build_instance_powers_of_two_count():
    inst = build_instance(k=16, n_random=256, seed=1, eps_vector=[0.1] * 16)
    assert _tasks(inst.patterns).shape[0] == 2 ** (16 // 2)


def test_build_instance_subset_support():
    inst = build_instance(k=4, n_random=20, seed=3, eps_vector=[0.1] * 4, subset=(0, 2))
    assert inst.S == (0, 2)
    assert np.all(inst.patterns[:, [1, 3]] == 0.0)


def test_build_instance_deterministic():
    a = build_instance(k=3, n_random=10, seed=9, eps_vector=[0.2, 0.1, 0.3])
    b = build_instance(k=3, n_random=10, seed=9, eps_vector=[0.2, 0.1, 0.3])
    assert np.array_equal(a.patterns, b.patterns)


def test_build_instance_validates():
    with pytest.raises(ValueError):
        build_instance(k=1, n_random=1, seed=0, eps_vector=[0.1])
    with pytest.raises(ValueError):
        build_instance(k=2, n_random=1, seed=0, eps_vector=[0.1, 0.5])
    with pytest.raises(ValueError):
        build_instance(k=2, n_random=1, seed=0, eps_vector=[0.1])
    for eps in ([float("nan"), 0.1], [0.1, float("nan")]):
        with pytest.raises(ValueError, match="eps entries must lie in"):
            build_instance(k=2, n_random=1, seed=0, eps_vector=eps)


def test_block_draw_matches_row_by_row_draw_bitwise():
    k = 16
    redrawn = 0
    for seed in range(60):
        for s in (1, 2, 16):
            cols = sorted(np.random.default_rng(seed).choice(k, s, replace=False))
            for n in (0, 1, 7, 100):
                a, b = rng_substream(seed, 11), rng_substream(seed, 11)
                got = _draw_patterns(a, n, k, cols)
                want = draw_patterns_loop(b, n, k, cols)
                assert got.dtype == want.dtype and got.shape == (n, k)
                assert got.tobytes() == want.tobytes()
                # both took exactly the same stretch of the stream
                assert np.array_equal(a.integers(0, 2**32, 4), b.integers(0, 2**32, 4))
                first = rng_substream(seed, 11).integers(0, 2, size=(n, s))
                redrawn += int((~first.any(axis=1)).sum())
    assert redrawn > 0  # some cases had an all-zero row to redraw


def test_instance_rejects_patterns_off_subset():
    with pytest.raises(ValueError, match="supported on S"):
        LowerBoundInstance(
            k=5, patterns=np.eye(5)[:1], eps_vector=np.full(5, 0.1), S=(1, 3), seed=0
        )


def test_instance_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps entries must lie in"):
        LowerBoundInstance(
            k=2,
            patterns=np.zeros((0, 2)),
            eps_vector=np.array([0.1, np.nan]),
            S=(0, 1),
            seed=0,
        )


def test_adversarial_angle_frozen_values():
    assert adversarial_subspace_angle([0.3]) == pytest.approx(
        math.atan(0.3), abs=1e-9
    )
    assert math.atan(0.3) == pytest.approx(0.2914567944778671, abs=1e-15)
    assert adversarial_subspace_angle([0.0, 0.0]) == pytest.approx(0.0, abs=1e-8)
    # equal split: arctan of the total norm
    eps = 0.2
    k = 4
    assert adversarial_subspace_angle([eps / math.sqrt(k)] * k) == pytest.approx(
        math.atan(eps), abs=1e-9
    )


def test_adversarial_angle_closed_form_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        eps = rng.uniform(0.01, 0.49, size=k)
        eps *= min(1.0, rng.uniform(0.05, 0.5) / np.linalg.norm(eps))
        got = adversarial_subspace_angle(eps)
        assert got == pytest.approx(math.atan(np.linalg.norm(eps)), abs=1e-6)


def test_new_task_angles_all_equal_large_s():
    k = 64
    eps = [0.25 / math.sqrt(k)] * k
    inst = build_instance(k=k, n_random=0, seed=5, eps_vector=eps)
    stats = new_task_angle_stats(inst, trials=2000)
    assert stats.bound == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    assert stats.fraction_exceeding >= stats.bound
    assert stats.threshold == pytest.approx(0.25 / 16.0, abs=1e-12)
    assert stats.angles.shape == (2000,)


def test_new_task_angles_instance_tasks_mode():
    inst = build_instance(k=8, n_random=100, seed=2, eps_vector=[0.08] * 8)
    stats = new_task_angle_stats(inst)
    assert stats.angles.shape == (100,)
    empty = build_instance(k=8, n_random=0, seed=2, eps_vector=[0.08] * 8)
    with pytest.raises(ValueError):
        new_task_angle_stats(empty)


class _ZeroRowCounter(np.random.Generator):
    """A generator that counts the all-zero rows among its `integers` draws."""

    def __init__(self, bit_generator, counts: list):
        super().__init__(bit_generator)
        self.counts = counts

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.counts.append((len(out), int((~out.any(axis=1)).sum())))
        return out


@pytest.mark.parametrize("subset", [None, (3, 11)])
def test_blocked_angle_stats_match_unblocked_oracle_bitwise(monkeypatch, subset):
    # trial counts that a fixed split into TRIAL_BLOCK rows would leave as
    # one short block, one full block, a full block and a lone row, and two
    # full blocks and 3 rows; a lone row scored by itself rounds differently
    # in about half of these seeds. On two coordinates a quarter of all
    # draws are redrawn zeros.
    counts = []

    def substream(seed, *path):
        return _ZeroRowCounter(rng_substream(seed, *path).bit_generator, counts)

    monkeypatch.setattr(lowerbound, "rng_substream", substream)
    sizes = (TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 2 * TRIAL_BLOCK + 3)
    for seed, trials in itertools.product(range(8), sizes):
        inst = build_instance(16, 0, seed=seed, eps_vector=[0.02] * 16, subset=subset)
        counts.clear()
        got = new_task_angle_stats(inst, trials)
        want, redrawn = unblocked_angle_stats(inst, trials)
        assert got.angles.dtype == want.angles.dtype
        assert got.angles.tobytes() == want.angles.tobytes()
        assert got.fraction_exceeding == want.fraction_exceeding
        assert (got.threshold, got.bound) == (want.threshold, want.bound)
        drawn = sum(n for n, _ in counts)
        assert sum(z for _, z in counts) == redrawn == drawn - trials
        if subset is not None:
            assert 0.2 < redrawn / drawn < 0.3


def test_balance_condition_rejected():
    eps = [0.4, 0.01, 0.01, 0.01, 0.01]
    inst = build_instance(k=5, n_random=0, seed=0, eps_vector=eps)
    with pytest.raises(ValueError):
        new_task_angle_stats(inst, trials=10)


def test_exhaustive_matches_sampled():
    # two dominant entries at the balance cap give a nontrivial fraction
    s = 8
    big = 2
    q = 0.3
    cap = 2.0 * math.sqrt(q * q / s)
    eps = np.full(s, 1e-3)
    eps[:big] = cap * 0.98
    eps *= q / np.linalg.norm(eps)
    inst = build_instance(k=s, n_random=0, seed=7, eps_vector=eps)
    exh = exhaustive_angle_stats(inst)
    emp = new_task_angle_stats(inst, trials=4000)
    assert exh.angles.shape == (2**s - 1,)
    assert 0.0 < exh.fraction_exceeding < 1.0
    assert abs(emp.fraction_exceeding - exh.fraction_exceeding) <= 0.05


def test_adversarial_combination_stays_in_span():
    inst = build_instance(k=6, n_random=0, seed=11, eps_vector=[0.05] * 6)
    V = inst.adversarial_span()
    pattern = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    out = adversarial_combination(inst, pattern)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    assert dist_to_subspace(out, V) <= 1e-8


def test_adversarial_combination_rejects_non_binary_patterns():
    inst = build_instance(k=3, n_random=0, seed=0, eps_vector=[0.05] * 3)
    for bad in ([0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [2.0, 0.0, 0.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="0/1 vector"):
            adversarial_combination(inst, bad)


def test_find_balanced_subset_hand_trace():
    rep = find_balanced_subset([1.0, 1.0, 1.0, 2.0], p=0.5, C=2.0)
    assert rep.gamma == pytest.approx(math.sqrt(2.0 * math.log(8.0)), abs=1e-12)
    assert rep.gamma == pytest.approx(2.0393, abs=1e-4)
    # threshold gamma * sqrt(7/4) = 2.698 > 2, so nothing is dropped
    assert rep.S == (0, 1, 2, 3)
    assert rep.iterations == 1


def test_find_balanced_subset_all_equal():
    rep = find_balanced_subset([3.0] * 7, p=1.0 / 3.0, C=math.sqrt(2.0))
    assert rep.S == tuple(range(7))
    assert rep.iterations == 1


def test_find_balanced_subset_guarantee_random():
    rng = np.random.default_rng(13)
    p, C = 1.0 / 3.0, math.sqrt(2.0)
    for _ in range(100):
        k = int(rng.integers(3, 41))
        b = rng.uniform(1.0, C, size=k)  # mean <= C so min 1 >= mean/C
        rep = find_balanced_subset(b, p=p, C=C)
        assert len(rep.S) >= math.ceil((1.0 - p) * k) - 1e-9
        assert rep.iterations <= k
        vals = b[list(rep.S)]
        rms = math.sqrt(float(np.sum(vals**2)) / len(rep.S))
        assert np.all(vals <= rep.gamma * rms + 1e-12)


def test_find_balanced_subset_validates():
    with pytest.raises(ValueError):
        find_balanced_subset([1.0, 1.0, 0.1], p=0.5, C=math.sqrt(2.0))
    with pytest.raises(ValueError):
        find_balanced_subset([1.0, 1.0], p=0.0, C=2.0)
    with pytest.raises(ValueError):
        find_balanced_subset([1.0, 1.0], p=0.5, C=1.0)


def test_ledger_uniform_allocation_exact():
    k, eps = 4, 0.2
    inst = build_instance(k=k, n_random=3, seed=0, eps_vector=[0.1] * k)
    alloc = [eps / math.sqrt(k)] * k
    rep = sample_complexity_ledger(inst, eps_target=eps, allocation=alloc)
    assert rep.basis_cost == pytest.approx(inst.d * k**1.5 / eps, rel=1e-12)
    assert rep.new_task_cost == pytest.approx(3 * k / eps, rel=1e-12)
    assert rep.total == pytest.approx(rep.basis_cost + rep.new_task_cost, rel=1e-12)
    assert rep.holder_ok


def test_ledger_single_task_cost():
    basis, new = allocation_cost(d=2, k=1, allocation=[0.1], eps_target=0.1, n_random=0)
    assert basis == pytest.approx(2.0 / 0.1, rel=1e-12)
    assert new == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_allocation_cost_needs_positive_finite_eps(bad):
    with pytest.raises(ValueError, match="eps_target"):
        allocation_cost(d=2, k=2, allocation=[0.1, 0.1], eps_target=bad, n_random=0)
    with pytest.raises(ValueError, match="allocation"):
        allocation_cost(d=2, k=2, allocation=[0.1, bad], eps_target=0.1, n_random=0)


def test_ledger_skewed_allocation_costs_more():
    k, eps = 6, 0.12
    inst = build_instance(k=k, n_random=0, seed=1, eps_vector=[0.05] * k)
    uniform = np.full(k, eps / math.sqrt(k))
    skew = uniform.copy()
    skew[0] *= 2.0
    skew *= eps / np.linalg.norm(skew)  # keep the same squared budget
    rep_u = sample_complexity_ledger(inst, eps, uniform)
    rep_s = sample_complexity_ledger(inst, eps, skew)
    assert rep_s.basis_cost > rep_u.basis_cost
    assert rep_s.holder_ok and rep_u.holder_ok


def test_ledger_feasibility_flag():
    k = 4
    inst = build_instance(k=k, n_random=0, seed=0, eps_vector=[0.1] * k)
    # tiny allocation: angle arctan(norm) far below the target
    ok = sample_complexity_ledger(inst, 0.3, [0.3 / math.sqrt(k) * 0.9] * k)
    assert ok.feasible
    # huge allocation: angle exceeds the target
    bad = sample_complexity_ledger(inst, 0.05, [0.2] * k)
    assert not bad.feasible


def test_ledger_report_is_plain_data():
    rep = LedgerReport(
        basis_cost=1.0,
        new_task_cost=2.0,
        total=3.0,
        feasible=True,
        holder_bound=0.5,
        holder_ok=True,
    )
    assert rep.total == 3.0


def test_adversarial_learn_frozen_value():
    a = np.array([1.0, 0.0, 0.0])
    out = adversarial_learn(a, eps_i=0.1, adv_coord=2)
    expected = np.array([1.0, 0.0, 0.1]) / math.sqrt(1.01)
    assert np.allclose(out, expected, atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_adversarial_learn_zero_eps_and_distance_bound():
    a = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(adversarial_learn(a, 0.0, 3), a)
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        a = np.concatenate([v, [0.0]])
        eps = float(rng.uniform(0.0, 0.9))
        out = adversarial_learn(a, eps, k)
        assert np.linalg.norm(out - a) <= eps + 1e-12


def test_adversarial_learn_validates():
    a = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        adversarial_learn(a, 0.1, 5)
    with pytest.raises(ValueError):
        adversarial_learn(np.array([1.0, 0.5]), 0.1, 1)
    with pytest.raises(ValueError):
        adversarial_learn(a, 1.5, 1)
