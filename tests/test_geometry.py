import math

import numpy as np
import pytest

from lllsim.geometry import (
    Subspace,
    extend,
    orthonormalize,
    principal_angles,
)
from oracle import dist_to_subspace, gram_schmidt_loop, project

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def test_orthonormalize_orthonormal_input_is_own_basis():
    S = orthonormalize([E1, E2])
    assert S.ambient_dim == 3
    assert S.dim == 2
    # span check: both generators reproduce themselves under projection
    assert np.allclose(project(E1, S), E1, atol=1e-12)
    assert np.allclose(project(E2, S), E2, atol=1e-12)


def test_orthonormalize_collapses_duplicate_direction():
    S = orthonormalize([E1, 2.0 * E1])
    assert S.dim == 1
    assert np.allclose(np.abs(S.basis[:, 0]), E1, atol=1e-12)


def test_orthonormalize_hand_gram_schmidt_trace():
    # second column: (1,1,0) - <(1,1,0),e1> e1 = e2, unit already
    S = orthonormalize([E1, E1 + E2])
    assert S.dim == 2
    assert np.allclose(S.basis[:, 0], E1, atol=1e-12)
    assert np.allclose(np.abs(S.basis[:, 1]), E2, atol=1e-10)


def test_orthonormalize_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        orthonormalize([])
    with pytest.raises(ValueError):
        orthonormalize([E1, np.array([1.0, 0.0])])


def _extended_one_by_one(vectors):
    V = None
    for v in vectors:
        V = extend(V, v)
    return V


@pytest.mark.parametrize("seed", range(4))
def test_extend_one_at_a_time_is_orthonormalize_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    vs = list(rng.standard_normal((7, 50)))
    S = _extended_one_by_one(vs)
    assert np.array_equal(S.basis, gram_schmidt_loop(vs))
    assert np.array_equal(S.basis, orthonormalize(vs).basis)
    # extending a prefix's basis gives the whole list's basis
    V = orthonormalize(vs[:4])
    for v in vs[4:]:
        V = extend(V, v)
    assert np.array_equal(V.basis, S.basis)


def test_extend_drops_an_exactly_dependent_vector():
    rng = np.random.default_rng(11)
    u, w = rng.standard_normal((2, 9))
    V = orthonormalize([u, w])
    assert extend(V, 2.0 * u) is V
    assert extend(V, np.zeros(9)) is V
    assert extend(None, np.zeros(9)) is None
    vs = [u, w, 3.0 * w, rng.standard_normal(9)]
    S = _extended_one_by_one(vs)
    assert S.dim == 3
    assert np.array_equal(S.basis, gram_schmidt_loop(vs))


def test_extend_stops_once_the_space_is_full():
    rng = np.random.default_rng(5)
    vs = list(rng.standard_normal((6, 4)))
    full = orthonormalize(vs[:4])
    assert full.dim == 4
    assert extend(full, vs[4]) is full
    S = _extended_one_by_one(vs)
    assert np.array_equal(S.basis, gram_schmidt_loop(vs))
    assert np.array_equal(S.basis, full.basis)
    assert np.allclose(S.basis.T @ S.basis, np.eye(4), atol=1e-12)


def test_extend_rejects_a_vector_of_another_length():
    with pytest.raises(ValueError):
        extend(orthonormalize([E1]), np.array([1.0, 0.0]))


def test_basis_orthonormality_invariant():
    rng = np.random.default_rng(7)
    vs = [rng.standard_normal(6) for _ in range(4)]
    S = orthonormalize(vs)
    G = S.basis.T @ S.basis
    assert np.allclose(G, np.eye(S.dim), atol=1e-8)


def test_project_examples():
    S1 = orthonormalize([E1])
    S2 = orthonormalize([E2])
    assert np.allclose(project(E1, S1), E1, atol=1e-12)
    assert np.allclose(project(E1, S2), np.zeros(3), atol=1e-12)
    assert np.allclose(project(np.array([1.0, 1.0, 0.0]), S1), E1, atol=1e-12)


def test_project_dimension_mismatch():
    S = orthonormalize([E1])
    with pytest.raises(ValueError):
        project(np.array([1.0, 0.0]), S)


def test_dist_examples():
    S = orthonormalize([E1])
    assert dist_to_subspace(E1, S) == pytest.approx(0.0, abs=1e-12)
    assert dist_to_subspace(E2, S) == pytest.approx(1.0, abs=1e-12)
    v = (E1 + E2) / math.sqrt(2.0)
    assert dist_to_subspace(v, S) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_principal_angles_examples():
    F = orthonormalize([E1, E2])
    assert principal_angles(F, F)[0] == pytest.approx(0.0, abs=1e-8)
    A = principal_angles(orthonormalize([E1]), orthonormalize([E2]))
    assert A.shape == (1,)
    assert A[0] == pytest.approx(math.pi / 2, abs=1e-12)
    B = principal_angles(
        orthonormalize([E1]), orthonormalize([(E1 + E2) / math.sqrt(2.0)])
    )
    assert B[0] == pytest.approx(math.pi / 4, abs=1e-12)


def test_principal_angles_sorted_descending_and_in_range():
    rng = np.random.default_rng(3)
    F = orthonormalize([rng.standard_normal(8) for _ in range(3)])
    G = orthonormalize([rng.standard_normal(8) for _ in range(4)])
    A = principal_angles(F, G)
    assert A.shape == (3,)
    assert np.all(np.diff(A) <= 1e-15)
    assert np.all(A >= 0.0) and np.all(A <= math.pi / 2 + 1e-12)
    # symmetry
    B = principal_angles(G, F)
    assert np.allclose(A, B, atol=1e-10)


def test_pythagoras_and_idempotence_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d))
        S = orthonormalize([rng.standard_normal(d) for _ in range(r)])
        x = rng.standard_normal(d)
        px = project(x, S)
        dx = dist_to_subspace(x, S)
        assert np.dot(x, x) == pytest.approx(np.dot(px, px) + dx * dx, abs=1e-8)
        assert np.allclose(project(px, S), px, atol=1e-10)


def test_principal_angle_basis_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = 7
        F = orthonormalize([rng.standard_normal(d) for _ in range(3)])
        G = orthonormalize([rng.standard_normal(d) for _ in range(2)])
        # rotate F's basis columns by a random orthogonal matrix: same subspace
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        F2 = Subspace(basis=F.basis @ Q)
        a = principal_angles(F, G)
        b = principal_angles(F2, G)
        assert np.allclose(a, b, atol=1e-8)


def test_adversarial_closed_form_arctan():
    # span of the columns of [I_k; s^T] vs span(e_1..e_k): max angle arctan(|s|)
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        s = rng.standard_normal(k)
        s *= rng.uniform(0.05, 0.5) / np.linalg.norm(s)
        cols = [np.concatenate([np.eye(k)[i], [s[i]]]) for i in range(k)]
        V = orthonormalize(cols)
        U = orthonormalize([np.concatenate([np.eye(k)[i], [0.0]]) for i in range(k)])
        got = principal_angles(V, U)[0]
        assert got == pytest.approx(math.atan(np.linalg.norm(s)), abs=1e-8)


def test_containment_means_zero_max_angle():
    rng = np.random.default_rng(19)
    F = orthonormalize([rng.standard_normal(6) for _ in range(2)])
    # G spans F plus extra directions; all principal angles of (F, G) vanish
    G = orthonormalize(
        [F.basis[:, 0], F.basis[:, 1], rng.standard_normal(6), rng.standard_normal(6)]
    )
    # arccos near 1 turns 1e-15 roundoff into ~1e-7 angle; that is inherent
    assert principal_angles(F, G)[0] == pytest.approx(0.0, abs=1e-6)

