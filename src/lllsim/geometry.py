"""Subspace primitives: orthonormal bases, projections, and angle computations.

Everything downstream (sampling, refinement, evaluation) speaks in terms of
these objects, so the conventions are fixed here once: bases are column
matrices with orthonormal columns, angles are in radians, and principal
angles come back sorted largest first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Columns with residual norm below this after re-orthogonalization are
# treated as linearly dependent and dropped.
DROP_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^d held as an orthonormal column basis."""

    basis: np.ndarray  # (d, r), orthonormal columns

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[1] == 0 or B.shape[0] < B.shape[1]:
            raise ValueError(f"basis must be (d, r) with 1 <= r <= d, got {B.shape}")
        object.__setattr__(self, "basis", B)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class AngleSpectrum:
    """Principal angles between two subspaces, sorted descending."""

    angles: np.ndarray = field()

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("angles must be a nonempty 1-d array")
        if np.any(np.diff(a) > 1e-12):
            raise ValueError("angles must be sorted descending")
        object.__setattr__(self, "angles", a)

    @property
    def max(self) -> float:
        return float(self.angles[0])


def _as_matrix(vectors) -> np.ndarray:
    """Stack a sequence of equal-length vectors into a (d, n) column matrix."""
    vs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not vs:
        raise ValueError("need at least one vector")
    d = vs[0].size
    if any(v.size != d for v in vs):
        raise ValueError("all vectors must share the same length")
    return np.column_stack(vs)


def orthonormalize(vectors, drop_tol: float = DROP_TOL) -> Subspace:
    """Build an orthonormal basis for the span of ``vectors``.

    Modified Gram-Schmidt with a second re-orthogonalization pass for
    numerical stability; columns whose residual falls below ``drop_tol``
    (relative to the original column norm, with an absolute floor) are
    dropped as dependent.
    """
    A = _as_matrix(vectors)
    d = A.shape[0]
    cols: list[np.ndarray] = []
    for j in range(A.shape[1]):
        v = A[:, j].copy()
        scale = max(np.linalg.norm(v), 1.0)
        for _ in range(2):  # two passes: classic fix for loss of orthogonality
            for q in cols:
                v -= np.dot(q, v) * q
        nrm = np.linalg.norm(v)
        if nrm > drop_tol * scale:
            cols.append(v / nrm)
        if len(cols) == d:
            break
    if not cols:
        raise ValueError("vectors span only the zero subspace")
    return Subspace(basis=np.column_stack(cols))


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


def principal_angles(F: Subspace, G: Subspace) -> AngleSpectrum:
    """Principal angles between two subspaces of the same ambient space.

    Returns min(dim F, dim G) angles in [0, pi/2], sorted descending, so
    ``.max`` is the largest angle. Cosines come from the singular values
    of B_F^T B_G; angles at or below pi/4 are instead taken from the sines
    of the smaller basis projected onto the orthogonal complement of the
    larger, which keeps tiny angles accurate where arccos alone loses half
    the working precision.
    """
    if F.ambient_dim != G.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    small, large = (F, G) if F.dim <= G.dim else (G, F)
    r = small.dim
    sigma = np.linalg.svd(F.basis.T @ G.basis, compute_uv=False)
    cosines = np.clip(sigma[:r], -1.0, 1.0)  # descending, so angles ascend
    resid = small.basis - large.basis @ (large.basis.T @ small.basis)
    sines = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0))
    angles = np.where(cosines**2 >= 0.5, np.arcsin(sines), np.arccos(cosines))
    return AngleSpectrum(angles=np.sort(angles)[::-1])
