"""Subspace primitives: orthonormal bases and angle computations.

Everything downstream (sampling, refinement, evaluation) speaks in terms of
these objects, so the conventions are fixed here once: bases are column
matrices with orthonormal columns, angles are in radians, and principal
angles come back sorted largest first.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def row_blocks(n: int, size: int) -> list[slice]:
    """ceil(n / size) consecutive slices over n rows, of nearly equal length,
    none longer than `size`.

    With size >= 4 only n = 1 gives a one-row block. numpy takes a one-row
    product through gemv, whose sums can round differently from gemm's, so
    a lone last row of a fixed-size split would move that row's result.
    """
    q = -(-n // size)
    return [slice(i * n // q, (i + 1) * n // q) for i in range(q)]


def extend(V: Subspace | None, v) -> Subspace | None:
    """V with the normalized residual of ``v`` appended as one more column.

    Two passes of modified Gram-Schmidt against V's columns. If the residual
    is below ``DROP_TOL`` times max(|v|, 1), or V fills the space, V comes
    back unchanged; None is the zero subspace. A column depends only on its
    vector and the columns before it, so `orthonormalize` is this step folded.
    """
    v = np.array(v, dtype=float).ravel()
    # contiguous rows: a strided dot may sum in another order
    cols = np.empty((0, v.size)) if V is None else np.ascontiguousarray(V.basis.T)
    if cols.shape[1] != v.size:
        raise ValueError("all vectors must share the same length")
    if len(cols) == v.size:
        return V
    scale = max(np.linalg.norm(v), 1.0)
    for _ in range(2):  # two passes: classic fix for loss of orthogonality
        for q in cols:
            v -= np.dot(q, v) * q
    nrm = np.linalg.norm(v)
    if nrm <= DROP_TOL * scale:
        return V
    return Subspace(basis=np.column_stack([*cols, v / nrm]))


def orthonormalize(vectors) -> Subspace:
    """Build an orthonormal basis for the span of ``vectors``.

    `extend` folded over the vectors: modified Gram-Schmidt with a second
    re-orthogonalization pass, dropping vectors whose residual falls below
    ``DROP_TOL`` (relative to their norm, with an absolute floor).
    """
    V = None
    for v in vectors:
        V = extend(V, v)
    if V is None:
        raise ValueError("vectors span only the zero subspace")
    return V


def principal_angles(F: Subspace, G: Subspace) -> np.ndarray:
    """Principal angles between two subspaces of the same ambient space.

    Returns min(dim F, dim G) angles in [0, pi/2] as a float array sorted
    descending, so element 0 is the largest angle. Cosines come from the
    singular values of B_F^T B_G; angles at or below pi/4 are instead taken
    from the sines of the smaller basis projected onto the orthogonal
    complement of the larger, which keeps tiny angles accurate where arccos
    alone loses half the working precision.
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
    return np.sort(angles)[::-1]
