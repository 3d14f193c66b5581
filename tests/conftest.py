import numpy as np
import pytest

from lllsim import driver


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments, maps in-process."""

    def __init__(self, made: list, max_workers: int, initializer, initargs):
        made.append((max_workers, initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorded_pools(monkeypatch):
    """(max_workers, initializer, initargs) of every pool run_trials starts.

    The pools are stand-ins that run the trials in this process.
    """
    made = []
    monkeypatch.setattr(
        driver, "ProcessPoolExecutor", lambda **kw: _RecordingPool(made, **kw)
    )
    return made


@pytest.fixture
def near_planted_rows():
    """Function of `seed` giving 8 unit rows near a random 3-dim subspace of R^10.

    Each row is a Gaussian combination of a rank-3 orthonormal basis plus
    N(0, 0.01^2) noise per coordinate, normalized.
    """

    def build(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        B = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        W = rng.standard_normal((8, 3)) @ B.T + 0.01 * rng.standard_normal((8, 10))
        return W / np.linalg.norm(W, axis=1)[:, None]

    return build
