"""Uniform point streams: pseudo-random and scrambled Sobol.

All sources emit points strictly inside the open hypercube: outputs are
clamped to [EPS, 1 - EPS] before anyone applies the inverse normal CDF, so
downstream transforms never see 0 or 1 and never produce infinities.
"""

import numpy as np
from scipy import stats

from .errors import UnsupportedDimensionError

# 2^-53 scaled up by 2^10: far enough from the endpoints that ndtri stays
# comfortably finite, tiny enough to leave the distribution undisturbed.
EPS = 2.0 ** -43

# scipy's Sobol direction-number table (Joe & Kuo) tops out here.
SOBOL_MAX_DIMENSION = 21201


def clamp(pts: np.ndarray) -> np.ndarray:
    """Points clipped into the open hypercube [EPS, 1 - EPS]^d."""
    return np.clip(pts, EPS, 1.0 - EPS)


class SequenceSource:
    """Common behaviour for the point streams.

    Subclasses fill in _raw(n) returning an (n, dimension) array; this class
    handles clamping and the emitted-point counter.  A source is single-owner
    mutable state: share datasets between runs, never sources.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        self.counter = 0

    def next_point(self) -> np.ndarray:
        """The next point of the stream, in the open hypercube (0,1)^d."""
        pt = clamp(self._raw(1)[0])
        self.counter += 1
        return pt

    def _raw(self, n: int) -> np.ndarray:
        raise NotImplementedError


class PseudoRandomSource(SequenceSource):
    def __init__(self, dimension: int, seed: int):
        super().__init__(dimension)
        self._rng = np.random.default_rng(seed)

    def _raw(self, n):
        return self._rng.random((n, self.dimension))


class SobolSource(SequenceSource):
    """Scrambled Sobol stream (Owen-style linear matrix scrambling, keyed by
    seed).  The index-0 point of the unscrambled sequence is the origin, which
    sits on the closed boundary, so the stream starts at index 1.
    """

    def __init__(self, dimension: int, seed: int):
        if dimension > SOBOL_MAX_DIMENSION:
            raise UnsupportedDimensionError(
                f"Sobol direction numbers available up to dimension "
                f"{SOBOL_MAX_DIMENSION}, got {dimension}"
            )
        super().__init__(dimension)
        self._engine = stats.qmc.Sobol(d=dimension, scramble=True, seed=seed)
        self._engine.fast_forward(1)

    def _raw(self, n):
        return self._engine.random(n)


_SOURCE_KINDS = {
    "pseudo-random": PseudoRandomSource,
    "sobol-scrambled": SobolSource,
}


def make_source(kind: str, dimension: int, seed: int) -> SequenceSource:
    try:
        cls = _SOURCE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown sequence kind {kind!r}") from None
    return cls(dimension, seed)
