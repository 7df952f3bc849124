"""Uniform point streams: pseudo-random and scrambled Sobol.

All sources emit points strictly inside the open hypercube: outputs are
clamped to [EPS, 1 - EPS] before anyone applies the inverse normal CDF, so
downstream transforms never see 0 or 1 and never produce infinities.
"""

from typing import Callable

import numpy as np

# 2^-53 scaled up by 2^10: far enough from the endpoints that ndtri stays
# comfortably finite, tiny enough to leave the distribution undisturbed.
EPS = 2.0 ** -43


def clamp(pts: np.ndarray) -> np.ndarray:
    """Points clipped into the open hypercube [EPS, 1 - EPS]^d."""
    return np.minimum(np.maximum(pts, EPS), 1.0 - EPS)


class SequenceSource:
    """A stream of points in the open hypercube: each next_point clamps the
    next n points from the draw function make_source chose.  One call for n
    points gives the same stream as n calls for one.  A source is
    single-owner mutable state: share datasets between runs, never sources.
    """

    def __init__(self, draw: Callable[[int], np.ndarray]):
        self._draw = draw

    def next_point(self, n: int) -> np.ndarray:
        """The next n points of the stream, as an (n, d) array in the open
        hypercube (0,1)^d."""
        return clamp(self._draw(n))


def make_source(kind: str, dimension: int, seed: int) -> SequenceSource:
    """A pseudo-random or scrambled Sobol stream of dimension-d points.

    The Sobol stream uses Owen-style linear matrix scrambling keyed by seed.
    It starts at index 1: fast_forward(1) shifts each block of S points off
    Sobol's 2^m nets.  The scramble already maps index 0 away from the
    origin, and clamp keeps every point off the boundary, so the skip stays
    only because tests/test_golden.py's RUN_DIGEST and the qmcvi values
    pinned in tests/test_driver.py were recorded on this stream.

    The first Sobol source in a process pays two one-time loads: the
    scipy.stats import and scipy's table of direction numbers.  A source
    holds no state shared with another, so harness.run_matrix builds a
    throwaway one in the parent before a fork pool starts, and its workers
    inherit both loads; no run's stream changes.
    """
    if kind not in ("pseudo-random", "sobol-scrambled"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if kind == "pseudo-random":
        rng = np.random.default_rng(seed)
        return SequenceSource(lambda n: rng.random((n, dimension)))
    # imported here: scipy.stats would be most of import yoasovi's time, and
    # only a Sobol source needs it
    from scipy.stats import qmc

    engine = qmc.Sobol(d=dimension, scramble=True, seed=seed)
    engine.fast_forward(1)
    return SequenceSource(engine.random)
