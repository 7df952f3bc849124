"""Single-draw acceptance rules and temperature schedules.

The acceptance probability compares a freshly estimated ELBO against the
last accepted one.  With the relative gain

    g = M * (L_new - L_prev) / |L_prev|

the naive rule accepts with probability min(1, 1 + g) and the metropolis
rule with min(1, exp(g)).  Both collapse to certain acceptance whenever the
new estimate is at least as good, so the only interesting regime is g < 0,
where metropolis is strictly more forgiving.
"""

import math
from dataclasses import dataclass

from .errors import DegenerateReferenceError, require_positive

RULE_KINDS = ("naive", "metropolis")
SCHEDULE_KINDS = ("constant", "log", "linear")


@dataclass(frozen=True)
class TemperatureSchedule:
    """kind is constant, log (k * ln t), or linear (k * t).  When k is left
    unset, constant schedules default to 1.5 and tempered ones to 1.0."""

    kind: str = "log"
    k: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.k is None:
            object.__setattr__(self, "k", 1.5 if self.kind == "constant" else 1.0)
        require_positive("k", self.k)


def temperature(schedule: TemperatureSchedule, t: int) -> float:
    """Temperature M at iteration t (1-based)."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if schedule.kind == "constant":
        return schedule.k
    if schedule.kind == "log":
        return schedule.k * math.log(t)
    return schedule.k * t


def accept_probability(kind: str, M: float, L_new: float, L_prev: float) -> float:
    """Probability of accepting L_new given reference L_prev under the rule
    named kind (one of RULE_KINDS).

    L_prev must be finite and nonzero, or -inf (the fresh-start sentinel,
    which accepts anything).  A reference of exactly zero leaves the
    relative gain undefined and is reported as such rather than silently
    patched.
    """
    if kind not in RULE_KINDS:
        raise ValueError(f"unknown acceptance rule {kind!r}")
    if not (M >= 0 and math.isfinite(M)):
        raise ValueError(f"temperature must be finite and >= 0, got {M}")
    if math.isnan(L_new):
        raise ValueError("L_new is NaN")
    if L_prev == -math.inf:
        return 1.0
    if L_prev == 0.0:
        raise DegenerateReferenceError(
            "reference ELBO is exactly zero; relative gain is undefined")
    if not math.isfinite(L_prev):
        raise ValueError(f"reference ELBO must be finite or -inf, got {L_prev}")
    if L_new >= L_prev:
        return 1.0
    g = M * (L_new - L_prev) / abs(L_prev)
    if kind == "naive":
        return max(0.0, 1.0 + g)
    return min(1.0, math.exp(g))


def decide(kind: str, M: float, L_new: float, L_prev: float, u: float) -> bool:
    """Accept iff the uniform draw u falls at or below the probability."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    return u <= accept_probability(kind, M, L_new, L_prev)
