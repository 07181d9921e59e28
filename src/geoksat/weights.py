"""Power-law and explicit variable-weight sequences with exact moments.

The power-law sequence with exponent beta > 2 is w_i = i^(-1/(beta-1)) for
i = 1..n (1-based in the formula, stored 0-based).  Moments are computed by
exact compensated summation; the closed-form asymptotics serve only as test
oracles, never as runtime substitutes.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

POWER_LAW = "power_law"
UNIFORM = "uniform"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class WeightSequence:
    weights: np.ndarray
    kind: str = EXPLICIT
    beta: float | None = None
    total: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("all weights must be positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total", math.fsum(w))

    def __len__(self):
        return len(self.weights)

    @property
    def n(self):
        return len(self.weights)

    @cached_property
    def probabilities(self):
        """Sampling probabilities p_i = w_i / W."""
        return self.weights / self.total

    @cached_property
    def _descending_prob_cumsum(self):
        p = np.sort(self.probabilities)[::-1]
        return np.cumsum(p)


def check_beta(beta):
    """Reject a power-law exponent of 2 or less (or nan)."""
    if not beta > 2:
        raise ValueError("beta must be > 2 (power-law weights require "
                         f"exponent above 2), got {beta}")


def power_law_weights(n, beta):
    """w_i = i^(-1/(beta-1)), i = 1..n, decreasing; requires beta > 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_beta(beta)
    i = np.arange(1, n + 1, dtype=float)
    return WeightSequence(i ** (-1.0 / (beta - 1.0)), kind=POWER_LAW, beta=float(beta))


def uniform_weights(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    return WeightSequence(np.ones(n), kind=UNIFORM)


def explicit_weights(values):
    return WeightSequence(np.asarray(values, dtype=float), kind=EXPLICIT)


def weights_from_file(path):
    """Load an explicit weight sequence, one weight per line.

    Blank lines and lines starting with '#' are skipped.
    """
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(float(line))
    return explicit_weights(values)


def prefix_mass(ws, i):
    """Sum of the i largest sampling probabilities (1 <= i <= n)."""
    if not 1 <= i <= ws.n:
        raise ValueError(f"i must be in [1, {ws.n}], got {i}")
    return float(ws._descending_prob_cumsum[i - 1])


def second_moment(ws):
    """Sum of squared sampling probabilities, by exact summation."""
    return math.fsum(w * w for w in ws.weights) / ws.total**2


def power_law_total_asymptotic(n, beta):
    """Leading-order closed form for sum_i i^(-1/(beta-1)): test oracle only."""
    return (beta - 1.0) / (beta - 2.0) * n ** ((beta - 2.0) / (beta - 1.0))
