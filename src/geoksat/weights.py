"""Power-law, uniform and file-given variable weights with exact moments.

A weight sequence is a plain 1-d float array; ``check_weights`` is the one
check every sequence passes (nonempty, finite, positive).  The power-law
sequence with exponent beta > 2 is w_i = i^(-1/(beta-1)) for i = 1..n
(1-based in the formula, stored 0-based).  Moments are computed by exact
compensated summation; the closed-form asymptotics serve only as test
oracles, never as runtime substitutes.
"""

import math

import numpy as np


def check_weights(values):
    """``values`` as a 1-d float array; rejects an empty sequence and any
    weight that is not positive and finite."""
    w = np.asarray(values, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("all weights must be positive and finite")
    return w


def check_beta(beta):
    """Reject a power-law exponent of 2 or less, infinite or nan."""
    if not 2 < beta < math.inf:
        raise ValueError("beta must be > 2 and finite (power-law weights "
                         f"require exponent above 2), got {beta}")


def power_law_weights(n, beta):
    """w_i = i^(-1/(beta-1)), i = 1..n, decreasing; requires beta > 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_beta(beta)
    return np.arange(1, n + 1, dtype=float) ** (-1.0 / (beta - 1.0))


def uniform_weights(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.ones(n)


def weights_from_file(path):
    """Load a weight sequence, one weight per line.

    Blank lines and lines starting with '#' are skipped.
    """
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(float(line))
    return check_weights(values)


def prefix_mass(w, i):
    """Sum of the i largest sampling probabilities w_j / W (1 <= i <= n)."""
    w = check_weights(w)
    if not 1 <= i <= len(w):
        raise ValueError(f"i must be in [1, {len(w)}], got {i}")
    return math.fsum(np.sort(w / math.fsum(w))[::-1][:i])


def second_moment(w):
    """Sum of squared sampling probabilities, by exact summation."""
    w = check_weights(w)
    return math.fsum(w * w) / math.fsum(w)**2


def power_law_total_asymptotic(n, beta):
    """Leading-order closed form for sum_i i^(-1/(beta-1)): test oracle only."""
    return (beta - 1.0) / (beta - 2.0) * n ** ((beta - 2.0) / (beta - 1.0))
