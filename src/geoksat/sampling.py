"""Sequential weighted sampling without replacement, vectorised over rows.

Each row draws k distinct indices one after another, each with probability
proportional to its weight among the indices not yet drawn in that row.
Draw j inverts its uniform against one cumulative sum of the full weight
vector: the target ``u * (remaining mass)`` is searched in the cumsum, and
each earlier pick of the row at or below the hit shifts the target up by
its weight (at most k - 1 corrections).  Every search is the indexed
search of Chen and Asau (AIIE Transactions 6, 1974): a guide table, built
once per call, splits the total mass into n buckets of equal mass and
holds the first cumsum index of each, so a target's bucket is one division
away and the search within it takes a few probes, not log2(n).  It returns
exactly what ``np.searchsorted(cum, t, side="right")`` returns.  The cost
is O(k^2) vector passes of O(m * probes) each plus O(n log n) for the
table, in O(m k + n) memory.

The cumsum carries a rounding error of up to about n * eps times the total.
A row whose undrawn mass is not far above that error (weights spanning
more than about 2^53), or whose search lands on a float edge (past the
end, on a zero weight or on an earlier pick), is drawn against a cumsum
of its own remaining weights instead, one row at a time.
"""

import numpy as np

# a row draws against its own cumsum when its undrawn mass falls below this
# multiple of n * eps * total, so the shared cumsum's rounding error stays
# below 2^-20 of the mass it draws from
_LOST_MASS = 2.0**20 * np.finfo(float).eps


def _draw_own(w, taken, u):
    """One draw against the cumsum of the weights not yet ``taken``."""
    own = w.copy()
    own[taken] = 0.0
    cum = np.cumsum(own)
    x = int(np.searchsorted(cum, u * cum[-1], side="right"))
    # float edge: the last positive-weight index not yet drawn
    return x if x < len(w) else int(np.flatnonzero(own)[-1])


def _guide_table(cum):
    """Chen-Asau guide table of ``cum``: n buckets of mass h = total / n,
    ``guide[b]`` the searchsorted index of b * h (0 for b = 0, n for b = n),
    and the probes that bisect the widest bucket."""
    n = len(cum)
    h = cum[-1] / n
    guide = np.empty(n + 1, dtype=np.int64)
    guide[:n] = np.searchsorted(cum, np.arange(n) * h, side="right")
    guide[0] = 0  # a row whose undrawn mass rounds below 0 searches from 0
    guide[n] = n
    return guide, h, int(np.diff(guide).max()).bit_length()


def _search(cum, table, t):
    """``np.searchsorted(cum, t, side="right")`` through the guide table."""
    guide, h, probes = table
    n = len(cum)
    b = np.clip(t / h, 0, n - 1).astype(np.int64)
    # floor(t / h) is one too high for t an ulp below b * h, never too low
    # where it matters: t above b * h has t / h > b, and t equal to b * h
    # has the answer guide[b], the top of bucket b - 1; one step down puts
    # the answer in [guide[b], guide[b + 1]]
    b -= b * h > t
    x = guide[np.maximum(b, 0)]
    # a binary search over the next 2^probes - 1 entries, more than the
    # widest bucket; a probe past the end reads the total, so a t at or
    # above it overshoots n
    for step in (1 << p for p in reversed(range(probes))):
        np.add(x, step, out=x, where=cum.take(x + (step - 1), mode="clip") <= t)
    return np.minimum(x, n, out=x)


def sequential_weighted_draws(weights, uniforms):
    """(m, k) int64 indices; row i draws len(uniforms[i]) distinct indices
    in order, draw j being the first index whose cumulative remaining
    weight exceeds ``uniforms[i, j]`` times the remaining mass.

    Zero-weight indices are never drawn; ``weights`` is not modified.
    """
    w = np.asarray(weights, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be 1-d")
    if u.ndim != 2:
        raise ValueError("uniforms must be an (m, k) array")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    m, k = u.shape
    positive = np.count_nonzero(w > 0)
    if positive < max(k, 1):
        raise ValueError(f"need at least {max(k, 1)} positive-weight items, "
                         f"got {positive}")
    n = len(w)
    cum = np.cumsum(w)
    table = _guide_table(cum)
    out = np.empty((m, k), dtype=np.int64)
    rest = np.full(m, cum[-1])  # mass not yet drawn, per row
    lost_below = _LOST_MASS * n * cum[-1]
    for j in range(k):
        target = u[:, j] * rest
        x = _search(cum, table, target)
        shift = np.zeros(m)
        # once a pick lies above the hit, every later (larger) pick does too
        for r in np.sort(out[:, :j], axis=1).T:
            below = np.flatnonzero(x >= r)
            if not len(below):
                break
            shift[below] += w[r[below]]
            x[below] = _search(cum, table, target[below] + shift[below])
        xc = np.minimum(x, n - 1)
        edge = (x >= n) | (w[xc] == 0) | np.any(out[:, :j] == xc[:, None], axis=1)
        for i in np.flatnonzero(edge | (rest <= lost_below)):
            x[i] = _draw_own(w, out[i, :j], u[i, j])
        out[:, j] = x
        rest -= w[x]
    return out

