"""The two random k-SAT instance samplers.

Non-uniform model: each clause draws k variables sequentially without
replacement with probability proportional to their weights, then negates
each literal independently with probability 1/2.  The power-law model is
the non-uniform model with power-law weights.  All m clauses are drawn at
once by the cumsum/searchsorted kernel in ``sampling``.

Geometric model: variables and clauses get uniform positions on the torus;
for temperature T > 0 the k variables are drawn without repetition with
probabilities proportional to the connection weight X(c, v), while T = 0
deterministically takes the k variables of smallest weighted distance in
increasing order.  Sign patterns are drawn uniformly without repetition
per variable set until all 2^k are used.  Draw order is preserved in the
clause literals for downstream niceness analysis.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import GeometrySpec
from .sampling import sequential_weighted_draws
from .voronoi import (WeightedSites, knearest, random_sites, rank_k_smallest,
                      weighted_score_matrix)

# clauses per race block, which bounds the (block, n) score and key arrays;
# numpy fills exponentials in sequence, so the sampler's race stream does not
# depend on it, but nice_fraction_audit draws each block's points before its
# exponentials, so its records do
_CLAUSE_BLOCK = 1024

# smallest normal double: a race key below it has lost its significant digits
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Formula:
    """k-CNF formula; literals[i] is clause i as signed 1-based variable
    indices in draw order."""

    n: int
    k: int
    literals: np.ndarray

    def __post_init__(self):
        lits = np.asarray(self.literals, dtype=np.int64)
        if lits.ndim != 2 or lits.shape[1] != self.k:
            raise ValueError(f"literals must be (m, {self.k})")
        if lits.size:
            v = np.sort(np.abs(lits), axis=1)
            if v[:, 0].min() < 1 or v[:, -1].max() > self.n:
                raise ValueError("variable indices must lie in [1, n]")
            if np.any(v[:, 1:] == v[:, :-1]):
                raise ValueError("clauses must not repeat variables")
        object.__setattr__(self, "literals", lits)

    @property
    def m(self):
        return len(self.literals)

    def sorted_variable_sets(self):
        """(m, k) matrix of each clause's variable set, sorted ascending."""
        return np.sort(np.abs(self.literals), axis=1)


def formula_from_clauses(n, k, clauses):
    return Formula(n=n, k=k, literals=np.asarray(clauses, dtype=np.int64).reshape(-1, k))


@dataclass(frozen=True)
class GeometricInstance:
    """A geometric formula together with the geometry that generated it."""

    formula: Formula
    clause_positions: np.ndarray
    sites: WeightedSites
    g: GeometrySpec
    T: float


class SignLedger:
    """Tracks sign patterns already emitted per variable set.

    A pattern is a bitmask over the clause's sorted variable set (bit j set
    means the j-th smallest variable is negated).  Patterns are drawn
    uniformly among the unused ones; once all 2^k patterns of a set are
    used, further draws are uniform with replacement.
    """

    def __init__(self, k):
        self.k = k
        self._used = {}

    def draw_pattern(self, key, u):
        total = 1 << self.k
        used = self._used.setdefault(key, set())
        if len(used) < total:
            remaining = [p for p in range(total) if p not in used]
            pat = remaining[min(int(u * len(remaining)), len(remaining) - 1)]
            used.add(pat)
        else:
            pat = min(int(u * total), total - 1)
        return pat


def _resolve_weights(ws, n):
    w = np.asarray(ws, dtype=float)
    if len(w) != n:
        raise ValueError(f"weight sequence has length {len(w)}, expected {n}")
    return w


def sample_nonuniform_formula(n, m, k, ws, seed):
    """m independent clauses drawn sequentially proportional to weight,
    signs independent fair coins; deterministic for a fixed seed."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if m < 1:
        raise ValueError("m must be >= 1")
    w = _resolve_weights(ws, n)
    rng = np.random.default_rng(seed)
    draw_u = rng.random((m, k))
    negate = rng.random((m, k)) < 0.5
    var = sequential_weighted_draws(w, draw_u) + 1
    return Formula(n=n, k=k, literals=np.where(negate, -var, var))


def _race_keys(scores, g, T, rng):
    """Exponential-race keys for a (clauses, n) block of scores at T > 0:
    the k smallest of a row, in order, are k sequential draws proportional
    to X(c, v).  Consumes scores.shape exponentials E from ``rng``.

    Ranking E/X(c,v) is preserved under the monotone map y -> y^(T*q/d)
    with q = ``g.score_power``, which turns the key into E^e * score with
    score the rootless weighted-distance score.  A row with a key that
    overflows to inf or underflows to zero or a subnormal (large T) is
    ranked by log(score) + e*log(E) instead, the same order in the log
    domain (the Gumbel-top-k form of the race).
    """
    e = T * g.score_power / g.d
    state = rng.bit_generator.state
    # range errors are expected here and handled by the log-domain rows
    with np.errstate(all="ignore"):
        keys = scores * rng.standard_exponential(scores.shape) ** e
        bad = np.flatnonzero(~((keys.min(axis=1) >= _TINY)
                               & (keys.max(axis=1) < np.inf)))
        if len(bad):
            # the same exponentials again, replayed from the state before
            # the draw: holding on to a block's exponentials slows every
            # block, and only a high T overflows
            twin = np.random.Generator(type(rng.bit_generator)())
            twin.bit_generator.state = state
            expo = twin.standard_exponential((bad[-1] + 1, scores.shape[1]))[bad]
            keys[bad] = np.log(scores[bad]) + e * np.log(expo)
    return keys


def draw_geometric_clause_vars(clause_positions, sites, k, T, g, rng):
    """(count, k) variable indices for clauses at the given positions.

    T = 0: the k smallest weighted distances, increasing, ties by smaller
    index (``knearest``).  T > 0: sequential draws proportional to X(c, v),
    realized as an exponential race (smallest E_v / X(c,v) first), which
    has exactly the sequential-draw distribution.  Consumes (count, n)
    exponentials from ``rng`` when T > 0, in fixed-size clause blocks.
    """
    pts = np.atleast_2d(np.asarray(clause_positions, dtype=float))
    if T == 0:
        return knearest(pts, sites, k, g)
    out = np.empty((len(pts), k), dtype=np.int64)
    for a in range(0, len(pts), _CLAUSE_BLOCK):
        scores = weighted_score_matrix(pts[a:a + _CLAUSE_BLOCK], sites, g)
        out[a:a + len(scores)] = rank_k_smallest(_race_keys(scores, g, T, rng), k)
    return out


def _apply_sign_patterns(drawn, pattern_u):
    """Map the drawn variable matrix (0-based) to signed literals, with a
    fresh ledger applied in clause-index order.

    Clauses are grouped by variable set (lexsort of the sorted rows).  A
    set drawn once takes the first pattern of an empty ledger entry,
    floor(u * 2^k) capped at 2^k - 1; only sets drawn again go through
    ``SignLedger.draw_pattern``.
    """
    m, k = drawn.shape
    total = 1 << k
    sets = np.sort(drawn, axis=1)
    order = np.lexsort(sets.T[::-1])
    sorted_sets = sets[order]
    starts = np.ones(m, dtype=bool)
    starts[1:] = np.any(sorted_sets[1:] != sorted_sets[:-1], axis=1)
    group = np.cumsum(starts) - 1
    repeated = np.zeros(m, dtype=bool)
    repeated[order] = np.bincount(group)[group] > 1

    pat = np.minimum((pattern_u * total).astype(np.int64), total - 1)
    ledger = SignLedger(k)
    again = np.flatnonzero(repeated)
    pat[again] = [ledger.draw_pattern(key, u) for key, u in
                  zip(map(tuple, sets[again].tolist()), pattern_u[again].tolist())]
    rank_of = np.argsort(np.argsort(drawn, axis=1), axis=1)
    var = drawn + 1
    return np.where((pat[:, None] >> rank_of) & 1, -var, var)


def sample_geometric_formula(n, m, k, g, T, ws, seed):
    """Weighted geometric instance; deterministic for a fixed seed.

    Weights are min-1 normalized internally.  The RNG stream is consumed
    in a fixed order: variable positions, clause positions, sign-pattern
    uniforms, then per-block race exponentials (T > 0 only).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if T < 0:
        raise ValueError("temperature must be >= 0")
    w = _resolve_weights(ws, n) if ws is not None else None

    rng = np.random.default_rng(seed)
    sites = random_sites(n, g, rng, w)
    clause_pos = rng.random((m, g.d))
    pattern_u = rng.random(m)
    drawn = draw_geometric_clause_vars(clause_pos, sites, k, T, g, rng)
    literals = _apply_sign_patterns(drawn, pattern_u)
    formula = Formula(n=n, k=k, literals=literals)
    return GeometricInstance(formula=formula, clause_positions=clause_pos,
                             sites=sites, g=g, T=float(T))
