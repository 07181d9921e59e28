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
from .voronoi import WeightedSites, rank_k_smallest, weighted_score_matrix
from . import weights as weights_mod

# clause draws are processed in fixed-size blocks so that RNG stream
# consumption (and thus the instance) never depends on memory heuristics
_CLAUSE_BLOCK = 1024


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
            v = np.abs(lits)
            if v.min() < 1 or v.max() > self.n:
                raise ValueError("variable indices must lie in [1, n]")
            if np.any(np.sort(v, axis=1)[:, 1:] == np.sort(v, axis=1)[:, :-1]):
                raise ValueError("clauses must not repeat variables")
        object.__setattr__(self, "literals", lits)

    @property
    def m(self):
        return len(self.literals)

    def clause(self, i):
        return self.literals[i]

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

    @property
    def var_positions(self):
        return self.sites.positions


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

    def patterns(self, key):
        return frozenset(self._used.get(key, ()))

    def keys(self):
        return self._used.keys()


def _resolve_weights(ws, n):
    if isinstance(ws, weights_mod.WeightSequence):
        w = ws.weights
    else:
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


def _exponent_for_race(g, T):
    # ranking E/X(c,v) is preserved under the monotone map y -> y^(T*p/d)
    # (y -> y^(T/d) for the max norm), which turns the race key into
    # E^e * score with score the rootless weighted-distance score
    if g.is_max_norm:
        return T / g.d
    return T * int(g.p_norm) / g.d


def draw_geometric_clause_vars(clause_positions, sites, k, T, g, rng):
    """(count, k) variable indices for clauses at the given positions.

    T = 0: the k smallest weighted distances, increasing, ties by smaller
    index.  T > 0: sequential draws proportional to X(c, v), realized as
    an exponential race (smallest E_v / X(c,v) first), which has exactly
    the sequential-draw distribution.  Consumes (count, n) exponentials
    from ``rng`` when T > 0, in fixed-size clause blocks.
    """
    pts = np.atleast_2d(np.asarray(clause_positions, dtype=float))
    out = np.empty((len(pts), k), dtype=np.int64)
    e_exp = _exponent_for_race(g, T) if T > 0 else None
    for a in range(0, len(pts), _CLAUSE_BLOCK):
        block = pts[a:a + _CLAUSE_BLOCK]
        scores = weighted_score_matrix(block, sites, g)
        if T == 0:
            out[a:a + len(block)] = rank_k_smallest(scores, k)
        else:
            race = scores * rng.standard_exponential(scores.shape) ** e_exp
            out[a:a + len(block)] = rank_k_smallest(race, k)
    return out


def _apply_sign_patterns(drawn, ledger, pattern_u):
    """Map drawn variable matrix (0-based) to signed literals via the
    ledger, applied in clause-index order."""
    m, k = drawn.shape
    literals = np.empty((m, k), dtype=np.int64)
    order = np.argsort(drawn, axis=1, kind="stable")
    rank_of = np.empty_like(order)
    np.put_along_axis(rank_of, order, np.arange(k)[None, :].repeat(m, axis=0), axis=1)
    for i in range(m):
        key = tuple(int(v) for v in np.sort(drawn[i]))
        pat = ledger.draw_pattern(key, pattern_u[i])
        for t in range(k):
            v = int(drawn[i, t]) + 1
            literals[i, t] = -v if (pat >> rank_of[i, t]) & 1 else v
    return literals


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
    w = _resolve_weights(ws, n) if ws is not None else np.ones(n)

    rng = np.random.default_rng(seed)
    var_pos = rng.random((n, g.d))
    sites = WeightedSites.from_raw(var_pos, w)
    clause_pos = rng.random((m, g.d))
    pattern_u = rng.random(m)
    drawn = draw_geometric_clause_vars(clause_pos, sites, k, T, g, rng)
    literals = _apply_sign_patterns(drawn, SignLedger(k), pattern_u)
    formula = Formula(n=n, k=k, literals=literals)
    return GeometricInstance(formula=formula, clause_positions=clause_pos,
                             sites=sites, g=g, T=float(T))
