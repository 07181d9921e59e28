"""The two random k-SAT instance samplers.

Non-uniform model: each clause draws k variables sequentially without
replacement with probability proportional to their weights, then negates
each literal independently with probability 1/2.  The power-law model is
the non-uniform model with power-law weights.  All m clauses are drawn at
once by the cumsum kernel in ``sampling``, searched through a Chen-Asau
guide table.

Geometric model: variables and clauses get uniform positions on the torus;
for temperature T > 0 the k variables are drawn without repetition with
probabilities proportional to the connection weight X(c, v), while T = 0
deterministically takes the k variables of smallest weighted distance in
increasing order (``knearest``).  T > 0 draws are one exponential race:
each variable gets the key E_v / X(c, v) with E_v ~ Exp(1), and the k
smallest keys, in order, have the sequential-draw law.  Every key is ranked
in one form, as a log: log(score) + e * log(E_v), with score the rootless
weighted-distance score and e = T * q / d (``_race_block``).  At T < 1 the
race is lazy: each clause keys only its K weighted-nearest sites, selected
from the site set's cell table for K (``voronoi._rank_table``), and the
sites left out whose exponential is small enough to beat its k-th key,
found by geometric skips.  At T >= 1 every clause keys all n variables (the
walk at K = n).  Every score a key is made from, tail hits included, comes
from ``voronoi.weighted_score_matrix``.  Sign patterns are drawn uniformly
without repetition per variable set until all 2^k are used.  Draw order is
preserved in the clause literals for downstream niceness analysis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometrySpec
from .sampling import sequential_weighted_draws
from .voronoi import (_TIE_GAP, WeightedSites, _deepen, _rank_table,
                      check_positions, knearest, random_sites,
                      rank_k_smallest, set_codes, weighted_score_matrix)

# most clauses, and most clauses x K keys, per race block, which bound the
# block's score, key and exponential arrays; numpy fills exponentials in
# sequence, so the race stream does not depend on them
_CLAUSE_BLOCK = 1024
_SCAN_ENTRIES = 4_000_000

# the lazy race keys K = sum_j k * (n_j / _CANDIDATE_SCALE)^T candidates,
# n_j the sites of weight class [2^j, 2^(j+1)), so that a clause's tail hits
# do not grow with n: 0.4, 3.0 and 6.8 per clause at n = 2000, d = 2, k = 3,
# beta 2.5 and T 0.3, 0.5 and 0.9, and 3.9 at n = 10^4, T = 0.5.  A constant
# c in c * n_j^T instead draws hundreds of tail hits at T = 0.3
_CANDIDATE_SCALE = 48
# tail-process exponentials per clause in its block's draw; the clauses
# that need more (0 to 0.45% of them at those settings) finish after the
# last block
_TAIL_BUDGET = 32


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
        v = np.sort(np.abs(lits), axis=1)
        if lits.size:
            if v[:, 0].min() < 1 or v[:, -1].max() > self.n:
                raise ValueError("variable indices must lie in [1, n]")
            if np.any(v[:, 1:] == v[:, :-1]):
                raise ValueError("clauses must not repeat variables")
        v.flags.writeable = False
        object.__setattr__(self, "literals", lits)
        # kept outside the fields, so eq and repr see only the literals
        object.__setattr__(self, "_variable_sets", v)

    @property
    def m(self):
        return len(self.literals)

    def sorted_variable_sets(self):
        """(m, k) read-only matrix of each clause's variable set, sorted
        ascending: the one sort that validated the literals."""
        return self._variable_sets


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


def check_temperature(T):
    """Reject a temperature that is not a finite number >= 0."""
    if not 0 <= T < math.inf:
        raise ValueError(f"temperature must be >= 0 and finite, got {T}")


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


def _candidate_count(sites, k, T):
    """K = sum_j ceil(k * (n_j / _CANDIDATE_SCALE)^T), each term at least
    k + 2 and at most n_j, over the weight classes [2^j, 2^(j+1)) of n_j
    sites: the lazy race's candidates per clause."""
    sizes = np.bincount(np.frexp(sites.weights)[1])
    return sum(min(s, max(k + 2, math.ceil(k * (s / _CANDIDATE_SCALE)**T)))
               for s in sizes[sizes > 0].tolist())


def _race_block(points, sites, k, g, e, K, expo):
    """The race of ``draw_geometric_clause_vars`` for a block of points,
    over their K candidates and the sites left out that can still win.

    Row i's exponentials are ``expo[i]``: the first K key its K
    candidates, in increasing site index, the rest drive its tail process.
    Returns the (rows, k) ranking and the rows that ran out of
    exponentials, whose ranking is not set.

    The key of a site is log(score) + e * log(E) with e = T * q / d, q =
    ``g.score_power`` and score the rootless weighted-distance score: the
    log of (E / X(c, v))^(T*q/d) up to a constant, the same order (the
    Gumbel-top-k form of the race), and finite at every T, where the power
    itself leaves the float range.  A zero score or exponential keys as
    -inf.  The candidates are the row's K weighted-nearest sites from
    ``_rank_table``: at K = n all n sites, with no tail process; otherwise
    every site left out scores at least the largest of theirs, the tail's
    bound.
    """
    n = sites.n
    cand, scores = _rank_table(points, sites, K, g)
    rows = len(cand)
    with np.errstate(divide="ignore"):  # a zero score or exponential: -inf
        keys = np.log(scores) + e * np.log(expo[:, :K])
    sel = rank_k_smallest(keys, k)
    ranked = np.take_along_axis(cand, sel, axis=1)
    if K == n:
        return ranked, np.empty(0, dtype=np.int64)
    best = np.take_along_axis(keys, sel, axis=1)
    kth = best[:, -1]
    tail = expo[:, K:]
    with np.errstate(all="ignore"):
        # a site left out has key >= log(floor) + e * log(E), so it can beat
        # kth only if its E < tau
        floor = scores.max(axis=1) / (1.0 + _TIE_GAP)
        tau = np.exp((kth - np.log(floor)) / e)
        tau[np.isnan(tau)] = np.inf  # zero bound and zero key: all may win
        # Bernoulli(1 - exp(-tau)) hits over the n sites: an exponential x
        # skips floor(x / tau) of them and hits the next, whose own
        # exponential is x mod tau, truncated to [0, tau); the first x that
        # skips past the last site ends the row
        skip = np.minimum(tail / tau[:, None], n).astype(np.int64)
        at = np.cumsum(skip + 1, axis=1) - 1  # the site each x hits
        inside = at < n
        # rows whose tail did not end within the budget
        over = inside[:, -1]
        r, i = np.nonzero(inside & ~over[:, None])
        site = at[r, i]
        # a hit on one of the row's candidates is skipped: its key is set
        taken = (cand + np.arange(rows)[:, None] * n).ravel()
        code = r * n + site
        near = np.minimum(np.searchsorted(taken, code), len(taken) - 1)
        fresh = taken[near] != code
        hr, hs = r[fresh], site[fresh]
        he = np.fmod(tail[hr, i[fresh]], tau[hr])
        hit = weighted_score_matrix(points[hr], sites, g, hs[:, None])[:, 0]
        hk = np.log(hit) + e * np.log(he)
    # only a tail hit up to its row's k-th key can rank; every other row's
    # ranking is in (key, index) order already.  Merge each row that has
    # one with its k best candidates by (key, index), and take the first k
    beat = hk <= kth[hr]
    changed, slot = np.unique(hr[beat], return_inverse=True)
    row = np.concatenate((np.repeat(np.arange(len(changed)), k), slot))
    key = np.concatenate((best[changed].ravel(), hk[beat]))
    site = np.concatenate((ranked[changed].ravel(), hs[beat]))
    order = np.lexsort((site, key, row))
    first = np.searchsorted(row[order], np.arange(len(changed)))
    ranked[changed] = site[order][first[:, None] + np.arange(k)]
    return ranked, np.flatnonzero(over)


def _race(pts, sites, k, T, g, rng, K):
    """``draw_geometric_clause_vars`` at T > 0 by ``_race_block``, with K
    candidates per clause.

    Each row draws K exponentials, plus ``_TAIL_BUDGET`` when K < n, in row
    order and in blocks of at most ``_CLAUSE_BLOCK`` rows; rows that spend
    them all finish after the last block, in row order, with twice as many
    tail exponentials at each round (the first ones kept), so the stream
    does not depend on the block size.  With K = n a row draws exactly n
    exponentials.  When K < n the cell table for K deepens for every row
    before the first block (``voronoi._deepen``), so no block ranks on a
    coarser table than the last.
    """
    e = T * g.score_power / g.d
    budget = _TAIL_BUDGET if K < sites.n else 0
    if K < sites.n:
        _deepen(sites, K, g, len(pts))
    step = min(_CLAUSE_BLOCK, max(1, _SCAN_ENTRIES // K))
    out = np.empty((len(pts), k), dtype=np.int64)
    late = [np.empty(0, dtype=np.int64)]
    late_expo = [np.empty((0, K + budget))]
    for a in range(0, len(pts), step):
        block = pts[a:a + step]
        expo = rng.standard_exponential((len(block), K + budget))
        out[a:a + len(block)], over = _race_block(block, sites, k, g, e, K,
                                                  expo)
        late.append(a + over)
        late_expo.append(expo[over])
    late, expo = np.concatenate(late), np.concatenate(late_expo)
    while len(late):
        more = rng.standard_exponential((len(late), expo.shape[1] - K))
        expo = np.concatenate((expo, more), axis=1)
        out[late], over = _race_block(pts[late], sites, k, g, e, K, expo)
        late, expo = late[over], expo[over]
    return out


def draw_geometric_clause_vars(clause_positions, sites, k, T, g, rng):
    """(count, k) variable indices for clauses at the given positions.

    T = 0: the k smallest weighted distances, increasing, ties by smaller
    index (``knearest``).  T > 0: sequential draws proportional to X(c, v),
    realized as an exponential race (smallest E_v / X(c,v) first), which
    has exactly the sequential-draw distribution (``_race``).

    Clause positions must lie in [0, 1]^d, with d = ``g.d``.  At T < 1 the
    race is lazy: each clause keys only its K weighted-nearest sites
    (``_candidate_count``) and the sites left out whose exponential falls
    below the threshold that lets them beat its k-th key; those are found
    by geometric skips and keyed with their exponential truncated to the
    threshold.  Same law, with K + O(1) exponentials per clause.  At
    T >= 1 every clause keys all n sites.  A ValueError unless T is a
    finite number >= 0.
    """
    check_temperature(T)
    pts = check_positions(clause_positions, sites, g, "clause positions")
    if T == 0:
        return knearest(pts, sites, k, g)
    K = _candidate_count(sites, k, T) if T < 1 else sites.n
    return _race(pts, sites, k, T, g, rng, K)


def _apply_sign_patterns(drawn, pattern_u):
    """Map the drawn variable matrix (0-based) to signed literals, with a
    fresh ledger applied in clause-index order (``SignLedger``).

    Clauses are grouped by variable set (a stable sort of their
    ``set_codes``).  Occurrence t < 2^k of a set, in clause order, takes the
    floor(u * (2^k - t))-th of the set's unused patterns in increasing
    order; a set's first occurrence and every occurrence from 2^k on take
    floor(u * 2^k).  Round t serves every set's occurrence t at once.
    """
    m, k = drawn.shape
    total = 1 << k
    codes = set_codes(np.sort(drawn, axis=1), drawn.max(initial=-1) + 1)
    order = np.argsort(codes, kind="stable")
    starts = np.diff(codes[order], prepend=-1) != 0
    group = np.cumsum(starts) - 1
    occurrence = np.arange(m) - np.flatnonzero(starts)[group]

    pat = np.minimum((pattern_u * total).astype(np.int64), total - 1)
    # clauses of sets drawn again, by occurrence, each with its set's row
    again = np.flatnonzero(np.bincount(group)[group] > 1)
    again = again[np.argsort(occurrence[again], kind="stable")]
    ends = np.searchsorted(occurrence[again], np.arange(total + 1))
    slot = np.unique(group[again], return_inverse=True)[1]
    used = np.zeros((slot.max(initial=-1) + 1, total), dtype=bool)
    for t in range(total):
        at, row = again[ends[t]:ends[t + 1]], slot[ends[t]:ends[t + 1]]
        if not len(at):
            break
        u = pattern_u[order[at]]
        j = np.minimum((u * (total - t)).astype(np.int64), total - t - 1)
        free = np.cumsum(~used[row], axis=1)
        p = (free > j[:, None]).argmax(axis=1)
        used[row, p] = True
        pat[order[at]] = p
    # each variable's rank in its clause's set: the count of smaller ones
    rank_of = np.zeros_like(drawn)
    for j in range(k):
        for other in range(k):
            rank_of[:, j] += drawn[:, other] < drawn[:, j]
    var = drawn + 1
    return np.where((pat[:, None] >> rank_of) & 1, -var, var)


def sample_geometric_formula(n, m, k, g, T, ws, seed):
    """Weighted geometric instance; deterministic for a fixed seed.

    Weights are min-1 normalized internally.  The RNG stream is consumed
    in a fixed order: variable positions, clause positions, sign-pattern
    uniforms, then the race exponentials (T > 0 only), whose layout does
    not depend on ``_CLAUSE_BLOCK`` (``draw_geometric_clause_vars``).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if m < 1:
        raise ValueError("m must be >= 1")
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
