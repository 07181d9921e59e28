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
increasing order (``knearest``).  T > 0 draws are one exponential race:
each variable gets the key E_v / X(c, v) with E_v ~ Exp(1), and the k
smallest keys, in order, have the sequential-draw law.  At T < 1 the race
is lazy: each clause keys only its nearest members of every weight class
of the site set (the k-nearest trees of ``voronoi``) and the members left
out whose exponential is small enough to beat its k-th key, found by
geometric skips.  At T >= 1 and for inputs the trees do not serve, no
class is cut short and every clause keys all n variables.  Sign patterns
are drawn uniformly without repetition per variable set until all 2^k are
used.  Draw order is preserved in the clause literals for downstream
niceness analysis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometrySpec, pnorm_scores
from .sampling import sequential_weighted_draws
from .voronoi import (_SCAN_ENTRIES, _TIE_GAP, WeightedSites, _class_candidates,
                      _trees_serve, knearest, random_sites, rank_k_smallest)

# most clauses per race block, which bounds the block's score, key and
# exponential arrays; numpy fills exponentials in sequence, so the sampler's
# race stream does not depend on it, but nice_fraction_audit draws each
# block's points before its exponentials, so its records do
_CLAUSE_BLOCK = 1024

# smallest normal double: a race key below it has lost its significant digits
_TINY = np.finfo(float).tiny

# the lazy race keys K_j = k * (n_j / _CANDIDATE_SCALE)^T candidates of a
# weight class of n_j sites, so that a clause's tail hits do not grow with n:
# 4 to 11 per clause over all classes at n = 2000 and 10^4, d = 2, T 0.3 to
# 0.9.  There 48 was about as fast as 64 and faster than 24 (2 vCPU); a
# constant c in c * n_j^T instead draws hundreds of tail hits at T = 0.3
_CANDIDATE_SCALE = 48
# tail-process exponentials per clause in its block's draw; the 2-8% of the
# clauses that need more at n = 2000 to 10^4 finish after the last block
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


def _in_range(low, high):
    """Whether race keys from ``low`` to ``high`` rank as products: no
    overflow to inf, no underflow to zero or a subnormal."""
    return (low >= _TINY) & (high < np.inf)


def _candidate_sizes(sites, k, T):
    """K_j = ceil(k * (n_j / _CANDIDATE_SCALE)^T), at least k + 2 and at
    most n_j, for each weight class j of n_j sites."""
    return [min(len(m), max(k + 2, math.ceil(k * (len(m) / _CANDIDATE_SCALE)**T)))
            for m in sites.weight_classes]


def _race_block(points, sites, k, g, e, sizes, expo):
    """The race of ``draw_geometric_clause_vars`` for a block of points,
    over their class candidates and the members left out that can still win.

    Row i's exponentials are ``expo[i]``: the first C key its C candidates,
    the rest drive its tail process.  Returns the (rows, k) ranking and the
    rows that ran out of exponentials, whose ranking is not set.

    The key of a candidate is score * E^e with e = T * q / d: ranking
    E / X(c, v) is preserved under the monotone map y -> y^(T*q/d), with
    q = ``g.score_power`` and score the rootless weighted-distance score.  A
    row with a key that overflows to inf or underflows to zero or a
    subnormal (large T) is ranked by log(score) + e * log(E) instead, the
    same order in the log domain (the Gumbel-top-k form of the race).  When
    no class is cut short the candidates are all n sites and there is no
    tail process.
    """
    cand, scores, tails = _class_candidates(points, sites, g, sizes)
    rows, width = cand.shape
    # range errors are expected here and handled by the log-domain rows
    with np.errstate(all="ignore"):
        keys = scores * expo[:, :width] ** e
        logs = ~_in_range(keys.min(axis=1), keys.max(axis=1))
        keys[logs] = np.log(scores[logs]) + e * np.log(expo[logs, :width])
    if not tails:
        return rank_k_smallest(keys, k), np.empty(0, dtype=np.int64)
    tail = expo[:, width:]
    budget = tail.shape[1]
    # each row's first tail exponential that the next class may use
    start = np.zeros(rows, dtype=np.int64)
    hit_rows, hit_sites, hit_expo = [], [], []
    with np.errstate(all="ignore"):
        kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
        # each row's candidates as one sorted array of row * n + site
        taken = (cand + np.arange(rows)[:, None] * sites.n).ravel()
        for members, bound in tails:
            # a member left out has key >= floor * E^e, so it can beat kth
            # only if its E < tau
            floor = bound / (1.0 + _TIE_GAP)
            tau = np.where(logs, np.exp((kth - np.log(floor)) / e),
                           (kth / floor) ** (1.0 / e))
            tau[np.isnan(tau)] = np.inf  # zero bound and zero key: all may win
            # Bernoulli(1 - exp(-tau)) hits over the class's members: an
            # exponential x skips floor(x / tau) of them and hits the next,
            # whose own exponential is x mod tau, truncated to [0, tau); the
            # first x that skips past the last member ends the class
            skip = np.minimum(tail / tau[:, None], len(members)).astype(np.int64)
            past = np.zeros((rows, budget + 1), dtype=np.int64)
            np.cumsum(skip + 1, axis=1, out=past[:, 1:])
            begin = past[np.arange(rows), np.minimum(start, budget)]
            at = past[:, 1:] - 1 - begin[:, None]  # the member each x hits
            inside = (np.arange(budget) >= start[:, None]) & (at < len(members))
            start += inside.sum(axis=1) + 1
            r, i = np.nonzero(inside)
            site = members[at[r, i]]
            # a hit on one of the row's candidates is skipped: its key is set
            code = r * sites.n + site
            near = np.minimum(np.searchsorted(taken, code), len(taken) - 1)
            fresh = taken[near] != code
            hit_rows.append(r[fresh])
            hit_sites.append(site[fresh])
            hit_expo.append(np.fmod(tail[r[fresh], i[fresh]], tau[r[fresh]]))
        # rows whose last class did not end within the budget
        over = start > budget
        hr, hs, he = (np.concatenate(a) for a in (hit_rows, hit_sites, hit_expo))
        keep = ~over[hr]
        hr, hs, he = hr[keep], hs[keep], he[keep]
        hit = pnorm_scores(points[hr], sites.positions[hs][:, None], g)[:, 0]
        hit /= sites.weights[hs] ** (g.score_power / sites.d)
        hk = hit * he ** e
        # a tail key out of range moves its row to the log domain
        bad = np.unique(hr[~logs[hr] & ~_in_range(hk, hk)])
        logs[bad] = True
        keys[bad] = np.log(scores[bad]) + e * np.log(expo[bad, :width])
        kth[bad] = np.partition(keys[bad], k - 1, axis=1)[:, k - 1]
        lg = logs[hr]
        hk[lg] = np.log(hit[lg]) + e * np.log(he[lg])
    # only hits up to the k-th key can rank
    beat = hk <= kth[hr]
    hr, hs, hk = hr[beat], hs[beat], hk[beat]
    sel = rank_k_smallest(keys, k)
    ranked = np.take_along_axis(cand, sel, axis=1)
    if len(hr):
        # merge each row's tail hits with its k best candidates, by (key, index)
        won = np.unique(hr)
        row = np.concatenate((np.repeat(won, k), hr))
        best = np.take_along_axis(keys, sel, axis=1)
        key = np.concatenate((best[won].ravel(), hk))
        site = np.concatenate((ranked[won].ravel(), hs))
        order = np.lexsort((site, key, row))
        first = np.searchsorted(row[order], won)
        ranked[won] = site[order][first[:, None] + np.arange(k)]
    return ranked, np.flatnonzero(over)


def _race(pts, sites, k, T, g, rng, sizes):
    """``draw_geometric_clause_vars`` at T > 0 by ``_race_block``, with
    ``sizes[j]`` candidates from weight class j.

    Each row draws C exponentials, C = sum(sizes), plus ``_TAIL_BUDGET``
    when a class is cut short (C < n), in row order and in blocks of at
    most ``_CLAUSE_BLOCK`` rows; rows that spend them all finish after the
    last block, in row order, with twice as many tail exponentials at each
    round (the first ones kept), so the stream does not depend on the block
    size.  With C = n a row draws exactly n exponentials.
    """
    e = T * g.score_power / g.d
    width = sum(sizes)
    budget = _TAIL_BUDGET if width < sites.n else 0
    step = min(_CLAUSE_BLOCK, max(1, _SCAN_ENTRIES // width))
    out = np.empty((len(pts), k), dtype=np.int64)
    late = [np.empty(0, dtype=np.int64)]
    late_expo = [np.empty((0, width + budget))]
    for a in range(0, len(pts), step):
        block = pts[a:a + step]
        expo = rng.standard_exponential((len(block), width + budget))
        out[a:a + len(block)], over = _race_block(block, sites, k, g, e,
                                                  sizes, expo)
        late.append(a + over)
        late_expo.append(expo[over])
    late, expo = np.concatenate(late), np.concatenate(late_expo)
    while len(late):
        more = rng.standard_exponential((len(late), expo.shape[1] - width))
        expo = np.concatenate((expo, more), axis=1)
        out[late], over = _race_block(pts[late], sites, k, g, e, sizes, expo)
        late, expo = late[over], expo[over]
    return out


def draw_geometric_clause_vars(clause_positions, sites, k, T, g, rng):
    """(count, k) variable indices for clauses at the given positions.

    T = 0: the k smallest weighted distances, increasing, ties by smaller
    index (``knearest``).  T > 0: sequential draws proportional to X(c, v),
    realized as an exponential race (smallest E_v / X(c,v) first), which
    has exactly the sequential-draw distribution (``_race``).

    At T < 1, with the trees serving the call (as in ``knearest``), the
    race is lazy: each clause keys only its K_j nearest members of each
    weight class j and the members left out whose exponential falls below
    the class threshold that lets them beat its k-th key; those are found
    by geometric skips and keyed with their exponential truncated to the
    threshold.  Same law, with sum_j K_j + O(1) exponentials per clause.
    Otherwise no class is cut short and every clause keys all n sites.
    """
    pts = np.atleast_2d(np.asarray(clause_positions, dtype=float))
    if T == 0:
        return knearest(pts, sites, k, g)
    if T < 1 and _trees_serve(pts, sites):
        sizes = _candidate_sizes(sites, k, T)
    else:
        sizes = [len(members) for members in sites.weight_classes]
    return _race(pts, sites, k, T, g, rng, sizes)


def _apply_sign_patterns(drawn, pattern_u):
    """Map the drawn variable matrix (0-based) to signed literals, with a
    fresh ledger applied in clause-index order (``SignLedger``).

    Clauses are grouped by variable set (a stable lexsort of the sorted
    rows).  Occurrence t < 2^k of a set, in clause order, takes the
    floor(u * (2^k - t))-th of the set's unused patterns in increasing
    order; a set's first occurrence and every occurrence from 2^k on take
    floor(u * 2^k).  Round t serves every set's occurrence t at once.
    """
    m, k = drawn.shape
    total = 1 << k
    sets = np.sort(drawn, axis=1)
    order = np.lexsort(sets.T[::-1])
    sorted_sets = sets[order]
    starts = np.ones(m, dtype=bool)
    starts[1:] = np.any(sorted_sets[1:] != sorted_sets[:-1], axis=1)
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
    rank_of = np.argsort(np.argsort(drawn, axis=1), axis=1)
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
    check_temperature(T)
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
