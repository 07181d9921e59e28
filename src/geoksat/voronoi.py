"""Weighted order-k Voronoi machinery on the torus.

Sites carry multiplicative weights with minimum exactly 1; the weighted
distance of a point to site i is dist/w_i^(1/d).  The order-k region of a
size-k set A is the set of points whose k weighted-nearest sites are
exactly A.  Regions are never constructed explicitly; non-empty regions
are discovered by Monte Carlo sampling of k-nearest queries.  Every
distance here comes from ``geometry.pnorm_scores``, and every weighted
score from ``weighted_score_matrix``, one body over given site indices,
all n by default.  Every "k smallest" is ``select_k_smallest``: each row's
k smallest entries by (value, index), in increasing index, with their
values; ``rank_k_smallest`` orders that selection.

``_rank_table`` is the one k-nearest walk.  It reads its candidates
from a cell table that the site set builds and keeps
(``WeightedSites.table``), the uniform-grid bucketing of Bentley, Weide and
Yao (ACM TOMS 1980): each cell of a grid lists, in increasing index, the
sites that can rank among the k weighted-nearest anywhere in the cell,
proved by score bounds over the cell's box (``geometry.box_score_bounds``),
so a row scores only its cell's list.  Random positions with multiplicative
weights give O(n) non-empty order-k regions, so these lists stay short.
A table starts as one cell listing all n sites, where ranking is the
dense scan, and halves its cells as it ranks more rows (``_deepen``); a
pass that ranks its rows in blocks, a Monte Carlo count or the race,
deepens for all of them before its first block.  Weighted and unweighted
sites take it alike, and k = n, where every site ranks, takes
none.  Sites and points lie in the closed cube [0, 1]^d, checked where they
enter (``WeightedSites``, ``knearest``), so each lies in a cell of the
grid.  The walk returns each row's k weighted-nearest sites as a set, in
increasing index, with their scores: ``knearest`` orders them by (score,
index), Monte Carlo counting keys them as they are and groups them by
``set_codes``, the sampler's exponential race (``generate``) keys them as
its candidates, and a relevance certificate reads a point's nearest
outsider of A from its |A| + 1.  ``k_nearest_sites`` ranks one point by the
dense score row alone, a reference that builds no table.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .geometry import (box_score_bounds, check_unit_cube, cross_distances,
                       pnorm_scores)
from .weights import check_weights

# Monte Carlo points are drawn from the seeded stream in blocks of this
# fixed size so that results are reproducible and prefix-extensible.
_MC_BLOCK = 1 << 15
# a relative slack far larger than the float error of a score: the cell
# table's lists keep it over their bound, and the race's tail bounds under
# theirs
_TIE_GAP = 1e-9
# the depth rule of the cell table (``_deepen``): from one cell, halved
# while it has fewer cells than _CELLS_PER_SITE n / K and than one per
# _ROWS_PER_CELL rows ranked
_CELLS_PER_SITE = 8
_ROWS_PER_CELL = 16
# most (cells x parent list width) bounds per build chunk, and (rows x list
# width) scores per ranking block, which bound the table's temporaries
_BUILD_ENTRIES = 1 << 15
_RANK_ENTRIES = 1 << 16
# the table ranks a call's points in chunks of this many rows, so that its
# per-row index arrays stay small
_RANK_ROWS = 1 << 12
# a cell's half-side is widened by this much, more than the rounding of any
# coordinate difference in [0, 1] (a few ulps of 1), so the bounds hold for
# the computed scores of every point of the cell
_CELL_MARGIN = 2.0 ** -40
# relevance_certificate's grids around s1: points per axis, and how many
_CERT_GRID = 64
_CERT_RADIUS_STEPS = 16


@dataclass(frozen=True)
class WeightedSites:
    """Site positions (n, d) in [0, 1]^d with multiplicative weights,
    divided by their minimum so that it is exactly 1.

    A site set keeps the cell tables that ``knearest`` and the sampler's
    race build for it on first use (``table``, one per (k, metric),
    deepened by ``_deepen`` for the rows they have ranked and are about to
    rank)."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if not len(self.weights):
            raise ValueError("a site set needs at least one site")
        w = check_weights(self.weights)
        if pos.ndim != 2 or len(pos) != len(w):
            raise ValueError("positions must be (n, d) matching weights")
        check_unit_cube(pos, "site positions")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w / w.min())

    @property
    def n(self):
        return len(self.weights)

    @property
    def d(self):
        return self.positions.shape[1]

    @cached_property
    def normalized_weights(self):
        """omega_i = w_i^(1/d); weighted distance is dist / omega_i."""
        return self.weights ** (1.0 / self.d)

    @cached_property
    def total(self):
        """Total weight W."""
        return float(math.fsum(self.weights))

    @cached_property
    def unweighted(self):
        return bool(np.all(self.weights == 1.0))

    @cached_property
    def _tables(self):
        return {}

    def table(self, g, K):
        """The ``_CellTable`` for K-nearest queries under ``g``: one cell
        listing every site on first use, kept, one per (K, g);
        ``_deepen`` halves it for the rows counted and those about to be
        ranked."""
        key = (K, g)
        if key not in self._tables:
            self._tables[key] = _CellTable(
                1, np.arange(self.n, dtype=np.int32)[None, :], np.array([self.n]))
        return self._tables[key]


@dataclass
class _CellTable:
    """The sites that can rank among the K weighted-nearest of some point
    of each cell of a grid of ``side``^d cells of [0, 1]^d, cells in
    row-major order: row c of ``cand`` (int32) holds ``length[c]``
    increasing site indices, then padding.  ``rows`` counts the rows it
    has ranked (see ``knearest``)."""

    side: int
    cand: np.ndarray
    length: np.ndarray
    rows: int = 0

    def split(self, sites, g, K):
        """Halve the cell side: each child cell keeps the sites of its
        parent's list whose lower bound lo is at most U (1 + ``_TIE_GAP``),
        U the K-th smallest upper bound over that list (see ``knearest``).
        The child's box lies in its parent's, so a site the parent dropped
        cannot rank in it either.  Works in chunks of at most
        ``_BUILD_ENTRIES`` (child x parent list) bounds.
        """
        d, side = sites.d, 2 * self.side
        half = 0.5 / side + _CELL_MARGIN
        wq = sites.weights ** (g.score_power / d)
        # parent cells in row-major order, and the centre coordinates of
        # their children, low child then high child on each axis
        coords = np.indices((self.side,) * d).reshape(d, -1).T
        offset = np.array([0.5, 1.5])
        halves = np.indices((2,) * d).reshape(d, -1).T
        # a child's list is part of its parent's, so it fits the parent's width
        cand = np.zeros((side**d, self.cand.shape[1]), dtype=np.int32)
        length = np.empty(side**d, dtype=np.int64)
        step = max(1, _BUILD_ENTRIES // (2**d * self.cand.shape[1]))
        for a in range(0, len(coords), step):
            parent = coords[a:a + step]
            c = self.cand[a:a + step, :self.length[a:a + step].max()]
            # axis j + 1 runs over the child's half on axis j
            shape = [len(c)] + [1] * d + [c.shape[1]]
            centres, others = [], []
            for j in range(d):
                axis = [len(c)] + [1] * (d + 1)
                axis[j + 1] = 2
                centres.append(((2 * parent[:, j, None] + offset) / side)
                               .reshape(axis))
                others.append(sites.positions[c, j].reshape(shape))
            lo, up = box_score_bounds(centres, half, others, g)
            if not sites.unweighted:
                wc = wq[c].reshape(shape)
                lo, up = lo / wc, up / wc
            lo = lo.reshape(-1, c.shape[1])
            up = up.reshape(-1, c.shape[1])
            inherited = np.repeat(self.length[a:a + step], 2**d)
            pad = np.arange(c.shape[1]) >= inherited[:, None]
            lo[pad] = up[pad] = np.inf
            bound = np.partition(up, K - 1, axis=1)[:, K - 1] * (1.0 + _TIE_GAP)
            keep = lo <= bound[:, None]
            # each child's kept sites, still increasing, to the front of its
            # row; the child's row on the finer grid is row-major
            counts = np.count_nonzero(keep, axis=1)
            rows = np.repeat(np.arange(len(keep)), counts)
            flat = np.flatnonzero(keep)
            at = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
            child = (2 * parent[:, None, :] + halves).reshape(-1, d)
            child = np.ravel_multi_index(child.T, (side,) * d)
            cand[child[rows], at] = c[rows >> d, flat - rows * c.shape[1]]
            length[child] = counts
        # a copy, so that the parent-wide array behind the slice is freed
        self.cand, self.length = cand[:, :length.max()].copy(), length
        self.side = side


def random_sites(n, g, seed_or_rng, weights=None):
    """Sites with uniform positions on the torus; weights default to 1."""
    pos = np.random.default_rng(seed_or_rng).random((n, g.d))
    return WeightedSites(pos, np.ones(n) if weights is None else weights)


def weighted_score_matrix(points, sites, g, cand=None):
    """(rows, C) scores dist^q / w^(q/d), q = ``g.score_power``, of the site
    indices ``cand``, one list per row (rows, C) or shared (1, C), all n by
    default.

    The package's one weighted score: the one-point reference, the cell
    table and the race's tail hits all take it.  Avoids q-th roots;
    rankings and region keys are unchanged under the strictly increasing
    map x -> x^q.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if cand is None:
        cand = np.arange(sites.n)[None, :]
    # a take per coordinate, each a contiguous block, is several times
    # faster than the (rows, C, d) fancy index; a (1, C) row broadcasts
    others = np.moveaxis(np.take(sites.positions.T, cand, axis=1), 0, -1)
    scores = pnorm_scores(pts, others, g)
    if not sites.unweighted:
        scores /= (sites.weights ** (g.score_power / sites.d))[cand]
    return scores


def select_k_smallest(values, k):
    """``(sel, kept)``: the indices of each row's k smallest entries of
    ``values`` (rows, n) by (value, index), in increasing index, and their
    values.  A tie at the k-th place goes to the smaller index.  One
    partition at k: a row whose (k+1)-th value equals its k-th has such a
    tie, and only those rows are sorted whole."""
    n = values.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= {n} items")
    part = np.argpartition(values, min(k, n - 1), axis=1)
    sel = np.sort(part[:, :k], axis=1)
    kept = np.take_along_axis(values, sel, axis=1)
    if k < n:
        after = np.take_along_axis(values, part[:, k:k + 1], axis=1)[:, 0]
        # a fold over the k columns: max along a short axis takes ~50 ns a row
        for r in np.flatnonzero(after <= reduce(np.maximum, kept.T)):
            sel[r] = np.sort(np.argsort(values[r], kind="stable")[:k])
            kept[r] = values[r, sel[r]]
    return sel, kept


def _by_value(sel, kept):
    """``sel`` ordered by a stable sort of ``kept``: by (value, index) when
    each row of ``sel`` increases."""
    return np.take_along_axis(sel, np.argsort(kept, axis=1, kind="stable"),
                              axis=1)


def rank_k_smallest(values, k):
    """Row-wise indices of the k smallest entries, ordered ascending with
    ties broken by smaller index: ``select_k_smallest``, ordered."""
    return _by_value(*select_k_smallest(values, k))


def _deepen(sites, k, g, rows):
    """The site set's cell table for k, halved by the depth rule (see
    ``_ROWS_PER_CELL``) as if ``rows`` more rows had been counted; they are
    not added to ``table.rows``.  A caller that will rank R rows in several
    passes deepens for R before its first, so that no pass ranks on a
    coarser table than the last."""
    table = sites.table(g, k)
    while (table.side ** sites.d < _CELLS_PER_SITE * sites.n / k
           and table.side ** sites.d * _ROWS_PER_CELL < table.rows + rows):
        table.split(sites, g, k)
    return table


def _rank_table(points, sites, k, g):
    """``(cand, scores)``: each row's k weighted-nearest sites in
    increasing index, by the site set's cell table for k, and their scores.

    At k = n every row holds all n sites (a read-only broadcast) and its
    dense scores, with no table.  Else the table first deepens for these
    rows (``_deepen``), which it then counts in ``table.rows``.
    Each row then scores its cell's list by ``weighted_score_matrix``, with
    +inf past the list's length, and takes its k smallest by
    ``select_k_smallest``: the lists increase in site index, so that is the
    scan's (score, index) rule, and a site left out scores at least the
    row's k-th score, the largest kept (the list holds every site that can
    rank, see ``knearest``).  A coordinate of 1 falls in the last cell of
    its axis.  In chunks of ``_RANK_ROWS`` rows, rows are grouped by list
    length into widths 8, 16, 32, ... up to the table's width and scored in
    blocks of at most ``_RANK_ENTRIES``.
    """
    if k == sites.n:
        return (np.broadcast_to(np.arange(k), (len(points), k)),
                weighted_score_matrix(points, sites, g))
    table = _deepen(sites, k, g, len(points))
    table.rows += len(points)
    side = table.side
    out = np.empty((len(points), k), dtype=np.int64)
    kept = np.empty((len(points), k))
    for a in range(0, len(points), _RANK_ROWS):
        chunk = points[a:a + _RANK_ROWS]
        cell = np.ravel_multi_index(np.minimum(chunk * side, side - 1)
                                    .astype(np.int64).T, (side,) * sites.d)
        length = table.length[cell]
        # the least power of two >= length (frexp(0) gives exponent 0)
        width = np.left_shift(1, np.frexp(length - 1)[1])
        width = np.minimum(np.maximum(width, 8), table.cand.shape[1])
        for w in np.unique(width):
            group = np.flatnonzero(width == w)
            step = max(1, _RANK_ENTRIES // w)
            for b in range(0, len(group), step):
                rows = group[b:b + step]
                cand = table.cand[cell[rows], :w]
                scores = weighted_score_matrix(chunk[rows], sites, g, cand)
                scores[np.arange(w) >= length[rows, None]] = np.inf
                pick, kept[a + rows] = select_k_smallest(scores, k)
                out[a + rows] = np.take_along_axis(cand, pick, axis=1)
    return out, kept


def check_positions(points, sites, g, name):
    """``points`` as a 2-d float array; a ValueError unless they lie in
    [0, 1]^d and their columns, the sites' dimension and ``g.d`` agree."""
    pts = np.atleast_2d(check_unit_cube(points, name))
    if not pts.shape[1] == sites.d == g.d:
        raise ValueError(f"{name}: {pts.shape[1]} coordinates, but the sites "
                         f"have {sites.d} and the geometry d = {g.d}")
    return pts


def set_codes(rows, n):
    """One int64 per row of ``rows``, an (m, k) array of sorted entries in
    [0, n): equal for equal rows, increasing in lexicographic row order.
    The package's one grouping of sorted k-sets: a row's digits in radix n
    when n^k fits in an int64, else its rank among the distinct rows."""
    rows = np.asarray(rows, dtype=np.int64)
    k = rows.shape[1]
    if int(n) ** k < 1 << 63:  # Python ints: a numpy n ** k wraps silently
        return rows @ (int(n) ** np.arange(k - 1, -1, -1, dtype=np.int64))
    order = np.lexsort(rows.T[::-1])
    new = np.diff(rows[order], axis=0, prepend=-1).any(axis=1)
    codes = np.empty(len(rows), dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes


def knearest(points, sites, k, g):
    """(rows, k) indices of the k sites of smallest weighted distance to
    each point, ranked by increasing distance with ties broken by smaller
    index: ``rank_k_smallest`` on ``weighted_score_matrix``, row for row.

    Points must lie in [0, 1]^d, as sites do, with d = ``g.d``.  The cell
    table serves every row, weighted sites or not and k < n, from the first
    call: ``_rank_table`` selects each row's k nearest from the list of its
    cell in the site set's table for k (``WeightedSites.table``), or all n
    sites at k = n, and ``knearest`` orders them by (score, index).  For a
    cell of centre c and side h and a site s, with delta the per-coordinate
    distance from c to s (wrapped on the torus), the rootless score of
    every point of the cell lies in [lo, up] / w^(q/d), lo = sum
    max(delta - h/2, 0)^q and up = sum (delta + h/2)^q (max for p = inf).  With U the
    k-th smallest up, every point of the cell has k sites of score at most
    U, so a site with lo > U (1 + ``_TIE_GAP``) never ranks there and the
    list holds every other site: the rows are exact by construction, with
    no fallback.  The slack, and a half-side widened by ``_CELL_MARGIN``,
    cover the rounding of the scores.  The table starts as one cell listing
    every site, the dense scan, and halves its side, each child filtering
    its parent's list, while it has fewer cells than
    min(``_CELLS_PER_SITE`` n / k, R / ``_ROWS_PER_CELL``), R the rows it
    counts, this call included (``_deepen``).  So a call of few rows ranks
    as the scan does, a one-shot call stays coarse, and a Monte Carlo count
    or the race deepens for all its rows before its first block.
    """
    pts = check_positions(points, sites, g, "points")
    if not 1 <= k <= sites.n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= site count {sites.n}")
    return _by_value(*_rank_table(pts, sites, k, g))


def k_nearest_sites(p, sites, k, g):
    """``(key, ranked)`` for one point: the RegionKey (sorted tuple of site
    indices) and its ``knearest`` row, by ``rank_k_smallest`` on the
    point's dense score row (a reference that builds no table)."""
    pts = check_positions(p, sites, g, "point")
    ranked = rank_k_smallest(weighted_score_matrix(pts, sites, g), k)[0]
    return tuple(sorted(ranked.tolist())), ranked


@dataclass
class RegionCountResult:
    """Distinct region keys discovered by Monte Carlo sampling.

    ``count`` is a lower bound on the number of non-empty order-k regions.
    ``witnesses`` maps each key to the first sample point that discovered
    it (usable as a relevance-certificate seed).
    """

    count: int
    keys: set
    witnesses: dict
    samples: int
    seed: object

    n: int = 0
    k: int = 0
    # distinct-key counts after the given sample prefixes (undersampling
    # diagnostic: a saturated run has count close to its half-budget count)
    counts_at: dict = field(default_factory=dict)


def count_regions_monte_carlo(sites, k, samples, seed, g, checkpoints=()):
    """Count distinct RegionKeys among k-nearest queries at uniform points.

    Deterministic for a fixed seed, and the discovered key set is
    nondecreasing under prefix-extension of the sample stream.  The count
    is a lower bound on the true number of non-empty regions.
    ``checkpoints`` are sample prefixes at which the running count is
    recorded (see RegionCountResult.counts_at).  The cell table deepens
    for all ``samples`` rows before the first block (``_deepen``).  Each
    block of sample points takes its keys from ``_rank_table``, already
    sorted, and its new keys as the first occurrences past ``seen`` among
    the ``set_codes`` of (seen, block): one ``np.argsort`` of the codes,
    then the least index of each run of equal codes.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_positions(np.empty((0, g.d)), sites, g, "sample points")
    if not 1 <= k <= sites.n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= site count {sites.n}")
    if k < sites.n:
        _deepen(sites, k, g, samples)
    seen = np.empty((0, k), dtype=np.int64)  # the keys found, in order
    rng = np.random.default_rng(seed)
    witnesses = {}
    found = np.empty(0, dtype=np.int64)  # each key's first sample, in order
    for done in range(0, samples, _MC_BLOCK):
        pts = rng.random((min(_MC_BLOCK, samples - done), g.d))
        rows = _rank_table(pts, sites, k, g)[0]
        codes = set_codes(np.concatenate((seen, rows)), sites.n)
        order = np.argsort(codes)
        runs = np.flatnonzero(np.diff(codes[order], prepend=-1))
        first = np.minimum.reduceat(order, runs)
        # seen's keys are distinct and first: a code whose least index is
        # past seen is new, found first there (witnesses, in that order)
        fresh = np.sort(first[first >= len(seen)]) - len(seen)
        seen = np.concatenate((seen, rows[fresh]))
        witnesses.update(zip(map(tuple, rows[fresh].tolist()), pts[fresh]))
        found = np.concatenate((found, done + fresh))
    counts_at = {int(c): int(np.searchsorted(found, c))
                 for c in checkpoints if 0 < c <= samples}
    return RegionCountResult(
        count=len(witnesses), keys=set(witnesses), witnesses=witnesses,
        samples=samples, seed=seed, n=sites.n, k=k,
        counts_at=counts_at)


def _site_set(A, sites):
    """``(idx, s1)``: the site set A, increasing, and its minimum-weight
    site (ties by smaller index)."""
    idx = np.asarray(sorted(A))
    if not (len(idx) and idx.dtype.kind in "iu" and 0 <= idx[0]
            and idx[-1] < sites.n and np.all(np.diff(idx) > 0)):
        raise ValueError(f"A = {A!r} must be distinct site indices in "
                         f"[0, {sites.n}), at least one")
    return idx, int(idx[np.argmin(sites.weights[idx])])


def compute_R_A(A, sites, g):
    """max over i in A of dist(s1, s_i) / (omega_1 + omega_i), where s1 is
    the minimum-weight site of A (ties by smaller index)."""
    idx, s1 = _site_set(A, sites)
    om = sites.normalized_weights
    dist = cross_distances(sites.positions[s1], sites.positions[idx], g)[0]
    return float((dist / (om[s1] + om[idx])).max())


@dataclass(frozen=True)
class RelevanceCertificate:
    """A point and radius witnessing that a site set is relevant."""

    point: np.ndarray
    radius: float


def _certificate_points(seed_point, s1, R, sites, g):
    """Candidate batches: the seed point (say, the Monte Carlo sample of A's
    region), s1's position, then grid j = 1, 2, ... of ``_CERT_GRID``^d points
    of half-side omega_1 (j + 1) R_A around s1, wrapped or clipped to [0, 1]."""
    if seed_point is not None:
        yield check_positions(seed_point, sites, g, "seed point")
    centre = sites.positions[s1]
    yield centre[None, :]
    unit = np.indices((_CERT_GRID,) * g.d).reshape(g.d, -1).T  # row-major
    unit = unit * (2.0 / (_CERT_GRID - 1)) - 1.0  # on [-1, 1]^d
    for j in range(1, _CERT_RADIUS_STEPS + 1 if R > 0 else 1):
        pts = unit * (sites.normalized_weights[s1] * (j + 1) * R) + centre
        yield np.mod(pts, 1.0) if g.wrap else np.clip(pts, 0.0, 1.0)


def relevance_certificate(A, sites, g, seed_point=None):
    """Search for a (point, radius >= R_A) pair certifying that A is relevant.

    A is relevant if some point p and radius r >= R_A satisfy
    dist(s1, p) <= omega_1 r while every site outside A is strictly
    farther than omega_i r.  A returned certificate is sound; ``None``
    means UNKNOWN, not irrelevant.  A ValueError unless A is a nonempty set
    of distinct site indices, not coincident (R_A > 0 or |A| = 1).

    ``_rank_table`` ranks each batch of ``_certificate_points`` for |A| + 1,
    which holds a point's nearest outsider (at most |A| members rank ahead).
    In scores (dist / omega)^q, the first point where max(score of s1, R_A^q)
    (1 + ``_TIE_GAP``) < the nearest outsider's score certifies A, at r =
    max(R_A, max(R_A^q, the two scores' midpoint)^(1/q)); the slack covers
    the rounding of a recomputed distance.
    """
    idx, s1 = _site_set(A, sites)
    R = compute_R_A(idx, sites, g)
    if R == 0.0 and len(idx) >= 2:
        raise ValueError("R_A = 0: coincident sites in A")
    if len(idx) == sites.n:
        return RelevanceCertificate(sites.positions[s1].copy(), R)
    q = g.score_power
    for pts in _certificate_points(seed_point, s1, R, sites, g):
        cand, scores = _rank_table(pts, sites, len(idx) + 1, g)
        own = np.where(cand == s1, scores, np.inf).min(axis=1)
        near = np.where(np.isin(cand, idx), np.inf, scores).min(axis=1)
        hit = np.flatnonzero(np.maximum(own, R**q) * (1.0 + _TIE_GAP) < near)
        if len(hit):
            top = max(R**q, 0.5 * (own[hit[0]] + near[hit[0]]))
            return RelevanceCertificate(pts[hit[0]].copy(),
                                        max(R, float(top) ** (1.0 / q)))
    return None


def generate_worst_case_sites(n):
    """2D Euclidean configuration whose order-3 diagram grows superlinearly.

    Half the sites are high-weight and collinear on the left (a vertical
    micro-spread line), half are low-weight and collinear extending right.
    Every low site's region of influence is a small disk, vertically
    sliced into ~n/2 bands by which pair of high sites ranks second and
    third; the slices carry distinct order-3 keys, giving ~n^2/4 regions.

    The exact parameters are not dictated by the construction's source;
    they are tuned so the slicing covers every disk (validated by the
    superlinear growth probe in the test suite).
    """
    if n < 4 or n % 2:
        raise ValueError("n must be even and >= 4")
    h = n // 2
    sqrt_h_weight = 3.0 * n
    heavy_x = 0.18
    light_x0, light_x1 = 0.40, 0.62
    light_x = np.linspace(light_x0, light_x1, h)
    # smallest disk of influence among the light sites
    rho_min = (light_x0 - heavy_x) / sqrt_h_weight
    span = 1.8 * rho_min
    heavy_y = 0.5 + (np.arange(h) - (h - 1) / 2.0) * (span / (h - 1))

    pos = np.empty((n, 2))
    pos[:h, 0] = heavy_x
    pos[:h, 1] = heavy_y
    pos[h:, 0] = light_x
    pos[h:, 1] = 0.5
    weights = np.ones(n)
    weights[:h] = sqrt_h_weight**2
    return WeightedSites(pos, weights)
