"""Weighted order-k Voronoi machinery on the torus.

Sites carry multiplicative weights with minimum exactly 1; the weighted
distance of a point to site i is dist/w_i^(1/d).  The order-k region of a
size-k set A is the set of points whose k weighted-nearest sites are
exactly A.  Regions are never constructed explicitly; non-empty regions
are discovered by Monte Carlo sampling of k-nearest queries.  Every
distance here comes from ``geometry.pnorm_scores``, and every weighted
score from ``weighted_score_matrix``: of all n sites for the scan, of
chosen candidate indices for the cell table, the trees and the sampler's
race.

``knearest`` is the one exact k-nearest kernel.  It reads its candidates
from a cell table that the site set builds and keeps
(``WeightedSites.table``), the uniform-grid bucketing of Bentley, Weide and
Yao (ACM TOMS 1980): each cell of a grid lists, in increasing index, the
sites that can rank among the k weighted-nearest anywhere in the cell,
proved by score bounds over the cell's box (``geometry.box_score_bounds``),
so a row scores only its cell's list.  Random positions with multiplicative
weights give O(n) non-empty order-k regions, so these lists stay short.
Weighted sites take the table at once; unweighted sites take it once
warm, after 16 n / k rows ranked, and before that query one plain cKDTree
(``WeightedSites.tree``), which a one-shot call builds faster than a table
deep enough to beat it.  On the torus the tree holds the periodic images of
the sites that lie within a reach of the unit cube, so its plain distances
are torus distances wherever the reach covers the query.  Rows the tree
cannot settle, calls with few points and inputs outside [0, 1)^d go to the
dense score scan, so every backend returns the same indices.  The
sampler's exponential race (``generate``) takes its candidates from one
tree per weight class [2^j, 2^(j+1)), the layering of the geometric
inhomogeneous random graph samplers (Bringmann, Keusch and Lengler, arXiv
1511.00576), through ``_class_candidates``, or all n sites when no class is
cut short.  Monte Carlo counting ranks through ``knearest`` alone and sorts
its rows into region keys; ``k_nearest_sites`` is the scan-only reference
for one point.
"""

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (ball_volume_constant, box_score_bounds, cross_distances,
                       pnorm_scores)
from .weights import check_weights

# Monte Carlo points are drawn from the seeded stream in blocks of this
# fixed size so that results are reproducible and prefix-extensible.
_MC_BLOCK = 1 << 15
# cap on distance-matrix entries processed at once
_SCAN_ENTRIES = 4_000_000
# two adjacent tree distances of a row further apart than this relative gap
# keep their order under the exact scores (the float error of either is far
# smaller); a row with a closer pair may hide a tie and is scanned.  The cell
# table's lists keep this relative slack over their bound for the same reason
_TIE_GAP = 1e-9
# knearest scans fewer query rows than this: building the tree costs about as
# much as scanning this many rows (2 vCPU, d = 2, n from 50 to 20000)
_TREE_MIN_ROWS = 8
# knearest scans weighted site sets of fewer sites than this: per 32,768
# points (d = 2, k = 2, beta 2.5, 2 vCPU) the scan took 16.4 ms at 8 sites
# against 21.3 ms for a one-shot table, and 17.6 against 15.3 ms at 15 sites
_TABLE_MIN_SITES = 12
# the depth rule of the cell table (``knearest``): a root grid of G^d cells
# with G^d n <= _ROOT_ENTRIES, deepened while it has fewer cells than
# _CELLS_PER_SITE n / K and than one per _ROWS_PER_CELL rows ranked.
# Unweighted sites take the table once _ROWS_PER_CELL n / K rows are ranked
# (by the tree until then), so it then has at least n / K cells
_ROOT_ENTRIES = 1 << 16
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
# coordinate difference in [0, 1) (a few ulps of 1), so the bounds hold for
# the computed scores of every point of the cell
_CELL_MARGIN = 2.0 ** -40
# relevance_certificate's search: grid points per axis around s1, and radii
# j * R_A for j = 1.._CERT_RADIUS_STEPS
_CERT_GRID = 64
_CERT_RADIUS_STEPS = 16


@dataclass(frozen=True)
class WeightedSites:
    """Finite site positions (n, d) with multiplicative weights, min weight 1;
    positions outside [0, 1)^d are legal (``knearest`` scans them).

    A site set keeps what ``knearest`` and the sampler's race build for it
    on first use: the cell tables of k-nearest (``table``, one per
    (k, metric), deepened as they rank more rows; unweighted sites count
    their rows there from the first call and rank through it once warm)
    and the plain cKDTrees of cold unweighted k-nearest and of the race's
    weight classes (``tree``)."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if not len(self.weights):
            raise ValueError("a site set needs at least one site")
        w = check_weights(self.weights)
        if pos.ndim != 2 or len(pos) != len(w):
            raise ValueError("positions must be (n, d) matching weights")
        if not np.all(np.isfinite(pos)):
            raise ValueError("site positions must be finite")
        if abs(w.min() - 1.0) > 1e-12:
            raise ValueError("minimum weight must be exactly 1 (use from_raw)")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_raw(cls, positions, raw_weights):
        """Normalize raw positive weights so the minimum is exactly 1."""
        w = np.asarray(raw_weights, dtype=float)
        return cls(positions, check_weights(w) / w.min() if len(w) else w)

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
    def in_unit_cube(self):
        """Whether every position lies in [0, 1)^d."""
        return _in_unit_cube(self.positions)

    @cached_property
    def weight_classes(self):
        """Site indices by weight class [2^j, 2^(j+1)), lightest class
        first, each increasing."""
        _, exponent = np.frexp(self.weights)
        order = np.argsort(exponent, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(exponent[order])) + 1)

    @cached_property
    def _trees(self):
        return {}

    @cached_property
    def _tables(self):
        return {}

    def table(self, g, K):
        """The ``_CellTable`` for K-nearest queries under ``g``, all sites in
        [0, 1)^d: built at its root level on first use and kept, one per
        (K, g); ``knearest`` deepens it as it ranks more rows."""
        key = (K, g)
        if key not in self._tables:
            table = _CellTable(1, np.arange(self.n, dtype=np.int32)[None, :],
                               np.array([self.n]))
            while ((2 * table.side) ** self.d * self.n <= _ROOT_ENTRIES
                   and table.side ** self.d < _CELLS_PER_SITE * self.n / K):
                table.split(self, g, K)
            self._tables[key] = table
        return self._tables[key]

    def tree(self, g, cls, K):
        """``(tree, owner, reach)`` for K-nearest queries under ``g`` among
        all sites (``cls`` None) or weight class ``cls``'s members, all in
        [0, 1)^d; built on first use and kept, one per (class, K, p-norm) on
        the torus and one per class in the cube.

        ``tree`` is a plain cKDTree, ``owner`` maps its points to site
        indices, and a query row whose K-th tree distance is below ``reach``
        has the K nearest sites under ``g``.  In the cube the tree holds the
        sites and the reach is infinite.  On the torus it holds the periodic
        images s + t, t in {-1, 0, 1}^d, with every coordinate in
        [-r, 1 + r], where r = (4K / (n_c V))^(1/d) for the n_c sites and
        the unit ball volume V of ``g``: a ball that holds 4K sites in
        expectation, so about P(Poisson(4K) < K) of the rows fall beyond it
        for uniform sites.  Every image within D < r of a point in [0, 1)^d
        is in the tree, and for r < 1/2 no two images of one site lie within
        r of it, so the reach is r less a relative ``_TIE_GAP``.  None when
        r >= 1/2: at most 4K 2^d / V sites, which one dense selection ranks
        faster than a tree (``_nearest_dense``).
        """
        if len(self.weight_classes) == 1:
            cls = None  # the one class holds every site, in index order
        key = (cls, K, g.p_norm) if g.wrap else (cls,)
        if key not in self._trees:
            members = (np.arange(self.n) if cls is None
                       else self.weight_classes[cls])
            self._trees[key] = self._image_tree(g, members, K)
        return self._trees[key]

    def _image_tree(self, g, members, K):
        """``tree``'s result for these member sites, built."""
        pos = self.positions[members]
        if not g.wrap:
            return cKDTree(pos), members, math.inf
        r = (4 * K / (len(members) * ball_volume_constant(g)))**(1 / self.d)
        if r >= 0.5:
            return None
        images, owner = [], []
        for t in itertools.product((0.0, -1.0, 1.0), repeat=self.d):
            img = pos + t
            near = np.all((img >= -r) & (img <= 1.0 + r), axis=1)
            images.append(img[near])
            owner.append(members[near])
        return (cKDTree(np.concatenate(images)), np.concatenate(owner),
                r * (1.0 - _TIE_GAP))


@dataclass
class _CellTable:
    """The sites that can rank among the K weighted-nearest of some point
    of each cell of a grid of ``side``^d cells of [0, 1)^d, cells in
    row-major order: row c of ``cand`` (int32) holds ``length[c]``
    increasing site indices, then padding.  ``rows`` counts the rows ranked
    under its (K, metric): by the table, and for unweighted sites also by
    the tree before the table takes over (see ``knearest``)."""

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
            wc = wq[c].reshape(shape)
            lo = (lo / wc).reshape(-1, c.shape[1])
            up = (up / wc).reshape(-1, c.shape[1])
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
        self.cand, self.length = cand[:, :length.max()], length
        self.side = side


def random_sites(n, g, seed_or_rng, weights=None):
    """Sites with uniform positions on the torus; weights default to 1."""
    pos = np.random.default_rng(seed_or_rng).random((n, g.d))
    return WeightedSites.from_raw(pos,
                                  np.ones(n) if weights is None else weights)


def weighted_score_matrix(points, sites, g, cand=None):
    """(rows, n) scores of every site, or (rows, C) scores of the site
    indices ``cand``: dist^q / w^(q/d) with q = ``g.score_power``.

    The package's one weighted score: the scan, the class candidates and
    the race's tail hits all take it.  Avoids q-th roots; rankings and
    region keys are unchanged under the strictly increasing map x -> x^q.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if cand is None:
        scores = pnorm_scores(pts, sites.positions, g)
    else:
        # a take per coordinate, each a contiguous (rows, C) block, is several
        # times faster than the (rows, C, d) fancy index
        others = np.moveaxis(np.take(sites.positions.T, cand, axis=1), 0, -1)
        scores = pnorm_scores(pts, others, g)
    if not sites.unweighted:
        wq = sites.weights ** (g.score_power / sites.d)
        scores /= wq if cand is None else wq[cand]
    return scores


def rank_k_smallest(values, k):
    """Row-wise indices of the k smallest entries, ordered ascending with
    ties broken by smaller index.  ``values`` is (rows, n)."""
    rows, n = values.shape
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= {n} items")
    part = np.argpartition(values, k - 1, axis=1)[:, :k]
    part.sort(axis=1)
    pv = np.take_along_axis(values, part, axis=1)
    order = np.argsort(pv, axis=1, kind="stable")
    sel = np.take_along_axis(part, order, axis=1)
    # rows with a tie across the selection boundary need the exact rule
    kth = np.take_along_axis(values, sel[:, -1:], axis=1)
    ambiguous = np.flatnonzero((values <= kth).sum(axis=1) > k)
    for r in ambiguous:
        sel[r] = np.argsort(values[r], kind="stable")[:k]
    return sel


def _in_unit_cube(x):
    return bool(np.all((x >= 0.0) & (x < 1.0)))


def _rank_scan(points, sites, k, g):
    """``knearest`` by the dense score matrix, in blocks of bounded size."""
    out = np.empty((len(points), k), dtype=np.int64)
    step = max(1, _SCAN_ENTRIES // max(1, sites.n))
    for a in range(0, len(points), step):
        block = points[a:a + step]
        scores = weighted_score_matrix(block, sites, g)
        out[a:a + len(block)] = rank_k_smallest(scores, k)
    return out


def _trees_serve(points, sites):
    """Whether the trees and the cell table may rank these points: at least
    ``_TREE_MIN_ROWS`` of them, and sites and points in [0, 1)^d."""
    return (len(points) >= _TREE_MIN_ROWS and sites.in_unit_cube
            and _in_unit_cube(points))


def _nearest_dense(points, sites, members, g, K):
    """The K nearest ``members`` of each point by ``pnorm_scores``, in
    blocks of bounded size: (rows, K) site indices in no order, and each
    row's K-th score."""
    idx = np.empty((len(points), K), dtype=np.int64)
    kth = np.empty(len(points))
    pos = sites.positions[members]
    step = max(1, _SCAN_ENTRIES // len(members))
    for a in range(0, len(points), step):
        scores = pnorm_scores(points[a:a + step], pos, g)
        part = np.argpartition(scores, K - 1, axis=1)[:, :K]
        idx[a:a + step] = members[part]
        kth[a:a + step] = np.take_along_axis(scores, part[:, -1:], axis=1)[:, 0]
    return idx, kth


def _class_candidates(points, sites, g, sizes):
    """Each point's nearest members of every weight class, scored.

    Class c gives its ``sizes[c]`` nearest members by plain distance, or all
    of them when it has no more: from its tree (``WeightedSites.tree``)
    for the rows within the tree's reach, and by ``_nearest_dense`` for the
    other rows, or for every row when the class has no tree.  Returns
    ``(cand, scores, tails)``: the (rows, C) candidate site indices,
    increasing along each row, and their ``weighted_score_matrix`` scores;
    ``tails`` holds ``(members, bound)`` for each class with members left
    out, ``bound`` being a lower bound on the score of every member left
    out: the last candidate's plain score (the tree's distance^q) over the
    class's largest weight^(q/d).  When no class has more members than its
    size, the candidates are all n sites.
    """
    if all(len(m) <= s for m, s in zip(sites.weight_classes, sizes)):
        cand = np.broadcast_to(np.arange(sites.n), (len(points), sites.n))
        return cand, weighted_score_matrix(points, sites, g), []
    q = g.score_power
    wq = sites.weights ** (q / sites.d)  # the score's divisor, bit for bit
    parts, tails = [], []
    for c, members in enumerate(sites.weight_classes):
        K = sizes[c]
        if len(members) <= K:
            parts.append(np.broadcast_to(members, (len(points), len(members))))
            continue
        found = sites.tree(g, c, K)
        if found is None:
            idx, kth = _nearest_dense(points, sites, members, g, K)
        else:
            tree, owner, reach = found
            dist, i = tree.query(points, k=K, p=g.p_norm)
            idx, kth = owner[i], dist[:, -1] ** q
            far = np.flatnonzero(dist[:, -1] >= reach)
            if len(far):
                idx[far], kth[far] = _nearest_dense(points[far], sites, members,
                                                    g, K)
        parts.append(idx)
        tails.append((members, kth / wq[members].max()))
    cand = np.sort(np.concatenate(parts, axis=1), axis=1)
    return cand, weighted_score_matrix(points, sites, g, cand), tails


def _rank_table(points, sites, k, g):
    """``knearest`` by the site set's cell table for k.

    The table first deepens by the depth rule (see ``_ROWS_PER_CELL``).
    Each row then scores its cell's list by ``weighted_score_matrix``, with
    +inf past the list's length, and ranks it by ``rank_k_smallest``: the
    lists increase in site index, so that is the scan's (score, index)
    rule.  In chunks of ``_RANK_ROWS`` rows, rows are grouped by list
    length into widths 8, 16, 32, ... up to the table's width and scored in
    blocks of at most ``_RANK_ENTRIES``.
    """
    table = sites.table(g, k)
    table.rows += len(points)
    while (table.side ** sites.d < _CELLS_PER_SITE * sites.n / k
           and table.side ** sites.d * _ROWS_PER_CELL < table.rows):
        table.split(sites, g, k)
    side = table.side
    out = np.empty((len(points), k), dtype=np.int64)
    for a in range(0, len(points), _RANK_ROWS):
        chunk = points[a:a + _RANK_ROWS]
        cell = np.ravel_multi_index(
            np.floor(chunk * side).astype(np.int64).T, (side,) * sites.d)
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
                out[a + rows] = np.take_along_axis(
                    cand, rank_k_smallest(scores, k), axis=1)
    return out


def knearest(points, sites, k, g):
    """(rows, k) indices of the k sites of smallest weighted distance to
    each point, ranked by increasing distance with ties broken by smaller
    index: ``rank_k_smallest`` on ``weighted_score_matrix``, row for row.

    The tree and the cell table serve ``_TREE_MIN_ROWS`` or more points
    when sites and points lie in [0, 1)^d and k < n; every other input is
    scanned.  The table serves site sets of at least ``_TABLE_MIN_SITES``
    sites: weighted ones always (fewer weighted sites are scanned), and
    unweighted ones once warm, when the table for (k, metric) counts at
    least ``_ROWS_PER_CELL`` n / k rows ranked before this call.  Until then
    an unweighted call takes the tree and adds its rows to that count, so a
    one-shot call keeps the tree and a Monte Carlo count takes the table
    from its second block on.  Fewer unweighted sites always take the tree.

    Unweighted sites on the tree: on the torus it is a plain cKDTree over
    the sites' periodic images within its reach (``WeightedSites.tree``);
    a row whose last tree distance is not below the reach is a far row, and
    a set of sites too small for a reach below 1/2 has no tree.  The tree
    returns the k + 1 nearest sites of each point in distance order.  If
    every two adjacent distances of a row lie more than a relative
    ``_TIE_GAP`` apart, the exact scores keep that order, every other site
    is farther than the k-th, and the row is the tree's first k.  Rows with
    a closer pair, and far rows, are scanned; with no tree, every row is.

    The cell table: each row scores the list of its cell in the site set's
    table for k (``WeightedSites.table``) and ranks it by (score, index),
    ``_rank_table``.  For a cell of centre c and side h and a site s, with
    delta the per-coordinate distance from c to s (wrapped on the torus),
    the rootless score of every point of the cell lies in [lo, up] / w^(q/d),
    lo = sum max(delta - h/2, 0)^q and up = sum (delta + h/2)^q (max for
    p = inf).  With U the k-th smallest up, every point of the cell has k
    sites of score at most U, so a site with lo > U (1 + ``_TIE_GAP``) never
    ranks there and the list holds every other site: the rows are exact by
    construction, with no fallback.  The slack, and a half-side widened by
    ``_CELL_MARGIN``, cover the rounding of the scores.  The table starts
    from one cell and halves its side, each child filtering its parent's
    list, to the finest grid of G^d cells with G^d n <= ``_ROOT_ENTRIES``,
    or the first with ``_CELLS_PER_SITE`` n / k cells if that is coarser;
    it then halves again while it has fewer cells than
    min(``_CELLS_PER_SITE`` n / k, R / ``_ROWS_PER_CELL``), R the rows it
    counts, this call included.  So a one-shot call stays coarse and a
    Monte Carlo count deepens after its first block; a warm unweighted call
    finds at least n / k cells.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not 1 <= k <= sites.n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= site count {sites.n}")
    if not (k < sites.n and _trees_serve(pts, sites)):
        return _rank_scan(pts, sites, k, g)
    if sites.n >= _TABLE_MIN_SITES:
        table = sites.table(g, k)
        if (not sites.unweighted
                or table.rows >= _ROWS_PER_CELL * sites.n / k):
            return _rank_table(pts, sites, k, g)
        table.rows += len(pts)
    elif not sites.unweighted:
        return _rank_scan(pts, sites, k, g)
    found = sites.tree(g, None, k + 1)
    if found is None:
        return _rank_scan(pts, sites, k, g)
    tree, owner, reach = found
    dist, idx = tree.query(pts, k=k + 1, p=g.p_norm)
    ranked = owner[idx[:, :k]]
    unsure = np.flatnonzero(
        (dist[:, 1:] <= dist[:, :-1] * (1.0 + _TIE_GAP)).any(axis=1)
        | (dist[:, -1] >= reach))
    if len(unsure):
        ranked[unsure] = _rank_scan(pts[unsure], sites, k, g)
    return ranked


def k_nearest_sites(p, sites, k, g):
    """``(key, ranked)`` for one point: the RegionKey (sorted tuple of site
    indices) and its ``knearest`` row, by the scan alone (a tree reference)."""
    ranked = _rank_scan(np.atleast_2d(np.asarray(p, dtype=float)), sites, k, g)[0]
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
    recorded (see RegionCountResult.counts_at).  Each block of sample
    points is ranked by ``knearest``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= k <= sites.n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= site count {sites.n}")
    # a sorted key row is one int64 in mixed radix n when n^k fits
    radix = None
    if sites.n ** k < 1 << 63:
        radix = sites.n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)  # sorted codes of the keys found
    rng = np.random.default_rng(seed)
    keys = set()
    witnesses = {}
    found = []  # sample index at which each key was first seen, increasing
    done = 0
    while done < samples:
        block = min(_MC_BLOCK, samples - done)
        pts = rng.random((block, g.d))
        rows = knearest(pts, sites, k, g)
        rows.sort(axis=1)
        if radix is not None:
            uniq, first = np.unique(rows @ radix, return_index=True)
            new = ~np.isin(uniq, seen, assume_unique=True)
            seen = np.sort(np.concatenate((seen, uniq[new])))
            fresh = np.sort(first[new])
        else:
            first = np.sort(np.unique(rows, axis=0, return_index=True)[1])
            fresh = first[np.array([tuple(r) not in keys
                                    for r in rows[first].tolist()], dtype=bool)]
        # in discovery order, so witnesses are the earliest points
        new_keys = list(map(tuple, rows[fresh].tolist()))
        keys.update(new_keys)
        witnesses.update(zip(new_keys, pts[fresh]))
        found.extend((done + fresh).tolist())
        done += block
    counts_at = {int(c): bisect.bisect_left(found, c)
                 for c in checkpoints if 0 < c <= samples}
    return RegionCountResult(
        count=len(keys), keys=keys, witnesses=witnesses,
        samples=samples, seed=seed, n=sites.n, k=k,
        counts_at=counts_at)


def compute_R_A(A, sites, g):
    """max over i in A of dist(s1, s_i) / (omega_1 + omega_i), where s1 is
    the minimum-weight site of A (ties by smaller index)."""
    idx = np.asarray(sorted(A), dtype=int)
    w = sites.weights[idx]
    s1 = int(idx[np.argmin(w)])
    om = sites.normalized_weights
    dist = cross_distances(sites.positions[s1], sites.positions[idx], g)[0]
    return float((dist / (om[s1] + om[idx])).max())


@dataclass(frozen=True)
class RelevanceCertificate:
    """A point and radius witnessing that a site set is relevant."""

    point: np.ndarray
    radius: float


def _relevant_at(p, r, s1, outside_pos, outside_omega, sites, g):
    dist = cross_distances(p, np.vstack((sites.positions[s1], outside_pos)), g)[0]
    return bool(dist[0] <= sites.normalized_weights[s1] * r
                and np.all(dist[1:] > outside_omega * r))


def relevance_certificate(A, sites, g, seed_point=None):
    """Search for a (point, radius >= R_A) pair certifying that A is relevant.

    A is relevant if some point p and radius r >= R_A satisfy
    dist(s1, p) <= omega_1 r while every site outside A is strictly
    farther than omega_i r.  A returned certificate is sound (the
    conditions are recomputed exactly); ``None`` means UNKNOWN, not
    irrelevant.

    ``seed_point`` (e.g. the Monte Carlo sample point that discovered A's
    region) is tried first with the radius induced by the region
    membership; otherwise candidate points come from a regular grid
    around s1 with ``_CERT_GRID`` points per axis, for radii j * R_A,
    j = 1.._CERT_RADIUS_STEPS.
    """
    key = tuple(sorted(int(i) for i in A))
    idx = np.asarray(key, dtype=int)
    w = sites.weights[idx]
    s1 = int(idx[np.argmin(w)])
    om = sites.normalized_weights
    outside = np.setdiff1d(np.arange(sites.n), idx)
    out_pos = sites.positions[outside]
    out_om = om[outside]
    R = compute_R_A(key, sites, g)

    if len(outside) == 0:
        return RelevanceCertificate(sites.positions[s1].copy(), R)

    if seed_point is not None:
        p0 = np.asarray(seed_point, dtype=float)
        member_d = cross_distances(p0, sites.positions[idx], g)[0]
        r0 = float((member_d / om[idx]).max())
        if r0 >= R and _relevant_at(p0, r0, s1, out_pos, out_om, sites, g):
            return RelevanceCertificate(p0, r0)

    if R == 0.0:
        if len(key) >= 2:
            raise ValueError("R_A = 0: coincident sites in A")
        # single site: any radius below half the nearest outsider works
        gap = cross_distances(sites.positions[s1][None, :], out_pos, g)[0] / out_om
        r0 = 0.5 * float(gap.min())
        if r0 > 0 and _relevant_at(sites.positions[s1], r0, s1, out_pos,
                                   out_om, sites, g):
            return RelevanceCertificate(sites.positions[s1].copy(), r0)
        return None

    s1_pos = sites.positions[s1]
    for j in range(1, _CERT_RADIUS_STEPS + 1):
        r = j * R
        extent = om[s1] * (j + 1) * R
        axis = np.linspace(-extent, extent, _CERT_GRID)
        grids = np.meshgrid(*([axis] * g.d), indexing="ij")
        cand = np.stack([c.ravel() for c in grids], axis=1) + s1_pos
        cand = np.mod(cand, 1.0) if g.wrap else np.clip(cand, 0.0, 1.0)
        d1 = cross_distances(cand, s1_pos[None, :], g)[:, 0]
        cand = cand[d1 <= om[s1] * r]
        if len(cand) == 0:
            continue
        step = max(1, _SCAN_ENTRIES // max(1, len(outside)))
        for a in range(0, len(cand), step):
            block = cand[a:a + step]
            dco = cross_distances(block, out_pos, g)
            good = np.all(dco > out_om[None, :] * r, axis=1)
            hit = np.flatnonzero(good)
            if len(hit):
                p = block[hit[0]]
                if _relevant_at(p, r, s1, out_pos, out_om, sites, g):
                    return RelevanceCertificate(p.copy(), float(r))
    return None


def generate_worst_case_sites(n, high_weight=None):
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
    sqrt_h_weight = 3.0 * n if high_weight is None else math.sqrt(high_weight)
    heavy_x = 0.18
    light_x0, light_x1 = 0.40, 0.62
    light_x = (np.linspace(light_x0, light_x1, h) if h > 1
               else np.array([light_x0]))
    # smallest disk of influence among the light sites
    rho_min = (light_x0 - heavy_x) / sqrt_h_weight
    span = 1.8 * rho_min
    heavy_y = 0.5 + (np.arange(h) - (h - 1) / 2.0) * (span / max(1, h - 1))

    pos = np.empty((n, 2))
    pos[:h, 0] = heavy_x
    pos[:h, 1] = heavy_y
    pos[h:, 0] = light_x
    pos[h:, 1] = 0.5
    weights = np.ones(n)
    weights[:h] = sqrt_h_weight**2
    return WeightedSites(pos, weights)
