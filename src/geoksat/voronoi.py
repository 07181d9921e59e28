"""Weighted order-k Voronoi machinery on the torus.

Sites carry multiplicative weights with minimum exactly 1; the weighted
distance of a point to site i is dist/w_i^(1/d).  The order-k region of a
size-k set A is the set of points whose k weighted-nearest sites are
exactly A.  Regions are never constructed explicitly; non-empty regions
are discovered by Monte Carlo sampling of k-nearest queries.  Every score
and distance here comes from ``geometry.pnorm_scores``.

``knearest`` is the one exact k-nearest kernel.  It takes candidates from
periodic cKDTrees that the site set builds once and keeps
(``WeightedSites.tree``): one over all unweighted sites, or one per weight
class [2^j, 2^(j+1)) of weighted sites, the layering of the geometric
inhomogeneous random graph samplers (Bringmann, Keusch and Lengler, arXiv
1511.00576).  Rows the trees cannot settle and calls with few points go to
the dense score scan, so both backends return the same indices.  The
sampler's exponential race (``generate``) takes its candidates from the
same class trees, through ``_class_candidates``, or all n sites when no
class is cut short.  Monte Carlo counting sorts ``knearest`` rows into
region keys; ``k_nearest_sites`` is the scan-only reference for one point.
"""

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .geometry import cross_distances, pnorm_scores
from .weights import check_weights

# Monte Carlo points are drawn from the seeded stream in blocks of this
# fixed size so that results are reproducible and prefix-extensible.
_MC_BLOCK = 1 << 15
# cap on distance-matrix entries processed at once
_SCAN_ENTRIES = 4_000_000
# two adjacent tree distances of a row further apart than this relative gap
# keep their order under the exact scores (the float error of either is far
# smaller); a row with a closer pair may hide a tie and is scanned
_TIE_GAP = 1e-9
# knearest scans fewer query rows than this: building the tree costs about as
# much as scanning this many rows (2 vCPU, d = 2, n from 50 to 20000)
_TREE_MIN_ROWS = 8


@dataclass(frozen=True)
class WeightedSites:
    """Finite site positions (n, d) with multiplicative weights, min weight 1;
    positions outside [0, 1)^d are legal (``knearest`` scans them)."""

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

    @property
    def unweighted(self):
        return bool(np.all(self.weights == 1.0))

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

    def tree(self, wrap, cls=None):
        """cKDTree of the positions, or of weight class ``cls``'s members,
        periodic on the unit torus when ``wrap``; built on first use and
        kept, one per wrap mode."""
        if len(self.weight_classes) == 1:
            cls = None  # the one class holds every site, in index order
        if (wrap, cls) not in self._trees:
            pos = (self.positions if cls is None
                   else self.positions[self.weight_classes[cls]])
            self._trees[wrap, cls] = cKDTree(pos, boxsize=1.0 if wrap else None)
        return self._trees[wrap, cls]


def random_sites(n, g, seed_or_rng, weights=None):
    """Sites with uniform positions on the torus; weights default to 1."""
    pos = np.random.default_rng(seed_or_rng).random((n, g.d))
    return WeightedSites.from_raw(pos,
                                  np.ones(n) if weights is None else weights)


def weighted_score_matrix(points, sites, g):
    """(Q, n) matrix monotone in weighted distance: dist^q / w^(q/d) with
    q = ``g.score_power``.

    Avoids q-th roots; rankings and region keys are unchanged under the
    strictly increasing map x -> x^q.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = pnorm_scores(pts, sites.positions, g)
    if not sites.unweighted:
        base /= sites.weights ** (g.score_power / sites.d)
    return base


def rank_k_smallest(values, k):
    """Row-wise indices of the k smallest entries, ordered ascending with
    ties broken by smaller index.  ``values`` is (rows, n)."""
    rows, n = values.shape
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= {n} items")
    if k == n:
        order = np.argsort(values, axis=1, kind="stable")
        return order
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
    """Whether the trees may rank these points: at least ``_TREE_MIN_ROWS``
    of them, and sites and points in [0, 1)^d."""
    return (len(points) >= _TREE_MIN_ROWS and _in_unit_cube(sites.positions)
            and _in_unit_cube(points))


def _class_candidates(points, sites, g, sizes):
    """Each point's nearest members of every weight class, scored.

    Class c gives its ``sizes[c]`` nearest members by plain distance, or all
    of them when it has no more.  Returns ``(cand, scores, tails)``: the
    (rows, C) candidate site indices, increasing along each row, and their
    scores with the scan's arithmetic; ``tails`` holds ``(members, bound)``
    for each class with members left out, ``bound`` being the tree's lower
    bound on the score of every member left out: its last distance^q over
    the class's largest weight^(q/d).  When no class has more members than
    its size, the candidates are all n sites, scored by
    ``weighted_score_matrix``.
    """
    if all(len(m) <= s for m, s in zip(sites.weight_classes, sizes)):
        cand = np.broadcast_to(np.arange(sites.n), (len(points), sites.n))
        return cand, weighted_score_matrix(points, sites, g), []
    q = g.score_power
    wq = sites.weights ** (q / sites.d)  # the scan's divisor, bit for bit
    parts, tails = [], []
    for c, members in enumerate(sites.weight_classes):
        if len(members) <= sizes[c]:
            parts.append(np.broadcast_to(members, (len(points), len(members))))
            continue
        dist, idx = sites.tree(g.wrap, c).query(points, k=sizes[c], p=g.p_norm)
        parts.append(members[idx])
        tails.append((members, dist[:, -1] ** q / wq[members].max()))
    cand = np.sort(np.concatenate(parts, axis=1), axis=1)
    # a take per coordinate, each a contiguous (rows, C) block, is several
    # times faster than the (rows, C, d) fancy index
    others = np.moveaxis(np.take(sites.positions.T, cand, axis=1), 0, -1)
    scores = pnorm_scores(points, others, g)
    scores /= wq[cand]
    return cand, scores, tails


def _rank_layered(points, sites, k, g):
    """``knearest`` of weighted sites through the weight-class trees."""
    cand, scores, tails = _class_candidates(
        points, sites, g, [k + 2] * len(sites.weight_classes))
    sel = rank_k_smallest(scores, k)
    ranked = np.take_along_axis(cand, sel, axis=1)
    if tails:
        kth = np.take_along_axis(scores, sel[:, -1:], axis=1)[:, 0]
        bounds = np.array([bound for _, bound in tails])
        unsure = np.flatnonzero((bounds <= kth * (1.0 + _TIE_GAP)).any(axis=0))
        if len(unsure):
            ranked[unsure] = _rank_scan(points[unsure], sites, k, g)
    return ranked


def knearest(points, sites, k, g):
    """(rows, k) indices of the k sites of smallest weighted distance to
    each point, ranked by increasing distance with ties broken by smaller
    index: ``rank_k_smallest`` on ``weighted_score_matrix``, row for row.

    The trees serve ``_TREE_MIN_ROWS`` or more points when sites and points
    lie in [0, 1)^d and k < n; every other input is scanned.

    Unweighted sites: the sites' cKDTree returns the k + 1 nearest sites of
    each point in distance order.  If every two adjacent distances of a row
    lie more than a relative ``_TIE_GAP`` apart, the exact scores keep that
    order, every other site is farther than the k-th, and the row is the
    tree's first k.  Rows with a closer pair are scanned.

    Weighted sites: each weight class [2^j, 2^(j+1)) has its own cKDTree
    and gives its k + 2 nearest members by plain distance (a class of at
    most k + 2 sites gives all of them).  The candidates are scored with
    the scan's arithmetic and ranked by (score, index).  A member a class
    left out is no nearer than the class's last candidate and no heavier
    than its heaviest site; when that bound beats the row's k-th score by
    a relative ``_TIE_GAP`` in every such class, the row is exact.  Other
    rows are scanned.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not 1 <= k <= sites.n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= site count {sites.n}")
    if not (k < sites.n and _trees_serve(pts, sites)):
        return _rank_scan(pts, sites, k, g)
    if not sites.unweighted:
        out = np.empty((len(pts), k), dtype=np.int64)
        step = max(1, _SCAN_ENTRIES // ((k + 2) * len(sites.weight_classes)))
        for a in range(0, len(pts), step):
            out[a:a + step] = _rank_layered(pts[a:a + step], sites, k, g)
        return out
    dist, idx = sites.tree(g.wrap).query(pts, k=k + 1, p=g.p_norm)
    ranked = idx[:, :k].astype(np.int64)
    tie = np.flatnonzero(
        (dist[:, 1:] <= dist[:, :-1] * (1.0 + _TIE_GAP)).any(axis=1))
    if len(tie):
        ranked[tie] = _rank_scan(pts[tie], sites, k, g)
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
    method: str

    n: int = 0
    k: int = 0
    # distinct-key counts after the given sample prefixes (undersampling
    # diagnostic: a saturated run has count close to its half-budget count)
    counts_at: dict = field(default_factory=dict)


def count_regions_monte_carlo(sites, k, samples, seed, g, method="auto",
                              checkpoints=()):
    """Count distinct RegionKeys among k-nearest queries at uniform points.

    Deterministic for a fixed seed, and the discovered key set is
    nondecreasing under prefix-extension of the sample stream.  The count
    is a lower bound on the true number of non-empty regions.
    ``checkpoints`` are sample prefixes at which the running count is
    recorded (see RegionCountResult.counts_at).  ``method="tree"`` ranks
    through ``knearest``, ``"scan"`` by the dense scan alone; ``"auto"``
    takes the tree for sites in [0, 1)^d.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= k <= sites.n:
        raise ValueError(f"k = {k} must satisfy 1 <= k <= site count {sites.n}")
    if method == "auto":
        method = "tree" if _in_unit_cube(sites.positions) else "scan"
    if method not in ("tree", "scan"):
        raise ValueError(f"unknown method {method!r}")
    rank = knearest if method == "tree" else _rank_scan

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
        rows = rank(pts, sites, k, g)
        rows.sort(axis=1)
        if radix is not None:
            uniq, first = np.unique(rows @ radix, return_index=True)
            new = ~np.isin(uniq, seen, assume_unique=True)
            seen = np.sort(np.concatenate((seen, uniq[new])))
            fresh = np.sort(first[new])
        else:
            _, first = np.unique(rows, axis=0, return_index=True)
            fresh = [i for i in np.sort(first)
                     if tuple(rows[i].tolist()) not in keys]
        # in discovery order, so witnesses are the earliest points
        for i in fresh:
            key = tuple(rows[i].tolist())
            keys.add(key)
            witnesses[key] = pts[i].copy()
            found.append(done + int(i))
        done += block
    counts_at = {int(c): bisect.bisect_left(found, c)
                 for c in checkpoints if 0 < c <= samples}
    return RegionCountResult(
        count=len(keys), keys=keys, witnesses=witnesses,
        samples=samples, seed=seed, method=method, n=sites.n, k=k,
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


def relevance_certificate(A, sites, g, grid_resolution=64, radius_steps=16,
                          seed_point=None):
    """Search for a (point, radius >= R_A) pair certifying that A is relevant.

    A is relevant if some point p and radius r >= R_A satisfy
    dist(s1, p) <= omega_1 r while every site outside A is strictly
    farther than omega_i r.  A returned certificate is sound (the
    conditions are recomputed exactly); ``None`` means UNKNOWN, not
    irrelevant.

    ``seed_point`` (e.g. the Monte Carlo sample point that discovered A's
    region) is tried first with the radius induced by the region
    membership; otherwise candidate points come from a regular grid
    around s1 with ``grid_resolution`` points per axis, for radii
    j * R_A, j = 1..radius_steps.
    """
    key = tuple(sorted(int(i) for i in A))
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
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
    for j in range(1, radius_steps + 1):
        r = j * R
        extent = om[s1] * (j + 1) * R
        axis = np.linspace(-extent, extent, grid_resolution)
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
