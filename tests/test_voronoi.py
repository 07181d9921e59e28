import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoksat import voronoi
from geoksat.dimacs import load_sites
from geoksat.generate import (draw_geometric_clause_vars,
                              sample_geometric_formula)
from geoksat.geometry import (GeometrySpec, INFINITY, ball_volume_constant,
                              box_score_bounds, weighted_distance)
from geoksat.voronoi import (WeightedSites, compute_R_A,
                             count_regions_monte_carlo,
                             generate_worst_case_sites, k_nearest_sites,
                             knearest, random_sites, rank_k_smallest,
                             relevance_certificate, weighted_score_matrix)
from geoksat.weights import power_law_weights

G1 = GeometrySpec(d=1, p_norm=2)
G2 = GeometrySpec(d=2, p_norm=2)


def _sites1d(xs, ws=None):
    xs = np.asarray(xs, dtype=float)[:, None]
    return WeightedSites(xs, np.ones(len(xs)) if ws is None else np.asarray(ws, float))


def test_weighted_sites_invariants():
    s = WeightedSites.from_raw(np.random.default_rng(0).random((10, 2)),
                               np.linspace(2.0, 5.0, 10))
    assert s.weights.min() == 1.0
    assert np.allclose(s.normalized_weights**s.d, s.weights, rtol=1e-9)
    assert s.total == pytest.approx(s.weights.sum())
    with pytest.raises(ValueError):
        WeightedSites(np.zeros((2, 1)), np.array([2.0, 3.0]))
    with pytest.raises(ValueError):
        WeightedSites.from_raw(np.zeros((2, 1)), np.array([1.0, -1.0]))


def test_empty_site_set_is_rejected():
    for make in (lambda: random_sites(0, G2, 1),
                 lambda: WeightedSites(np.empty((0, 2)), np.empty(0)),
                 lambda: WeightedSites.from_raw(np.empty((0, 2)), [])):
        with pytest.raises(ValueError, match="at least one site"):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_rejected(bad, tmp_path):
    # NaN passes a `w <= 0` check; unchecked, it makes every normalized
    # weight NaN and the region count 1
    pos = np.random.default_rng(0).random((5, 2))
    raw = [1.0, 2.0, bad, 3.0, 4.0]
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"positions": pos.tolist(), "weights": raw}))
    for make in (lambda: WeightedSites(pos, [1.0, 2.0, bad, 3.0, 4.0]),
                 lambda: WeightedSites.from_raw(pos, raw),
                 lambda: random_sites(5, G2, 1, weights=raw),
                 lambda: load_sites(path)):
        with pytest.raises(ValueError, match="positive and finite"):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_are_rejected(bad):
    # unchecked, a NaN position drops its site: k = 1 finds 4 regions of 5
    pos = np.random.default_rng(0).random((5, 2))
    pos[2, 1] = bad
    for make in (lambda: WeightedSites(pos, np.ones(5)),
                 lambda: WeightedSites.from_raw(pos, np.arange(1.0, 6.0))):
        with pytest.raises(ValueError, match="positions must be finite"):
            make()
    # a position outside [0, 1) stays legal: the scan ranks it
    pos[2, 1] = 1.5
    assert count_regions_monte_carlo(WeightedSites(pos, np.ones(5)), 1,
                                     2000, 1, G2).count == 5


def test_k_nearest_basic():
    s = _sites1d([0.0, 0.5])
    key, ranked = k_nearest_sites([0.1], s, 1, G1)
    assert key == (0,) and list(ranked) == [0]
    key, ranked = k_nearest_sites([0.1], s, 2, G1)
    assert key == (0, 1) and list(ranked) == [0, 1]
    for k in (0, 3):
        with pytest.raises(ValueError, match="1 <= k"):
            k_nearest_sites([0.1], s, k, G1)


def test_k_nearest_weighted_example():
    # weight 8 at distance 0.2 beats weight 1 at distance 0.1 in 1d
    s = _sites1d([0.0, 0.3], [1.0, 8.0])
    key, ranked = k_nearest_sites([0.1], s, 1, G1)
    assert key == (1,)


def test_k_nearest_tie_breaks_by_index():
    s = _sites1d([0.2, 0.4])
    key, ranked = k_nearest_sites([0.3], s, 1, G1)
    assert key == (0,)


def test_rank_k_smallest_exact_tie_handling():
    vals = np.array([[3.0, 1.0, 1.0, 2.0],
                     [5.0, 5.0, 5.0, 5.0]])
    sel = rank_k_smallest(vals, 2)
    assert list(sel[0]) == [1, 2]
    assert list(sel[1]) == [0, 1]
    full = rank_k_smallest(vals, 4)
    assert list(full[0]) == [1, 2, 3, 0]
    assert list(full[1]) == [0, 1, 2, 3]


def test_region_count_trivial_cases():
    s = _sites1d([0.0, 0.5])
    res = count_regions_monte_carlo(s, 2, 100, 0, G1)
    assert res.count == 1 and res.keys == {(0, 1)}
    res = count_regions_monte_carlo(s, 1, 10_000, 0, G1)
    assert res.count == 2


def test_region_count_upper_bound_and_1d_oracle():
    rng = np.random.default_rng(9)
    for n, k in ((6, 2), (7, 3)):
        s = WeightedSites(rng.random((n, 1)), np.ones(n))
        res = count_regions_monte_carlo(s, k, 20_000, 1, G1)
        assert res.count <= math.comb(n, k)
        # 1d order-k regions are consecutive runs around the circle
        order = np.argsort(s.positions[:, 0])
        consecutive = {tuple(sorted(np.roll(order, -i)[:k])) for i in range(n)}
        assert res.keys <= consecutive
    for n in (10, 100):
        s = WeightedSites(rng.random((n, 1)), np.ones(n))
        res = count_regions_monte_carlo(s, 1, 1_000_000, 2, G1)
        assert res.count == n


def _exact_1d_regions(sites, k):
    """{key: length} of the non-empty order-k regions of weighted sites on
    the circle, exactly: each f_i(x) = dist(x, s_i) / w_i is linear between
    its kinks s_i and s_i + 1/2, so the ranking of all sites is constant
    between consecutive kinks and pairwise crossings; each such cell's
    midpoint is ranked by the scan."""
    s, w = sites.positions[:, 0], sites.weights
    i, j = np.triu_indices(sites.n, 1)
    shift = np.array([-1.0, 0.0, 1.0])
    # f_i = f_j where (x - a) / w_i = +-(x - b) / w_j, a and b the sites
    # shifted by a period; candidates that are no crossing only split cells
    a = (s[i, None] + shift)[:, :, None]
    b = (s[j, None] + shift)[:, None, :]
    wi, wj = w[i, None, None], w[j, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.concatenate(((a * wj - b * wi) / (wj - wi),
                               (a * wj + b * wi) / (wi + wj)), axis=None)
    cuts = np.concatenate((cuts[np.isfinite(cuts)] % 1.0, s, (s + 0.5) % 1.0))
    cuts = np.unique(cuts)
    ends = np.append(cuts[1:], cuts[0] + 1.0)
    mids = ((cuts + ends) / 2 % 1.0)[:, None]
    keys = np.sort(voronoi._rank_scan(mids, sites, k, G1), axis=1)
    regions = {}
    for key, length in zip(map(tuple, keys.tolist()), ends - cuts):
        regions[key] = regions.get(key, 0.0) + length
    return regions


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 60), st.integers(1, 4), st.sampled_from((2.1, 2.5, 3.0)),
       st.integers(0, 2**32 - 1))
def test_weighted_1d_region_counts_against_the_exact_oracle(n, k, beta, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    sites = WeightedSites.from_raw(rng.random((n, 1)),
                                   rng.permutation(power_law_weights(n, beta)))
    regions = _exact_1d_regions(sites, k)
    samples = 20_000
    res = count_regions_monte_carlo(sites, k, samples, seed, G1)
    # Monte Carlo finds only regions that exist, and every region longer
    # than 30 / samples (each missed with probability below e^-30)
    assert res.keys <= set(regions) and res.count <= len(regions)
    assert {key for key, length in regions.items()
            if length > 30 / samples} <= res.keys


def test_weighted_1d_region_count_reaches_the_exact_count():
    # a small site set and a large budget find every region
    rng = np.random.default_rng(4)
    sites = WeightedSites.from_raw(rng.random((12, 1)),
                                   rng.permutation(power_law_weights(12, 2.5)))
    for k in (1, 2, 3):
        regions = _exact_1d_regions(sites, k)
        assert min(regions.values()) > 1e-4
        res = count_regions_monte_carlo(sites, k, 400_000, 1, G1)
        assert res.keys == set(regions)


def test_region_count_prefix_extension_and_checkpoints():
    s = random_sites(100, G2, 5)
    a = count_regions_monte_carlo(s, 2, 5000, 3, G2)
    b = count_regions_monte_carlo(s, 2, 20_000, 3, G2, checkpoints=(5000,))
    assert a.keys <= b.keys
    assert b.counts_at[5000] == a.count
    assert b.count >= a.count


def _region_count_reference(sites, k, samples, seed, g, checkpoints):
    """Keys, witnesses in discovery order and counts_at, one point at a
    time over the same sample stream, ranked by the dense scan."""
    pts = np.random.default_rng(seed).random((samples, g.d))
    rows = np.sort(rank_k_smallest(weighted_score_matrix(pts, sites, g), k), axis=1)
    witnesses, counts_at = {}, {}
    for i, row in enumerate(rows.tolist(), start=1):
        witnesses.setdefault(tuple(row), pts[i - 1])
        if i in checkpoints:
            counts_at[i] = len(witnesses)
    return witnesses, counts_at


def _assert_matches_reference(res, sites, k, samples, seed, g, checkpoints=()):
    """The count equals ``_region_count_reference``: keys, witnesses in
    discovery order, and counts_at."""
    witnesses, counts_at = _region_count_reference(sites, k, samples, seed, g,
                                                   checkpoints)
    assert list(res.witnesses) == list(witnesses)
    assert res.keys == set(witnesses) and res.count == len(witnesses)
    for key, point in witnesses.items():
        assert np.array_equal(res.witnesses[key], point)
    assert res.counts_at == counts_at


def test_region_count_methods_agree():
    # knearest's trees (counting's ranking) and the dense scan (the reference)
    s = random_sites(300, G2, 11)
    for g in (G2, GeometrySpec(d=2, p_norm=1), GeometrySpec(d=2, p_norm=INFINITY),
              GeometrySpec(d=3, p_norm=2)):
        sg = random_sites(200, g, 13)
        res = count_regions_monte_carlo(sg, 2, 20_000, 7, g)
        _assert_matches_reference(res, sg, 2, 20_000, 7, g)
    # weighted sites rank through knearest's cell table
    weighted = WeightedSites.from_raw(s.positions, power_law_weights(300, 2.5))
    res = count_regions_monte_carlo(weighted, 2, 20_000, 7, G2)
    _assert_matches_reference(res, weighted, 2, 20_000, 7, G2)
    # in d = 1 one block of 32,768 rows deepens the table to 2048 cells and
    # the second block to 4096 (8 n / K = 2400 cells)
    line = WeightedSites.from_raw(s.positions[:, :1], power_law_weights(300, 2.5))
    res = count_regions_monte_carlo(line, 1, 40_000, 7, G1)
    _assert_matches_reference(res, line, 1, 40_000, 7, G1)
    assert line.table(G1, 1).side == 4096
    one = WeightedSites(line.positions, line.weights)
    count_regions_monte_carlo(one, 1, 32_768, 7, G1)
    assert one.table(G1, 1).side == 2048


def test_region_count_tree_keys_equal_scan_keys_at_ties():
    # coincident grid sites tie at the k-th place: the tree path must keep
    # the scan's smaller-index rule there, not the tree's internal order;
    # 40,000 samples span two Monte Carlo blocks, the first on the tree and
    # the second, warm, on the cell table
    rng = np.random.default_rng(2)
    s = WeightedSites(rng.integers(0, 8, (40, 2)) / 8, np.ones(40))
    res = count_regions_monte_carlo(s, 3, 40_000, 3, G2)
    _assert_matches_reference(res, s, 3, 40_000, 3, G2)
    assert s.table(G2, 3).rows == 40_000
    # k = n: the tree has no (k + 1)-th neighbour to compare with
    every = count_regions_monte_carlo(WeightedSites(s.positions[:3], np.ones(3)),
                                      3, 100, 0, G2)
    assert every.keys == {(0, 1, 2)}


def test_region_count_scans_sites_outside_the_unit_cube():
    # a site at 1.0 (a loaded site file may hold one) lies outside
    # [0, 1)^d, where the trees' periodic images are not shown to be exact,
    # so the count takes knearest's scan
    pos = random_sites(30, G2, 6).positions.copy()
    pos[0, 0] = 1.0
    s = WeightedSites(pos, np.ones(30))
    with mock.patch.object(voronoi, "cKDTree") as tree:
        res = count_regions_monte_carlo(s, 2, 3000, 1, G2)
    tree.assert_not_called()
    _assert_matches_reference(res, s, 2, 3000, 1, G2)


def test_region_count_determinism():
    s = random_sites(50, G2, 21)
    a = count_regions_monte_carlo(s, 2, 8000, 9, G2)
    b = count_regions_monte_carlo(s, 2, 8000, 9, G2)
    assert a.keys == b.keys
    for key in a.witnesses:
        assert np.array_equal(a.witnesses[key], b.witnesses[key])


def test_compute_R_A():
    s = _sites1d([0.1, 0.5])
    assert compute_R_A((0,), s, G1) == 0.0
    assert compute_R_A((0, 1), s, G1) == pytest.approx(0.4 / 2)
    sw = _sites1d([0.1, 0.5], [1.0, 27.0])
    assert compute_R_A((0, 1), sw, G1) == pytest.approx(0.4 / 28)


def test_relevance_no_outside_sites():
    s = _sites1d([0.2, 0.6])
    cert = relevance_certificate((0, 1), s, G1)
    assert cert is not None
    assert np.allclose(cert.point, [0.2])


def test_relevance_single_site():
    s = _sites1d([0.0, 0.5])
    cert = relevance_certificate((0,), s, G1)
    assert cert is not None
    assert cert.radius > 0


def test_relevance_from_monte_carlo_witnesses():
    for seed in range(4):
        s = random_sites(50, G2, (seed, 99))
        res = count_regions_monte_carlo(s, 2, 5000, seed, G2)
        for key, point in res.witnesses.items():
            cert = relevance_certificate(key, s, G2, seed_point=point)
            assert cert is not None
            assert cert.radius >= compute_R_A(key, s, G2) - 1e-15
            # recompute the certificate conditions independently
            s1 = min((w, i) for i, w in zip(key, s.weights[list(key)]))[1]
            d1 = np.abs(s.positions[s1] - cert.point)
            d1 = np.minimum(d1, 1 - d1)
            assert (d1**2).sum() ** 0.5 <= s.normalized_weights[s1] * cert.radius + 1e-12
            outside = [i for i in range(50) if i not in key]
            diffs = np.abs(s.positions[outside] - cert.point)
            diffs = np.minimum(diffs, 1 - diffs)
            dists = np.sqrt((diffs**2).sum(axis=1))
            assert np.all(dists > s.normalized_weights[outside] * cert.radius)


def test_relevance_grid_search_without_seed():
    s = random_sites(20, G2, 41)
    res = count_regions_monte_carlo(s, 2, 2000, 1, G2)
    key = next(iter(res.keys))
    cert = relevance_certificate(key, s, G2)
    assert cert is not None


def test_relevance_coincident_sites_error():
    s = WeightedSites(np.array([[0.1], [0.1], [0.7]]), np.ones(3))
    with pytest.raises(ValueError):
        relevance_certificate((0, 1), s, G1)


def test_worst_case_structure():
    s = generate_worst_case_sites(4)
    assert s.n == 4
    high = s.weights.max()
    assert list(s.weights) == [high, high, 1.0, 1.0]
    with pytest.raises(ValueError):
        generate_worst_case_sites(5)
    with pytest.raises(ValueError):
        generate_worst_case_sites(2)


def test_worst_case_order3_growth():
    counts = {}
    for n in (10, 20):
        s = generate_worst_case_sites(n)
        counts[n] = count_regions_monte_carlo(s, 3, 50 * n**3, 1, G2).count
    assert counts[20] >= 3 * counts[10]


def test_worst_case_order1_fragmentation():
    # every low-weight disk plus every high-weight band is its own region,
    # but the disks have area ~1/n^2 and need a matching sample budget
    for n in (10, 20):
        s = generate_worst_case_sites(n)
        res = count_regions_monte_carlo(s, 1, 800 * n**2, 2, G2)
        assert res.count >= n


def test_score_matrix_matches_weighted_distance_ranking():
    rng = np.random.default_rng(17)
    for g in (G1, G2, GeometrySpec(d=2, p_norm=INFINITY), GeometrySpec(d=3, p_norm=1)):
        s = WeightedSites.from_raw(rng.random((12, g.d)), rng.uniform(1, 5, 12))
        pts = rng.random((20, g.d))
        scores = weighted_score_matrix(pts, s, g)
        for row, p in zip(scores, pts):
            diffs = np.abs(s.positions - p)
            diffs = np.minimum(diffs, 1 - diffs)
            if g.is_max_norm:
                wd = diffs.max(axis=1) / s.normalized_weights
            else:
                q = int(g.p_norm)
                wd = (diffs**q).sum(axis=1) ** (1 / q) / s.normalized_weights
            assert np.array_equal(np.argsort(row), np.argsort(wd))
        # candidate indices score bit for bit as the full matrix's entries
        cand = rng.integers(0, 12, (20, 5))
        assert np.array_equal(weighted_score_matrix(pts, s, g, cand),
                              np.take_along_axis(scores, cand, axis=1))


@pytest.mark.parametrize(
    "n,k,backend,samples",
    [(60, 2, "scan", 40_000), (40, 3, "tree", 40_000), (100, 10, "tree", 40_000),
     (40, 3, "tree", 32_771)],
    ids=["60-2-scan", "40-3-tree", "100-10-tree", "40-3-tree-32771"])
def test_region_count_dedup_matches_reference(n, k, backend, samples,
                                              monkeypatch):
    # 100^10 >= 2^63: the third case dedups tuple keys instead of int64 codes;
    # 40k samples span two Monte Carlo blocks, with marks on both sides; the
    # last block of 32771 samples has fewer than _TREE_MIN_ROWS rows, so
    # knearest scans it inside the count; the scan case scans every block
    if backend == "scan":
        monkeypatch.setattr(voronoi, "_TREE_MIN_ROWS", samples + 1)
    s = random_sites(n, G2, 4)
    marks = (1, 700, 2500, 6000, 32_768, 32_769, 32_771, 40_000)
    res = count_regions_monte_carlo(s, k, samples, 12, G2, checkpoints=marks)
    _assert_matches_reference(res, s, k, samples, 12, G2, marks)


def _brute_ranking(points, sites, k, g):
    """Sites ranked by (weighted_distance, index), one by one, with each
    row's weighted distances in that order."""
    out, dists = [], []
    for p in points:
        dist = [weighted_distance(i, p, sites, g) for i in range(sites.n)]
        order = sorted(range(sites.n), key=lambda i: (dist[i], i))
        out.append(order)
        dists.append([dist[i] for i in order])
    return np.array(out, dtype=np.int64), np.array(dists)


def _case_weights(draw, rng, n):
    kind = draw(st.sampled_from(("none", "uniform", "powerlaw", "edges")))
    if kind == "uniform":
        return rng.uniform(1.0, 4.0, n)
    if kind == "powerlaw":
        # several weight classes; the heaviest sites get random indices
        beta = draw(st.sampled_from((2.1, 2.5, 3.0)))
        return rng.permutation(power_law_weights(n, beta))
    if kind == "edges":
        # every weight on a class edge 2^j, so scores tie across classes
        return 2.0 ** rng.integers(0, 4, n)
    return np.ones(n)


@st.composite
def _knearest_cases(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    g = GeometrySpec(d=d, p_norm=draw(st.sampled_from((1, 2, 3, INFINITY))),
                     wrap=draw(st.booleans()))
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, min(n, 4)) | st.integers(1, n))
    layout = draw(st.sampled_from(("uniform", "grid", "duplicates", "at_one")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.random((n, d))
    pts = rng.random((draw(st.integers(1, 30)), d))
    if layout == "grid":
        # exact distance ties, so the tree's candidate lists are cut inside
        # a tie and rows must fall back to the scan
        side = draw(st.sampled_from((2, 4, 8)))
        pos = rng.integers(0, side, (n, d)) / side
        pts = rng.integers(0, side, pts.shape) / side
    elif layout == "duplicates":
        pos = pos[rng.integers(0, max(1, n // 3), n)]
    elif layout == "at_one":
        pos[rng.integers(0, n), rng.integers(0, d)] = 1.0
    return g, WeightedSites.from_raw(pos, _case_weights(draw, rng, n)), pts, k


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_knearest_cases())
def test_knearest_equals_scan_and_brute_force(case):
    g, sites, pts, k = case
    got = knearest(pts, sites, k, g)
    assert got.dtype == np.int64
    assert np.array_equal(got, rank_k_smallest(weighted_score_matrix(pts, sites, g), k))
    # the same rows with the tree allowed for a single point
    with mock.patch.object(voronoi, "_TREE_MIN_ROWS", 1):
        assert np.array_equal(knearest(pts, sites, k, g), got)
    brute, dist = _brute_ranking(pts, sites, k, g)
    if sites.unweighted:
        assert np.array_equal(got, brute[:, :k])
        # warm at once: the same site set ranks the rows again through its
        # cell table, exact ties and all
        served = (sites.n >= voronoi._TABLE_MIN_SITES and k < sites.n
                  and sites.in_unit_cube)
        with mock.patch.object(voronoi, "_TREE_MIN_ROWS", 1), \
                mock.patch.object(voronoi, "_ROWS_PER_CELL", 0), \
                mock.patch.object(voronoi, "_rank_table",
                                  wraps=voronoi._rank_table) as ranked:
            assert np.array_equal(knearest(pts, sites, k, g), got)
        assert ranked.called == served
        return
    # weighted distances are roots of the scores: a tie of scores may round
    # apart, so rows whose first k + 1 distances nearly tie are held to the
    # distances alone
    got_dist = np.array([[weighted_distance(i, p, sites, g) for i in row]
                         for row, p in zip(got, pts)])
    assert np.allclose(got_dist, dist[:, :k], rtol=1e-12, atol=0)
    head = dist[:, :k + 1]
    clear = ~(head[:, 1:] <= head[:, :-1] * (1 + 1e-9)).any(axis=1)
    assert np.array_equal(got[clear], brute[clear, :k])


def _tree_spy(monkeypatch):
    """Record every cKDTree that voronoi builds, each query, and the rows
    sent to the scan."""
    calls = {"built": [], "queries": 0, "scanned": []}
    real_tree, real_scan = voronoi.cKDTree, voronoi._rank_scan

    class Tree(real_tree):
        def __init__(self, data, *args, **kwargs):
            assert not args and not kwargs  # plain trees only, no periodic box
            calls["built"].append(np.array(data))
            super().__init__(data)

        def query(self, *args, **kwargs):
            calls["queries"] += 1
            return super().query(*args, **kwargs)

    def scan(points, *args):
        calls["scanned"].append(points.copy())
        return real_scan(points, *args)

    monkeypatch.setattr(voronoi, "cKDTree", Tree)
    monkeypatch.setattr(voronoi, "_rank_scan", scan)
    return calls


def _image_count(pos, K, g):
    """The periodic images within the reach of [0, 1)^d that a torus tree
    over ``pos`` holds for K neighbours, counted over all 3^d shifts."""
    r = (4 * K / (len(pos) * ball_volume_constant(g))) ** (1 / g.d)
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=g.d)))
    images = pos[None, :, :] + shifts[:, None, :]
    return int(np.all((images >= -r) & (images <= 1 + r), axis=2).sum())


def _clustered(rng, n, d):
    """n sites within 0.05 of one point of the torus, with one site at the
    origin and one at 1 - 2^-53 in every coordinate."""
    pos = (rng.random(d) + rng.uniform(-0.05, 0.05, (n, d))) % 1.0
    pos[pos == 1.0] = 0.0
    pos[:2] = ([0.0] * d, [1.0 - 2.0 ** -53] * d)
    return pos


def test_knearest_backend_and_fallback_rows(monkeypatch):
    calls = _tree_spy(monkeypatch)
    rng = np.random.default_rng(2)
    pts = rng.random((500, 2))
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)

    def run(sites, k=3, pts=pts, g=G2):
        calls["queries"], calls["scanned"] = 0, []
        got = knearest(pts, sites, k, g)
        assert np.array_equal(got, rank_k_smallest(
            weighted_score_matrix(pts, sites, g), k))
        return calls["queries"], sum(len(p) for p in calls["scanned"])

    pos = rng.random((200, 2))
    plain = WeightedSites(pos, np.ones(200))
    # a site set's first call takes the tree, and its table counts the rows
    assert run(plain) == (1, 0)
    assert plain.table(G2, 3).rows == len(pts)
    # too few points to pay for the tree: the scan alone
    few = voronoi._TREE_MIN_ROWS
    assert run(plain, pts=pts[:few]) == (1, 0)
    assert run(plain, pts=pts[:few - 1]) == (0, few - 1)
    # the one-point reference never takes the tree, whatever the threshold
    monkeypatch.setattr(voronoi, "_TREE_MIN_ROWS", 1)
    assert run(plain, pts=pts[:1]) == (1, 0)
    calls["queries"] = 0
    _, ranked = k_nearest_sites(pts[0], plain, 3, G2)
    assert calls["queries"] == 0
    assert np.array_equal(ranked, knearest(pts[:1], plain, 3, G2)[0])
    monkeypatch.setattr(voronoi, "_TREE_MIN_ROWS", few)
    # one tree per (site set, K): the knearest calls above and a count over
    # two Monte Carlo blocks share it; it holds the sites' periodic images
    # within its reach, each owned by its site; the plain (unwrapped)
    # distance gets a second one over the sites themselves, also kept
    calls["queries"] = 0
    count_regions_monte_carlo(plain, 3, 40_000, 1, G2)
    assert [len(t) for t in calls["built"]] == [_image_count(pos, 4, G2)]
    # warm: after 16 n / k = 1067 rows (the count's first block) the site
    # set ranks through its cell table, with no tree query and no scan
    assert calls["queries"] == 1
    assert plain.table(G2, 3).rows == len(pts) + 10 + 40_000
    assert run(plain) == (0, 0)
    tree, owner, reach = plain.tree(G2, None, 4)
    shift = np.round(tree.data - pos[owner])
    assert np.array_equal(tree.data, pos[owner] + shift)
    assert np.abs(shift).max() == 1
    assert np.array_equal(np.unique(owner), np.arange(200))
    assert 0 < reach < 0.5
    assert np.array_equal(knearest(pts, plain, 3, flat), knearest(pts, plain, 3, flat))
    assert len(calls["built"]) == 2 and np.array_equal(calls["built"][1], pos)
    # the rows to scan: a near tie among the k + 1 nearest images, or the
    # (k + 1)-th beyond the reach (a far row)
    def unsure(sites, k):
        tree, _, reach = sites.tree(G2, None, k + 1)
        dist, _ = tree.query(pts, k=k + 1)
        far = dist[:, -1] >= reach
        return far, (dist[:, 1:] <= dist[:, :-1] * (1 + 1e-9)).any(axis=1) | far

    # a site twice or three times: a point whose nearest site is repeated
    # sees a tie at the k-th place, and exactly those rows and the far rows
    # are scanned
    dup = rank_k_smallest(weighted_score_matrix(pts, plain, G2), 1)[:, 0] < 50
    assert 0 < dup.sum() < len(pts)
    for copies in (1, 2):
        twice = WeightedSites(np.vstack([pos] + [pos[:50]] * copies),
                              np.ones(200 + 50 * copies))
        far, rows = unsure(twice, 1)
        assert np.array_equal(rows, dup | far) and far.sum() < len(pts) // 20
        assert run(twice, k=1) == (1, rows.sum())
        assert np.array_equal(calls["scanned"][0], pts[rows])
        # the table ranks the tie rows too, from the call after the one
        # that reaches 16 n / k rows ranked
        knearest(rng.random((16 * twice.n - 2 * len(pts), 2)), twice, 1, G2)
        assert run(twice, k=1) == (1, rows.sum())
        assert run(twice, k=1) == (0, 0)
    # clustered sites: rows far from the cluster have their k + 1 nearest
    # images beyond the reach; exactly the tie rows and those far rows are
    # scanned
    clustered = WeightedSites(_clustered(rng, 200, 2), np.ones(200))
    far, rows = unsure(clustered, 3)
    assert 0 < far.sum() < len(pts)
    assert run(clustered) == (1, rows.sum())
    assert np.array_equal(calls["scanned"][0], pts[rows])
    # a site on the border scans every row, weighted or not
    at_one = pos.copy()
    at_one[0, 0] = 1.0
    assert run(WeightedSites(at_one, np.ones(200))) == (0, len(pts))
    assert run(WeightedSites.from_raw(at_one, rng.uniform(1, 3, 200))) == (0, len(pts))
    # a site set at the reach cap (n <= 4 (k + 1) 2^d / V sites) builds no
    # tree on the torus and scans every row; one site more takes the tree
    built = len(calls["built"])
    cap = math.floor(4 * 4 * 2**2 / math.pi)
    assert run(WeightedSites(pos[:cap], np.ones(cap))) == (0, len(pts))
    assert len(calls["built"]) == built
    assert run(WeightedSites(pos[:cap + 1], np.ones(cap + 1))) == (1, 0)
    assert len(calls["built"]) == built + 1
    # in the cube, k = n - 1 still has a (k + 1)-th neighbour to compare
    # with; k = n scans
    four = WeightedSites(pos[:4], np.ones(4))
    assert run(four, g=flat) == (1, 0)
    assert run(four, k=4, g=flat) == (0, len(pts))
    # fewer than 12 sites keep the tree however many rows they rank
    for _ in range(3):
        assert run(four, g=flat) == (1, 0)
    assert not four._tables
    # a T = 0 core at the pigeonhole clause count (n 2000, k 2, m 31,969) is
    # one call on a fresh site set: one tree query, and no table level
    # beyond the root
    calls["queries"], m = 0, 4 * 2 * 2 * 1998 + 1
    core = sample_geometric_formula(2000, m, 2, G2, 0.0, None, seed=7)
    assert calls["queries"] == 1
    assert (core.sites.table(G2, 2).side, core.sites.table(G2, 2).rows) == (4, m)


def test_knearest_weighted_backend_and_fallback_rows(monkeypatch):
    calls = _tree_spy(monkeypatch)
    built, scanned = calls["built"], calls["scanned"]
    rng = np.random.default_rng(5)
    pts = rng.random((4000, 2))
    k = 2
    sites = random_sites(500, G2, 3, power_law_weights(500, 2.5))
    classes = sites.weight_classes
    assert len(classes) >= 4
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(500))
    for j, members in enumerate(classes):
        assert np.all(np.floor(np.log2(sites.weights[members])) == j)
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)

    # weighted sites rank through their cell table: no cKDTree, no scan
    got = knearest(pts, sites, k, G2)
    assert np.array_equal(got, rank_k_smallest(
        weighted_score_matrix(pts, sites, G2), k))
    assert not built and not scanned
    # one 4000-row call stays coarse: the root has 8^2 cells (8^2 * 500 <=
    # 2^16 < 16^2 * 500) and one split reaches 4000 / 16 = 250 cells
    table = sites.table(G2, k)
    assert (table.side, table.rows) == (16, 4000)
    cells = table.side ** 2
    assert table.cand.shape == (cells, table.length.max())
    for row, length in zip(table.cand, table.length):
        assert k <= length and np.all(np.diff(row[:length]) > 0)

    # one table per (K, g), kept: a Monte Carlo count deepens it; the first
    # grid with at least 8 n / K = 2000 cells is the deepest, however many
    # rows follow
    count_regions_monte_carlo(sites, k, 40_000, 1, G2)
    assert sites.table(G2, k) is table and table.rows == 44_000
    assert (table.side // 2) ** 2 < 8 * 500 / k <= table.side ** 2
    side = table.side
    count_regions_monte_carlo(sites, k, 100_000, 2, G2)
    assert table.side == side and table.rows == 144_000
    # the unwrapped metric and another k get tables of their own
    assert np.array_equal(knearest(pts, sites, k, flat), rank_k_smallest(
        weighted_score_matrix(pts, sites, flat), k))
    knearest(pts, sites, k + 1, G2)
    assert set(sites._tables) == {(k, G2), (k, flat), (k + 1, G2)}
    assert sites.table(G2, k) is table
    assert not built and not scanned

    # too few points or too few sites: the scan alone
    few = voronoi._TREE_MIN_ROWS
    knearest(pts[:few - 1], sites, k, G2)
    small = random_sites(voronoi._TABLE_MIN_SITES - 1, G2, 4,
                         power_law_weights(voronoi._TABLE_MIN_SITES - 1, 2.5))
    assert np.array_equal(knearest(pts, small, k, G2), rank_k_smallest(
        weighted_score_matrix(pts, small, G2), k))
    assert [len(p) for p in scanned] == [few - 1, len(pts)]
    assert not small._tables and not built

    # the T < 1 race still takes its candidates from the weight-class trees
    draw_geometric_clause_vars(pts[:100], sites, k, 0.5, G2,
                               np.random.default_rng(0))
    assert built


def test_cell_table_lists_hold_every_site_that_can_rank():
    # on every cell of the table of a 40-site set: a site left out has a
    # lower bound above the cell's U, the K-th smallest upper bound over all
    # sites; and the brute-force K nearest at the cell's corners, and one
    # ulp inside or outside each edge, are in its list
    rng = np.random.default_rng(8)
    sites = WeightedSites.from_raw(rng.random((40, 2)),
                                   rng.permutation(power_law_weights(40, 2.1)))
    for g in (G2, GeometrySpec(d=2, p_norm=INFINITY),
              GeometrySpec(d=2, p_norm=1, wrap=False)):
        for K in (1, 3):
            table = sites.table(g, K)
            side = table.side
            assert side > 1
            wq = sites.weights ** (g.score_power / 2)
            edges = np.arange(side + 1) / side
            # per axis: each edge, and one ulp below and above it
            near = np.stack((edges, np.nextafter(edges, -1), np.nextafter(edges, 2)))
            for cell in range(side ** 2):
                i, j = divmod(cell, side)
                listed = table.cand[cell, :table.length[cell]]
                centre = [np.array([[(i + 0.5) / side]]),
                          np.array([[(j + 0.5) / side]])]
                lo, up = box_score_bounds(centre, 0.5 / side,
                                          list(sites.positions.T), g)
                lo, up = lo[0] / wq, up[0] / wq
                U = np.sort(up)[K - 1]
                out = np.setdiff1d(np.arange(sites.n), listed)
                assert np.all(lo[out] > U)
                xs = near[:, [i, i + 1]].ravel()
                ys = near[:, [j, j + 1]].ravel()
                pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
                order, _ = _brute_plain(pts, sites, K, g)
                assert np.all(np.isin(order[:, :K], listed))


def _brute_plain(points, sites, k, g):
    """Sites ranked by (weighted distance, index) from per-coordinate torus
    or cube differences and ``np.linalg.norm``, with each row's weighted
    distances in that order."""
    diff = np.abs(points[:, None, :] - sites.positions[None, :, :])
    if g.wrap:
        diff = np.minimum(diff, 1.0 - diff)
    dist = np.linalg.norm(diff, ord=g.p_norm, axis=2) / sites.normalized_weights
    order = np.lexsort((np.broadcast_to(np.arange(sites.n), dist.shape), dist))
    return order, np.take_along_axis(dist, order, axis=1)


@st.composite
def _clustered_cases(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    g = GeometrySpec(d=d, p_norm=draw(st.sampled_from((1, 2, 3, INFINITY))))
    n = draw(st.integers(3, 300))
    k = draw(st.integers(1, min(n, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = _clustered(rng, n, d)
    # uniform points, mostly far from the cluster, some inside it and some
    # near its antipode, where the nearest image of a site wraps around
    near = pos[rng.integers(0, n, 8)] * (1 - 1e-3) + 5e-4
    pts = np.vstack((rng.random((draw(st.integers(8, 40)), d)), near[:4],
                     (near[4:] + 0.5 + rng.uniform(-0.1, 0.1, (4, d))) % 1.0))
    return g, WeightedSites.from_raw(pos, _case_weights(draw, rng, n)), pts, k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_clustered_cases())
def test_knearest_on_clustered_sites_equals_scan_and_brute_force(case):
    # sites within 0.05 of one point: most rows lie beyond the unweighted
    # tree's reach (the far rows), and most cells of a weighted table lie
    # far from every site
    g, sites, pts, k = case
    got = knearest(pts, sites, k, g)
    assert np.array_equal(got, voronoi._rank_scan(pts, sites, k, g))
    brute, dist = _brute_plain(pts, sites, k, g)
    got_dist = np.take_along_axis(dist, np.argsort(brute, axis=1), axis=1)
    assert np.allclose(np.take_along_axis(got_dist, got, axis=1), dist[:, :k],
                       rtol=1e-12, atol=0)
    # rows whose first k + 1 distances nearly tie are held to the distances
    head = dist[:, :k + 1]
    clear = ~(head[:, 1:] <= head[:, :-1] * (1 + 1e-9)).any(axis=1)
    assert np.array_equal(got[clear], brute[clear, :k])
