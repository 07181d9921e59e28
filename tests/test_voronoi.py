import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoksat import voronoi
from geoksat.dimacs import load_sites
from geoksat.geometry import GeometrySpec, INFINITY, weighted_distance
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
    # weighted sites rank through knearest's weight-class trees
    weighted = WeightedSites.from_raw(s.positions, power_law_weights(300, 2.5))
    res = count_regions_monte_carlo(weighted, 2, 20_000, 7, G2)
    _assert_matches_reference(res, weighted, 2, 20_000, 7, G2)


def test_region_count_tree_keys_equal_scan_keys_at_ties():
    # coincident grid sites tie at the k-th place: the tree path must keep
    # the scan's smaller-index rule there, not the tree's internal order
    rng = np.random.default_rng(2)
    s = WeightedSites(rng.integers(0, 8, (40, 2)) / 8, np.ones(40))
    res = count_regions_monte_carlo(s, 3, 20_000, 3, G2)
    _assert_matches_reference(res, s, 3, 20_000, 3, G2)
    # k = n: the tree has no (k + 1)-th neighbour to compare with
    every = count_regions_monte_carlo(WeightedSites(s.positions[:3], np.ones(3)),
                                      3, 100, 0, G2)
    assert every.keys == {(0, 1, 2)}


def test_region_count_scans_sites_outside_the_unit_cube():
    # a site at 1.0 (a loaded site file may hold one) lies outside the
    # tree's periodic box, so the count takes knearest's scan
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


def test_knearest_backend_and_fallback_rows(monkeypatch):
    calls = {"tree": 0, "scan_rows": [], "built": []}
    real_tree, real_scan = voronoi.cKDTree, voronoi._rank_scan

    class Tree(real_tree):
        def __init__(self, *args, **kwargs):
            calls["built"].append(kwargs.get("boxsize"))
            super().__init__(*args, **kwargs)

        def query(self, *args, **kwargs):
            calls["tree"] += 1
            return super().query(*args, **kwargs)

    def scan(points, *args):
        calls["scan_rows"].append(len(points))
        return real_scan(points, *args)

    monkeypatch.setattr(voronoi, "cKDTree", Tree)
    monkeypatch.setattr(voronoi, "_rank_scan", scan)
    rng = np.random.default_rng(2)
    pts = rng.random((500, 2))

    def run(sites, k=3, pts=pts):
        calls["tree"], calls["scan_rows"] = 0, []
        got = knearest(pts, sites, k, G2)
        assert np.array_equal(got, rank_k_smallest(
            weighted_score_matrix(pts, sites, G2), k))
        return calls["tree"], sum(calls["scan_rows"])

    pos = rng.random((200, 2))
    plain = WeightedSites(pos, np.ones(200))
    assert run(plain) == (1, 0)
    # too few points to pay for the tree: the scan alone
    few = voronoi._TREE_MIN_ROWS
    assert run(plain, pts=pts[:few]) == (1, 0)
    assert run(plain, pts=pts[:few - 1]) == (0, few - 1)
    # the one-point reference never takes the tree, whatever the threshold
    monkeypatch.setattr(voronoi, "_TREE_MIN_ROWS", 1)
    assert run(plain, pts=pts[:1]) == (1, 0)
    calls["tree"] = 0
    _, ranked = k_nearest_sites(pts[0], plain, 3, G2)
    assert calls["tree"] == 0
    assert np.array_equal(ranked, knearest(pts[:1], plain, 3, G2)[0])
    monkeypatch.setattr(voronoi, "_TREE_MIN_ROWS", few)
    # one tree per site set: the knearest calls above and a count over two
    # Monte Carlo blocks share it; the plain (unwrapped) distance gets a
    # second one, also kept
    count_regions_monte_carlo(plain, 3, 40_000, 1, G2)
    assert calls["built"] == [1.0]
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)
    assert np.array_equal(knearest(pts, plain, 3, flat), knearest(pts, plain, 3, flat))
    assert calls["built"] == [1.0, None]
    # a site twice or three times: a point whose nearest site is repeated
    # sees a tie at the k-th place, and exactly those rows are scanned
    dup = np.flatnonzero(rank_k_smallest(
        weighted_score_matrix(pts, plain, G2), 1)[:, 0] < 50)
    assert 0 < len(dup) < len(pts)
    assert run(WeightedSites(np.vstack([pos, pos[:50]]), np.ones(250)),
               k=1) == (1, len(dup))
    assert run(WeightedSites(np.vstack([pos, pos[:50], pos[:50]]),
                             np.ones(300)), k=1) == (1, len(dup))
    # a site on the border scans every row, weighted or not
    at_one = pos.copy()
    at_one[0, 0] = 1.0
    assert run(WeightedSites(at_one, np.ones(200))) == (0, len(pts))
    assert run(WeightedSites.from_raw(at_one, rng.uniform(1, 3, 200))) == (0, len(pts))
    # k = n - 1 still has a (k + 1)-th neighbour to compare with; k = n scans
    four = WeightedSites(pos[:4], np.ones(4))
    assert run(four) == (1, 0)
    assert run(four, k=4) == (0, len(pts))


def test_knearest_weighted_backend_and_fallback_rows(monkeypatch):
    built, scanned = [], []
    real_tree, real_scan = voronoi.cKDTree, voronoi._rank_scan

    class Tree(real_tree):
        def __init__(self, data, *args, **kwargs):
            built.append((len(data), kwargs.get("boxsize")))
            super().__init__(data, *args, **kwargs)

    def scan(points, *args):
        scanned.append(points.copy())
        return real_scan(points, *args)

    monkeypatch.setattr(voronoi, "cKDTree", Tree)
    monkeypatch.setattr(voronoi, "_rank_scan", scan)
    rng = np.random.default_rng(5)
    pts = rng.random((2000, 2))
    k = 2
    sites = random_sites(500, G2, 3, power_law_weights(500, 2.5))
    classes = sites.weight_classes
    assert len(classes) >= 4
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(500))
    for j, members in enumerate(classes):
        assert np.all(np.floor(np.log2(sites.weights[members])) == j)
    queried = [c for c in classes if len(c) > k + 2]
    assert 0 < len(queried) < len(classes)

    # the rows that fail the exactness check, recomputed from plain trees
    wq = sites.weights ** (G2.score_power / G2.d)
    scores = weighted_score_matrix(pts, sites, G2)
    kth = np.sort(scores, axis=1)[:, k - 1]
    unsure = np.zeros(len(pts), dtype=bool)
    for members in queried:
        dist, _ = real_tree(sites.positions[members], boxsize=1.0).query(
            pts, k=k + 2)
        unsure |= dist[:, -1] ** 2 / wq[members].max() <= kth * (1 + 1e-9)
    assert 0 < unsure.sum() < len(pts) // 4

    got = knearest(pts, sites, k, G2)
    assert np.array_equal(got, rank_k_smallest(scores, k))
    assert built == [(len(c), 1.0) for c in queried]
    assert len(scanned) == 1 and np.array_equal(scanned[0], pts[unsure])

    # the class trees are kept: a two-block Monte Carlo count and a second
    # call build nothing; the unwrapped metric gets its own trees, also kept
    scanned.clear()
    count_regions_monte_carlo(sites, k, 40_000, 1, G2)
    knearest(pts, sites, k, G2)
    assert len(built) == len(queried) and len(scanned) == 3
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)
    assert np.array_equal(knearest(pts, sites, k, flat),
                          rank_k_smallest(weighted_score_matrix(pts, sites, flat), k))
    knearest(pts, sites, k, flat)
    assert built[len(queried):] == [(len(c), None) for c in queried]

    # too few points to pay for the trees: the scan alone
    scanned.clear()
    few = voronoi._TREE_MIN_ROWS
    knearest(pts[:few - 1], random_sites(500, G2, 4, power_law_weights(500, 2.5)),
             k, G2)
    assert [len(p) for p in scanned] == [few - 1]
    assert len(built) == 2 * len(queried)
