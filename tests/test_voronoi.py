import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoksat import generate, voronoi
from geoksat.dimacs import load_sites
from geoksat.generate import (draw_geometric_clause_vars,
                              sample_geometric_formula)
from geoksat.geometry import (GeometrySpec, INFINITY, box_score_bounds,
                              weighted_distance)
from geoksat.voronoi import (WeightedSites, compute_R_A,
                             count_regions_monte_carlo,
                             generate_worst_case_sites, k_nearest_sites,
                             knearest, random_sites, rank_k_smallest,
                             relevance_certificate, select_k_smallest,
                             set_codes, weighted_score_matrix)
from geoksat.weights import power_law_weights

G1 = GeometrySpec(d=1, p_norm=2)
G2 = GeometrySpec(d=2, p_norm=2)


def _sites1d(xs, ws=None):
    xs = np.asarray(xs, dtype=float)[:, None]
    return WeightedSites(xs, np.ones(len(xs)) if ws is None else np.asarray(ws, float))


def test_weighted_sites_invariants():
    s = WeightedSites(np.random.default_rng(0).random((10, 2)),
                      np.linspace(2.0, 5.0, 10))
    assert s.weights.min() == 1.0
    assert np.allclose(s.normalized_weights**s.d, s.weights, rtol=1e-9)
    assert s.total == pytest.approx(s.weights.sum())
    # raw weights are divided by their minimum
    assert np.array_equal(WeightedSites(np.zeros((2, 1)), [2.0, 3.0]).weights,
                          [1.0, 1.5])
    with pytest.raises(ValueError):
        WeightedSites(np.zeros((2, 1)), np.array([1.0, -1.0]))


def test_positions_must_match_the_weights():
    for pos in (np.zeros((3, 2)), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError,
                           match=r"positions must be \(n, d\) matching weights"):
            WeightedSites(pos, np.ones(2))


def test_empty_site_set_is_rejected():
    for make in (lambda: random_sites(0, G2, 1),
                 lambda: WeightedSites(np.empty((0, 2)), np.empty(0))):
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
    for make in (lambda: WeightedSites(pos, raw),
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
                 lambda: WeightedSites(pos, np.arange(1.0, 6.0))):
        with pytest.raises(ValueError, match="positions must be finite"):
            make()
    # a position outside [0, 1] is rejected too: its circular differences
    # would go unwrapped and score wrongly
    pos[2, 1] = 1.5
    with pytest.raises(ValueError, match=r"must be finite and lie in \[0, 1\]"):
        WeightedSites(pos, np.ones(5))


def test_knearest_rejects_positions_outside_the_unit_cube():
    # d = 1, p = 1: with sites at 1.5 and 0.3 knearest returned site 0 for
    # the point 0.2, though site 1 is nearer on the torus (0.1 against 0.3)
    g = GeometrySpec(d=1, p_norm=1)
    with pytest.raises(ValueError, match="site positions must be finite"):
        WeightedSites([[1.5], [0.3]], np.ones(2))
    sites = WeightedSites([[0.5], [0.3]], np.ones(2))
    for bad in (1.5, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^points must be finite"):
            knearest([[0.2], [bad]], sites, 1, g)
        # clause points are checked at every temperature
        for T in (0.0, 0.5, 1.5):
            with pytest.raises(ValueError, match="^clause positions must be"):
                draw_geometric_clause_vars([[bad]] * 8, sites, 1, T, g,
                                           np.random.default_rng(0))


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


def test_select_k_smallest_matches_a_lexsort_reference():
    # few distinct values, -inf and +inf among them: most rows tie at the
    # k-th place, and the smaller index wins there
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 17):
        values = rng.choice([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf], (300, n))
        values[:50] = rng.random((50, n))  # rows with no tie
        order = np.lexsort((np.broadcast_to(np.arange(n), values.shape),
                            values))
        ties = 0
        for k in range(1, n + 1):
            sel, kept = select_k_smallest(values, k)
            assert np.array_equal(sel, np.sort(order[:, :k], axis=1))
            assert np.array_equal(kept, np.take_along_axis(values, sel, axis=1))
            assert np.array_equal(rank_k_smallest(values, k), order[:, :k])
            if k < n:
                head = np.take_along_axis(values, order[:, k - 1:k + 1], axis=1)
                ties += np.count_nonzero(head[:, 0] == head[:, 1])
        assert ties > 0 or n == 1
        for k in (0, n + 1):
            with pytest.raises(ValueError, match="1 <= k"):
                select_k_smallest(values, k)


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
    keys = np.sort(rank_k_smallest(weighted_score_matrix(mids, sites, G1), k),
                   axis=1)
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
    sites = WeightedSites(rng.random((n, 1)),
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
    sites = WeightedSites(rng.random((12, 1)),
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
    # knearest's cell table (counting's ranking) and the dense scan (the
    # reference)
    s = random_sites(300, G2, 11)
    for g in (G2, GeometrySpec(d=2, p_norm=1), GeometrySpec(d=2, p_norm=INFINITY),
              GeometrySpec(d=3, p_norm=2)):
        sg = random_sites(200, g, 13)
        res = count_regions_monte_carlo(sg, 2, 20_000, 7, g)
        _assert_matches_reference(res, sg, 2, 20_000, 7, g)
    # weighted sites rank through knearest's cell table
    weighted = WeightedSites(s.positions, power_law_weights(300, 2.5))
    res = count_regions_monte_carlo(weighted, 2, 20_000, 7, G2)
    _assert_matches_reference(res, weighted, 2, 20_000, 7, G2)
    # in d = 1 one block of 32,768 rows deepens the table to 2048 cells and
    # the second block to 4096 (8 n / K = 2400 cells)
    line = WeightedSites(s.positions[:, :1], power_law_weights(300, 2.5))
    res = count_regions_monte_carlo(line, 1, 40_000, 7, G1)
    _assert_matches_reference(res, line, 1, 40_000, 7, G1)
    assert line.table(G1, 1).side == 4096
    one = WeightedSites(line.positions, line.weights)
    count_regions_monte_carlo(one, 1, 32_768, 7, G1)
    assert one.table(G1, 1).side == 2048


def test_region_count_table_keys_equal_scan_keys_at_ties():
    # coincident grid sites tie at the k-th place and lie on the edges of
    # the table's cells: the cell table must keep the scan's smaller-index
    # rule there
    rng = np.random.default_rng(2)
    s = WeightedSites(rng.integers(0, 8, (40, 2)) / 8, np.ones(40))
    res = count_regions_monte_carlo(s, 3, 40_000, 3, G2)
    _assert_matches_reference(res, s, 3, 40_000, 3, G2)
    assert s.table(G2, 3).rows == 40_000
    # k = n: every site is in every key, which the walk returns with no table
    every = count_regions_monte_carlo(WeightedSites(s.positions[:3], np.ones(3)),
                                      3, 100, 0, G2)
    assert every.keys == {(0, 1, 2)}


def test_region_count_ranks_border_sites_through_the_table():
    # a site at 1.0 (a loaded site file may hold one) lies in the last cell
    # of its axis, and the count ranks it through knearest's cell table,
    # split to 16 x 16 cells by the 3000 rows
    pos = random_sites(30, G2, 6).positions.copy()
    pos[0, 0] = 1.0
    s = WeightedSites(pos, np.ones(30))
    with mock.patch.object(voronoi, "_rank_table",
                           wraps=voronoi._rank_table) as table:
        res = count_regions_monte_carlo(s, 2, 3000, 1, G2)
    table.assert_called_once()
    assert s.table(G2, 2).side == 16
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


def _plain_weighted_distances(points, sites, g):
    """(rows, n) dist / omega by numpy's vector norm, not by the package's
    p-norm kernel."""
    diff = np.abs(np.atleast_2d(points)[:, None, :] - sites.positions)
    if g.wrap:
        diff = np.minimum(diff, 1.0 - diff)
    return np.linalg.norm(diff, ord=g.p_norm, axis=2) / sites.normalized_weights


def _old_search_certifies(A, sites, g, seed_point):
    """Whether the search of 0.3.0 finds a certificate: the seed point at
    its membership radius, s1's position at half its nearest outsider's
    distance when R_A = 0, else each grid j at radius j R_A alone."""
    key = sorted(A)
    s1 = min(key, key=lambda i: (sites.weights[i], i))
    outside = [i for i in range(sites.n) if i not in key]
    R = compute_R_A(A, sites, g)

    def holds(points, r):
        wd = _plain_weighted_distances(points, sites, g)
        return (wd[:, s1] <= r) & np.all(wd[:, outside] > r, axis=1)

    if seed_point is not None:
        r0 = _plain_weighted_distances(seed_point, sites, g)[0, key].max()
        if r0 >= R and holds(seed_point, r0)[0]:
            return True
    centre = sites.positions[s1]
    if R == 0.0:
        r0 = 0.5 * _plain_weighted_distances(centre, sites, g)[0, outside].min()
        return bool(r0 > 0 and holds(centre, r0)[0])
    for j in range(1, voronoi._CERT_RADIUS_STEPS + 1):
        half = sites.normalized_weights[s1] * (j + 1) * R
        axis = np.linspace(-half, half, voronoi._CERT_GRID)
        grid = np.meshgrid(*([axis] * g.d), indexing="ij")
        pts = np.stack([c.ravel() for c in grid], axis=1) + centre
        pts = np.mod(pts, 1.0) if g.wrap else np.clip(pts, 0.0, 1.0)
        if holds(pts, j * R).any():
            return True
    return False


def _assert_certifies(cert, A, sites, g):
    """The definition, by ``weighted_distance``: r >= R_A, s1 within r,
    every site outside A strictly beyond it."""
    assert cert.radius >= compute_R_A(A, sites, g)
    s1 = min(A, key=lambda i: (sites.weights[i], i))
    assert weighted_distance(s1, cert.point, sites, g) <= cert.radius
    for i in set(range(sites.n)) - set(A):
        assert weighted_distance(i, cert.point, sites, g) > cert.radius


def test_relevance_finds_every_certificate_the_old_search_finds():
    # random site sets in d 1-2, p 1/2/inf, torus and cube, weighted and
    # not, |A| 1-3: half of the A are the k-nearest set of a random point,
    # so relevant, half random sets; a quarter of the calls get a seed point
    rng = np.random.default_rng(2004)
    outcomes = set()
    for case in range(120):
        g = GeometrySpec(d=int(rng.integers(1, 3)),
                         p_norm=[1, 2, INFINITY][case % 3],
                         wrap=bool(rng.integers(2)))
        n = int(rng.integers(5, 61))
        weights = (rng.permutation(power_law_weights(n, 2.5))
                   if rng.integers(2) else None)
        sites = random_sites(n, g, rng, weights)
        size = int(rng.integers(1, 4))
        point = rng.random(g.d)
        if rng.integers(2):
            A = k_nearest_sites(point, sites, size, g)[0]
        else:
            A = tuple(rng.choice(n, size, replace=False).tolist())
        seed_point = point if rng.random() < 0.25 else None
        cert = relevance_certificate(A, sites, g, seed_point=seed_point)
        old = _old_search_certifies(A, sites, g, seed_point)
        assert cert is not None or not old, (case, A)
        if cert is not None:
            _assert_certifies(cert, A, sites, g)
        outcomes.add((cert is not None, old))
    assert {(True, True), (False, False)} <= outcomes


@pytest.mark.parametrize("seed, permute, grid", [(429, False, 2),
                                                  (2850, True, 7)])
def test_relevance_needs_grids_past_the_first(seed, permute, grid):
    # 14 power-law sites in the cube under the max norm, a random 3-set:
    # about 1 seed in 200 is first certified by a grid past the first, so
    # _CERT_RADIUS_STEPS = 16 is not cut to 1
    g = GeometrySpec(d=2, p_norm=INFINITY, wrap=False)
    rng = np.random.default_rng(seed)
    weights = power_law_weights(14, 2.5)
    sites = random_sites(14, g, rng,
                         rng.permutation(weights) if permute else weights)
    A = tuple(sorted(rng.choice(14, 3, replace=False).tolist()))
    for steps in (1, grid - 1):
        with mock.patch.object(voronoi, "_CERT_RADIUS_STEPS", steps):
            assert relevance_certificate(A, sites, g) is None
    assert voronoi._CERT_RADIUS_STEPS == 16
    cert = relevance_certificate(A, sites, g)
    assert cert is not None
    _assert_certifies(cert, A, sites, g)


@pytest.mark.parametrize("A", [(-1, 3), (0, 0), (), (0, 5)],
                         ids=["negative", "repeated", "empty", "n"])
def test_relevance_rejects_a_malformed_site_set(A):
    s = random_sites(5, G2, 3)
    with pytest.raises(ValueError, match="distinct site indices"):
        relevance_certificate(A, s, G2)


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
        s = WeightedSites(rng.random((12, g.d)), rng.uniform(1, 5, 12))
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
    [(60, 2, "scan", 40_000), (40, 3, "table", 40_000),
     (100, 10, "table", 40_000), (40, 3, "table", 32_771)],
    ids=["60-2-scan", "40-3-table", "100-10-table", "40-3-table-32771"])
def test_region_count_dedup_matches_reference(n, k, backend, samples,
                                              monkeypatch):
    # 100^10 >= 2^63: the third case's set_codes rank the rows by one
    # lexsort instead of taking their radix-100 digits;
    # 40k samples span two Monte Carlo blocks, with marks on both sides; the
    # last block of 32771 samples is 3 rows, which the warm cell table ranks
    # inside the count; the scan case selects every block's keys from the
    # dense score matrix
    if backend == "scan":
        monkeypatch.setattr(voronoi, "_rank_table", lambda pts, sites, k, g:
                            voronoi.select_k_smallest(
                                weighted_score_matrix(pts, sites, g), k))
    s = random_sites(n, G2, 4)
    marks = (1, 700, 2500, 6000, 32_768, 32_769, 32_771, 40_000)
    res = count_regions_monte_carlo(s, k, samples, 12, G2, checkpoints=marks)
    _assert_matches_reference(res, s, k, samples, 12, G2, marks)


def _assert_codes_group_and_order(rows, codes):
    """Equal codes exactly for equal rows, and codes in the rows'
    lexicographic order."""
    assert codes.dtype == np.int64 and codes.shape == (len(rows),)
    same_rows = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
    assert np.array_equal(codes[:, None] == codes[None, :], same_rows)
    assert np.array_equal(np.argsort(codes, kind="stable"),
                          np.lexsort(rows.T[::-1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 6), m=st.integers(1, 80), spread=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_set_codes_radix_and_rank_branches_agree(k, m, spread, seed):
    # few distinct entries, so rows repeat; 2^63 forces the rank branch
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, k + spread, (m, k)), axis=1)
    n = int(rows.max()) + 1
    radix, rank = set_codes(rows, n), set_codes(rows, 2**63)
    assert np.array_equal(radix, rows @ (n ** np.arange(k - 1, -1, -1)))
    for codes in (radix, rank):
        _assert_codes_group_and_order(rows, codes)
    assert rank.min() == 0 and rank.max() == len(np.unique(rows, axis=0)) - 1


def test_set_codes_empty_and_numpy_n():
    for n in (10, 2**63):
        assert set_codes(np.empty((0, 3), dtype=np.int64), n).shape == (0,)
    # numpy wraps 300^8 to a negative int64; the kernel must see that it
    # overflows and rank the rows instead of colliding radix codes
    assert np.int64(300) ** 8 < 0
    rng = np.random.default_rng(5)
    rows = np.sort(rng.choice(300, (400, 8)), axis=1)
    rows[200:] = rows[:200]
    rows[::3, -1] = 299
    codes = set_codes(rows, np.int64(300))
    assert np.array_equal(codes, set_codes(rows, 300))
    assert codes.max() < len(rows)
    _assert_codes_group_and_order(rows, codes)


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
        # exact distance ties, at the k-th place and on the edges of the
        # table's cells
        side = draw(st.sampled_from((2, 4, 8)))
        pos = rng.integers(0, side, (n, d)) / side
        pts = rng.integers(0, side, pts.shape) / side
    elif layout == "duplicates":
        pos = pos[rng.integers(0, max(1, n // 3), n)]
    elif layout == "at_one":
        # a site and a point on the border, where the table's cell index is
        # clamped to its last cell
        pos[rng.integers(0, n), rng.integers(0, d)] = 1.0
        pts[rng.integers(0, len(pts)), rng.integers(0, d)] = 1.0
    return g, WeightedSites(pos, _case_weights(draw, rng, n)), pts, k


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_knearest_cases())
def test_knearest_equals_scan_and_brute_force(case):
    g, sites, pts, k = case
    # 1 to 30 rows: calls of fewer than 8 rows take the table too
    got = knearest(pts, sites, k, g)
    assert got.dtype == np.int64
    assert np.array_equal(got, rank_k_smallest(weighted_score_matrix(pts, sites, g), k))
    # one point alone, after the table has counted the call above
    assert np.array_equal(knearest(pts[:1], sites, k, g), got[:1])
    # deep at once: the same site set ranks the rows again through its cell
    # table, split to _CELLS_PER_SITE n / k cells, exact ties, k = n and
    # the border all
    with mock.patch.object(voronoi, "_ROWS_PER_CELL", 0), \
            mock.patch.object(voronoi, "_rank_table",
                              wraps=voronoi._rank_table) as ranked:
        assert np.array_equal(knearest(pts, sites, k, g), got)
    assert ranked.called
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


def _clustered(rng, n, d):
    """n sites within 0.05 of one point of the torus, with one site at the
    origin and one at 1 - 2^-53 in every coordinate."""
    pos = (rng.random(d) + rng.uniform(-0.05, 0.05, (n, d))) % 1.0
    pos[pos == 1.0] = 0.0
    pos[:2] = ([0.0] * d, [1.0 - 2.0 ** -53] * d)
    return pos


def test_knearest_backend_and_fallback_rows():
    rng = np.random.default_rng(2)
    pts = rng.random((500, 2))
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)

    def run(sites, k=3, pts=pts, g=G2):
        got = knearest(pts, sites, k, g)
        assert np.array_equal(got, rank_k_smallest(
            weighted_score_matrix(pts, sites, g), k))

    pos = rng.random((200, 2))
    plain = WeightedSites(pos, np.ones(200))
    # unweighted sites rank through their cell table from the first call;
    # one call of 500 rows halves the table to one cell per 16 of them
    run(plain)
    table = plain.table(G2, 3)
    assert (table.side, table.rows) == (8, len(pts))
    # calls of 7 points and of 1 take the table too
    run(plain, pts=pts[:7])
    run(plain, pts=pts[:1])
    # the one-point reference leaves the table as it is
    _, ranked = k_nearest_sites(pts[0], plain, 3, G2)
    assert table.rows == len(pts) + 8
    assert np.array_equal(ranked, knearest(pts[:1], plain, 3, G2)[0])
    # a count over two Monte Carlo blocks deepens the same table
    count_regions_monte_carlo(plain, 3, 40_000, 1, G2)
    assert plain.table(G2, 3) is table
    assert table.rows == len(pts) + 9 + 40_000
    assert (table.side // 2) ** 2 < 8 * 200 / 3 <= table.side ** 2
    run(plain)
    # the plain (unwrapped) distance gets a table of its own
    run(plain, g=flat)
    assert set(plain._tables) == {(3, G2), (3, flat)}
    # a site twice or three times: a point whose nearest site is repeated
    # ties at the k-th place, and the table keeps the smaller index there
    dup = rank_k_smallest(weighted_score_matrix(pts, plain, G2), 1)[:, 0] < 50
    assert 0 < dup.sum() < len(pts)
    for copies in (1, 2):
        twice = WeightedSites(np.vstack([pos] + [pos[:50]] * copies),
                              np.ones(200 + 50 * copies))
        run(twice, k=1)
        assert np.all(knearest(pts[dup], twice, 1, G2) < 50)
    # clustered sites: most cells lie far from every site
    clustered = WeightedSites(_clustered(rng, 200, 2), np.ones(200))
    run(clustered)
    # a site and points on the border take the table, weighted or not
    at_one = pos.copy()
    at_one[0, 0] = 1.0
    border = np.vstack((pts, [[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]]))
    run(WeightedSites(at_one, np.ones(200)), pts=border)
    run(WeightedSites(at_one, rng.uniform(1, 3, 200)), pts=border)
    # k = n - 1 takes the table, k = n the walk with no table
    four = WeightedSites(pos[:4], np.ones(4))
    run(four, g=flat)
    run(four, k=4, g=flat)
    run(four, k=4)
    # a T = 0 core at the pigeonhole clause count (n 2000, k 2, m 31,969) is
    # one call on a fresh site set: its table counts the rows and halves to
    # one cell per 16 of them
    m = 4 * 2 * 2 * 1998 + 1
    core = sample_geometric_formula(2000, m, 2, G2, 0.0, None, seed=7)
    assert (core.sites.table(G2, 2).side, core.sites.table(G2, 2).rows) == (64, m)


def test_k_equals_n_ranks_every_site_without_a_table():
    # at k = n every site ranks everywhere: the walk returns all n sites
    # with their dense scores, and no caller builds a table for k = n
    rng = np.random.default_rng(4)
    pts = rng.random((300, 2))
    for weights in (np.ones(5), rng.uniform(1, 3, 5)):
        sites = WeightedSites(rng.random((5, 2)), weights)
        cand, scores = voronoi._rank_table(pts, sites, 5, G2)
        assert np.array_equal(cand, np.broadcast_to(np.arange(5), (300, 5)))
        assert np.array_equal(scores, weighted_score_matrix(pts, sites, G2))
        assert np.array_equal(knearest(pts, sites, 5, G2),
                              rank_k_smallest(scores, 5))
        assert count_regions_monte_carlo(sites, 5, 100, 1, G2).keys == {
            (0, 1, 2, 3, 4)}
        # T >= 1: the race keys all n sites, its candidates from the walk
        with mock.patch.object(generate, "_rank_table",
                               wraps=voronoi._rank_table) as ranked:
            draw_geometric_clause_vars(pts, sites, 3, 1.5, G2, rng)
        assert ranked.call_args.args[2] == 5
        assert not sites._tables
        knearest(pts, sites, 4, G2)
        assert set(sites._tables) == {(4, G2)}


def test_race_candidates_wrap_around_the_torus():
    # the T < 1 race keys each clause's K weighted-nearest sites, selected
    # from the site set's kept cell table for (K, g): on the torus they
    # include the sites across the border, and in the cube they do not
    rng = np.random.default_rng(2)
    pos = rng.random((200, 2))
    plain = WeightedSites(pos, np.ones(200))
    K = generate._candidate_count(plain, 3, 0.5)
    assert 3 < K < 200
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)
    # points near a corner of the unit square
    pts = np.vstack((rng.random((400, 2)) * 0.02, rng.random((100, 2))))
    for g in (G2, flat):
        draw_geometric_clause_vars(pts, plain, 3, 0.5, g, rng)
        # each clause once, and again for the rows finished late
        table, rows = plain.table(g, K), plain.table(g, K).rows
        assert rows >= len(pts) and table.side > 1
        cand, scores = voronoi._rank_table(pts, plain, K, g)
        assert table.rows == rows + len(pts)
        full = weighted_score_matrix(pts, plain, g)
        assert np.array_equal(scores, np.take_along_axis(full, cand, axis=1))
        assert np.array_equal(np.sort(scores, axis=1),
                              np.sort(full, axis=1)[:, :K])
        # sites beyond the far edges, within 0.3 of the corner on the torus
        across = np.any(pos[cand[:400]] > 0.7, axis=2)
        assert across.any() if g.wrap else not across.any()
    assert set(plain._tables) == {(K, G2), (K, flat)}


def test_knearest_weighted_backend_and_fallback_rows():
    rng = np.random.default_rng(5)
    pts = rng.random((4000, 2))
    k = 2
    sites = random_sites(500, G2, 3, power_law_weights(500, 2.5))
    # weights in at least four classes [2^j, 2^(j+1))
    assert len(np.unique(np.floor(np.log2(sites.weights)))) >= 4
    flat = GeometrySpec(d=2, p_norm=2, wrap=False)

    # a fresh table is one cell listing every site in index order
    table = sites.table(G2, k)
    assert (table.side, table.rows) == (1, 0)
    assert table.cand.dtype == np.int32
    assert np.array_equal(table.cand, np.arange(500)[None, :])
    assert np.array_equal(table.length, [500])
    # weighted sites rank through their cell table
    reference = rank_k_smallest(weighted_score_matrix(pts, sites, G2), k)
    got = knearest(pts, sites, k, G2)
    assert np.array_equal(got, reference)
    # one 4000-row call stays coarse: halved until 4000 / 16 = 250 cells
    assert sites.table(G2, k) is table
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

    # calls of 1 to 7 points and sets of fewer than 12 sites take the table
    # too; one that has not split is the scan of every site
    for rows in (1, 7):
        assert np.array_equal(knearest(pts[:rows], sites, k, G2),
                              reference[:rows])
    small = random_sites(11, G2, 4, power_law_weights(11, 2.5))
    for rows in (1, 7, len(pts)):
        assert np.array_equal(knearest(pts[:rows], small, k, G2), rank_k_smallest(
            weighted_score_matrix(pts[:rows], small, G2), k))
        if rows < 16:
            assert small.table(G2, k).side == 1
    assert small.table(G2, k).rows == 8 + len(pts)

    # the T < 1 race selects its candidates from the table for K
    K = generate._candidate_count(sites, k, 0.5)
    draw_geometric_clause_vars(pts[:100], sites, k, 0.5, G2,
                               np.random.default_rng(0))
    assert sites.table(G2, K).rows == 100


_WRONG_D = {
    "knearest": lambda pts, sites, g: knearest(pts, sites, 2, g),
    "draw_geometric_clause_vars": lambda pts, sites, g: (
        draw_geometric_clause_vars(pts, sites, 2, 0.5, g,
                                   np.random.default_rng(0))),
    "count_regions_monte_carlo": lambda pts, sites, g: (
        count_regions_monte_carlo(sites, 2, 100, 0, g)),
    "k_nearest_sites": lambda pts, sites, g: k_nearest_sites(pts[0], sites, 2, g),
}


@pytest.mark.parametrize("entry", list(_WRONG_D))
def test_positions_must_match_the_geometry_dimension(entry):
    # d = 2 sites and points under a geometry of d = 1 or 3, and d = 3
    # points with d = 2 sites: each entry point rejects them before work
    rng = np.random.default_rng(4)
    sites = random_sites(30, G2, 1, power_law_weights(30, 2.5))
    pts = rng.random((40, 2))
    for g, p in ((G1, pts), (GeometrySpec(d=3, p_norm=2), pts),
                 (G2, rng.random((40, 3)))):
        if entry == "count_regions_monte_carlo" and g.d == 2:
            continue  # it draws its own points, with g.d columns
        with pytest.raises(ValueError, match="coordinates, but the sites have .* geometry d ="):
            _WRONG_D[entry](p, sites, g)


def test_cell_table_lists_hold_every_site_that_can_rank():
    # on every cell of the table of a 40-site set, deepened by ranking
    # 16 * 8 n rows to its finest grid (8 n / K cells): a site left out has
    # a lower bound above the cell's U, the K-th smallest upper bound over
    # all sites; and the brute-force K nearest at the cell's corners, and
    # one ulp inside or outside each edge, are in its list
    rng = np.random.default_rng(8)
    sites = WeightedSites(rng.random((40, 2)),
                          rng.permutation(power_law_weights(40, 2.1)))
    for g in (G2, GeometrySpec(d=2, p_norm=INFINITY),
              GeometrySpec(d=2, p_norm=1, wrap=False)):
        for K in (1, 3):
            knearest(rng.random((16 * 8 * 40, 2)), sites, K, g)
            table = sites.table(g, K)
            side = table.side
            assert (side // 2) ** 2 < 8 * 40 / K <= side ** 2
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
    return g, WeightedSites(pos, _case_weights(draw, rng, n)), pts, k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_clustered_cases())
def test_knearest_on_clustered_sites_equals_scan_and_brute_force(case):
    # sites within 0.05 of one point: most cells of the table lie far from
    # every site, and points near the cluster's antipode reach its sites
    # across the wrap of the torus
    g, sites, pts, k = case
    got = knearest(pts, sites, k, g)
    assert np.array_equal(got, rank_k_smallest(
        weighted_score_matrix(pts, sites, g), k))
    brute, dist = _brute_plain(pts, sites, k, g)
    got_dist = np.take_along_axis(dist, np.argsort(brute, axis=1), axis=1)
    assert np.allclose(np.take_along_axis(got_dist, got, axis=1), dist[:, :k],
                       rtol=1e-12, atol=0)
    # rows whose first k + 1 distances nearly tie are held to the distances
    head = dist[:, :k + 1]
    clear = ~(head[:, 1:] <= head[:, :-1] * (1 + 1e-9)).any(axis=1)
    assert np.array_equal(got[clear], brute[clear, :k])
