import math

import numpy as np
import pytest

from geoksat.geometry import (GeometrySpec, INFINITY, MAX_P_NORM,
                              ball_volume_constant, connection_weight,
                              connection_weight_cdf,
                              connection_weight_threshold, cross_distances,
                              dist_cdf, torus_distance, weighted_distance)
from geoksat.voronoi import WeightedSites, weighted_score_matrix

ALL_SPECS = [GeometrySpec(d=d, p_norm=p)
             for d in (1, 2, 3) for p in (1, 2, INFINITY)]


def test_circular_difference_1d():
    g = GeometrySpec(d=1)
    assert torus_distance([0.1], [0.9], g) == pytest.approx(0.2)


def test_max_norm_distance():
    g = GeometrySpec(d=2, p_norm=INFINITY)
    assert torus_distance([0.0, 0.0], [0.3, 0.4], g) == pytest.approx(0.4)


def test_identical_points():
    for g in ALL_SPECS:
        p = np.full(g.d, 0.37)
        assert torus_distance(p, p, g) == 0.0


@pytest.mark.parametrize("a, b, g", [
    ([0.2], [1.3], GeometrySpec(d=1, p_norm=1)),
    ([0.2, 0.2], [1.3, 0.2], GeometrySpec(d=2, p_norm=INFINITY)),
    ([0.1, 0.5], [1.9, 0.5], GeometrySpec(d=2, p_norm=2)),
    ([0.2], [math.nan], GeometrySpec(d=1))],
    ids=["p1-negative", "max-zero", "p2-unwrapped", "nan"])
def test_positions_outside_the_unit_cube_are_rejected(a, b, g):
    # min(delta, 1 - delta) wraps a coordinate difference only for
    # delta <= 1: these distances came out as -0.1, 0.0 and 0.8 against
    # torus distances of 0.1, 0.1 and 0.2
    sites = WeightedSites(np.array([a]), np.ones(1))
    for call in (lambda: torus_distance(a, b, g),
                 lambda: cross_distances([a, a], [b], g),
                 lambda: weighted_distance(0, b, sites, g),
                 lambda: connection_weight(b, 0, sites, 0.5, g)):
        with pytest.raises(ValueError, match=r"must be finite and lie in \[0, 1\]"):
            call()
    # the closed cube holds: 1.0 is 0.0 on the torus
    assert torus_distance(np.ones(g.d), np.zeros(g.d), g) == 0.0


def test_dimension_mismatch():
    g = GeometrySpec(d=2)
    with pytest.raises(ValueError):
        torus_distance([0.1], [0.2, 0.3], g)


def test_invalid_spec():
    with pytest.raises(ValueError):
        GeometrySpec(d=0)
    with pytest.raises(ValueError):
        GeometrySpec(d=2, p_norm=0)
    with pytest.raises(ValueError):
        GeometrySpec(d=2, p_norm=1.5)


def test_finite_p_norm_above_the_underflow_bound_is_rejected():
    assert GeometrySpec(d=2, p_norm=MAX_P_NORM).score_power == 64
    for p in (MAX_P_NORM + 1, 400):
        with pytest.raises(ValueError, match="INFINITY"):
            GeometrySpec(d=2, p_norm=p)


@pytest.mark.parametrize("wrap", (True, False))
@pytest.mark.parametrize("p", (1, 2, 3, INFINITY))
def test_distances_are_roots_of_the_scan_scores(p, wrap):
    """Distances and Voronoi scores come from one arithmetic, bit for bit."""
    q = 1 if p == INFINITY else p
    rng = np.random.default_rng(17)
    for d in range(1, 10):
        g = GeometrySpec(d=d, p_norm=p, wrap=wrap)
        a = rng.random((40, d))
        b = rng.random((60, d))
        dist = cross_distances(a, b, g)
        scores = weighted_score_matrix(a, WeightedSites(b, np.ones(60)), g)
        assert np.array_equal(dist, scores ** (1.0 / q))
        for i in range(40):
            j = (7 * i) % 60
            assert torus_distance(a[i], b[j], g) == dist[i, j]


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(7)
    for g in ALL_SPECS:
        a, b, c = rng.random((3, 10_000, g.d))
        dab = np.array([torus_distance(x, y, g) for x, y in zip(a[:100], b[:100])])
        dba = np.array([torus_distance(y, x, g) for x, y in zip(a[:100], b[:100])])
        assert np.array_equal(dab, dba)
        # vectorized triangle inequality over the full batch
        dAB = _pairwise(a, b, g)
        dBC = _pairwise(b, c, g)
        dAC = _pairwise(a, c, g)
        assert np.all(dAC <= dAB + dBC + 1e-12)
        assert np.all(dAB[_rows_equal(a, b)] == 0)


def _pairwise(a, b, g):
    diff = np.abs(a - b)
    diff = np.minimum(diff, 1 - diff)
    if g.is_max_norm:
        return diff.max(axis=1)
    p = int(g.p_norm)
    return (diff**p).sum(axis=1) ** (1 / p)


def _rows_equal(a, b):
    return np.all(a == b, axis=1)


def test_ball_volume_known_values():
    assert ball_volume_constant(GeometrySpec(d=2, p_norm=2)) == pytest.approx(math.pi, rel=1e-12)
    for d in (1, 2, 3, 5):
        assert ball_volume_constant(GeometrySpec(d=d, p_norm=INFINITY)) == 2.0**d
    for p in (1, 2, 3, 17):
        assert ball_volume_constant(GeometrySpec(d=1, p_norm=p)) == pytest.approx(2.0, rel=1e-12)


def test_ball_volume_continuity_toward_max_norm():
    val = ball_volume_constant(GeometrySpec(d=2, p_norm=64))
    assert abs(val - 4.0) / 4.0 < 0.02


def test_dist_cdf_values():
    assert dist_cdf(0.0, GeometrySpec(d=2)) == 0.0
    assert dist_cdf(0.25, GeometrySpec(d=1)) == pytest.approx(0.5)
    assert dist_cdf(0.1, GeometrySpec(d=2, p_norm=2)) == pytest.approx(math.pi * 0.01)
    # beyond 0.5 the ball volume is clamped at 1
    assert dist_cdf(0.9, GeometrySpec(d=2, p_norm=2)) == 1.0
    assert dist_cdf(0.9, GeometrySpec(d=3, p_norm=1)) == pytest.approx((8 / 6) * 0.9**3)
    with pytest.raises(ValueError):
        dist_cdf(-0.1, GeometrySpec(d=1))


def test_torus_laws_are_rejected_in_the_cube():
    # the cube's boundary makes short distances rarer: at x = 0.3 in d = 2
    # the cube law is 0.2148, against the torus law's 0.2827
    cube = GeometrySpec(d=2, p_norm=2, wrap=False)
    with pytest.raises(ValueError, match="torus law"):
        dist_cdf(0.3, cube)
    thr = connection_weight_threshold(1.0, 0.5, cube)
    with pytest.raises(ValueError, match="torus law"):
        connection_weight_cdf(2 * thr, 1.0, 0.5, cube)


def test_empirical_distance_cdf_matches():
    rng = np.random.default_rng(123)
    for g in (GeometrySpec(d=1, p_norm=2), GeometrySpec(d=2, p_norm=2),
              GeometrySpec(d=2, p_norm=INFINITY)):
        a = rng.random((1_000_000, g.d))
        b = rng.random((1_000_000, g.d))
        dist = np.sort(_pairwise(a, b, g))
        lo = dist[dist <= 0.5]
        ecdf = (np.searchsorted(dist, lo, side="right")) / len(dist)
        ks = np.abs(ecdf - dist_cdf(lo, g)).max()
        assert ks < 0.005


def _sites(positions, weights):
    return WeightedSites(np.asarray(positions, dtype=float),
                         np.asarray(weights, dtype=float))


def test_weighted_distance():
    g1 = GeometrySpec(d=1)
    s = _sites([[0.0], [0.2]], [1.0, 4.0])
    p = [0.8]  # circular distance 0.2 to site 0
    assert weighted_distance(0, p, s, g1) == pytest.approx(torus_distance([0.0], p, g1))
    assert weighted_distance(1, [0.4], s, g1) == pytest.approx(0.2 / 4.0)
    g2 = GeometrySpec(d=2)
    s2 = _sites([[0.5, 0.5], [0.1, 0.1]], [4.0, 1.0])
    assert weighted_distance(0, [0.5, 0.7], s2, g2) == pytest.approx(0.2 / 2.0)
    with pytest.raises(IndexError):
        weighted_distance(5, p, s, g1)


def test_connection_weight():
    g1 = GeometrySpec(d=1)
    s = _sites([[0.0]], [1.0])
    assert connection_weight([0.5], 0, s, 0.5, g1) == pytest.approx(4.0)
    g2 = GeometrySpec(d=2)
    s2 = _sites([[0.0, 0.0]], [1.0])
    assert connection_weight([0.5, 0.0], 0, s2, 0.5, g2) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        connection_weight([0.5], 0, s, 0.0, g1)
    with pytest.raises(ValueError):
        connection_weight([0.0], 0, s, 0.5, g1)


def test_connection_weight_base_one_any_temperature():
    # w_v equal to dist^d makes the base 1, so the result is 1 for every T
    from types import SimpleNamespace
    g2 = GeometrySpec(d=2)
    dist = torus_distance([0.0, 0.0], [0.3, 0.4], g2)
    stub = SimpleNamespace(positions=np.array([[0.0, 0.0]]),
                           weights=np.array([dist**2]),
                           normalized_weights=np.array([dist]))
    for T in (0.25, 0.5, 0.9):
        assert connection_weight([0.3, 0.4], 0, stub, T, g2) == pytest.approx(1.0)


def test_connection_weight_cdf():
    g1 = GeometrySpec(d=1, p_norm=2)
    T, w = 0.5, 1.0
    thr = connection_weight_threshold(w, T, g1)
    # Pi_{1,p} = 2 = 2^d, so the CDF starts at exactly 0 at the threshold
    assert connection_weight_cdf(thr, w, T, g1) == pytest.approx(0.0, abs=1e-12)
    assert connection_weight_cdf(1e12, w, T, g1) == pytest.approx(1.0, abs=1e-5)
    assert connection_weight_cdf(16.0, w, T, g1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        connection_weight_cdf(0.5 * thr, w, T, g1)


def test_connection_weight_cdf_monte_carlo():
    # cross-check of the closed form by sampling X(c, v) at random positions
    g1 = GeometrySpec(d=1, p_norm=2)
    rng = np.random.default_rng(42)
    c = rng.random(1_000_000)
    v = rng.random(1_000_000)
    diff = np.abs(c - v)
    dist = np.minimum(diff, 1 - diff)
    x = (1.0 / dist) ** 2  # (w/dist^d)^(1/T), w=1, T=0.5
    emp = (x <= 16.0).mean()
    assert abs(emp - 0.5) < 0.01


def test_connection_weight_monotonicity():
    g2 = GeometrySpec(d=2)
    dists = np.linspace(0.05, 0.45, 30)
    sw = _sites([[0.0, 0.0], [0.5, 0.5]], [3.0, 1.0])
    vals = [connection_weight([0.0, dist], 0, sw, 0.6, g2) for dist in dists]
    assert np.all(np.diff(vals) < 0)
    weights = np.linspace(1.0, 20.0, 25)
    at = []
    for w in weights:
        s = _sites([[0.0, 0.0], [0.5, 0.5]], [w, 1.0])
        at.append(connection_weight([0.0, 0.2], 0, s, 0.6, g2))
    assert np.all(np.diff(at) > 0)


def test_cross_distances_matches_scalar():
    rng = np.random.default_rng(3)
    for g in ALL_SPECS:
        a = rng.random((5, g.d))
        b = rng.random((7, g.d))
        mat = cross_distances(a, b, g)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == pytest.approx(torus_distance(a[i], b[j], g))


def _reference_distance(a, b, g):
    """Plain-float p-norm distance, one coordinate at a time."""
    deltas = [abs(float(x) - float(y)) for x, y in zip(a, b)]
    if g.wrap:
        deltas = [min(t, 1.0 - t) for t in deltas]
    if g.is_max_norm:
        return max(deltas)
    return math.fsum(t**g.p_norm for t in deltas) ** (1.0 / g.p_norm)


@pytest.mark.parametrize("wrap", (True, False))
@pytest.mark.parametrize("p", (1, 2, 3, INFINITY))
def test_kernel_matches_a_plain_reference(p, wrap):
    """The shared kernel against arithmetic it does not share."""
    rng = np.random.default_rng(23)
    for d in range(1, 10):
        g = GeometrySpec(d=d, p_norm=p, wrap=wrap)
        a = rng.random((6, d))
        b = rng.random((8, d))
        dist = cross_distances(a, b, g)
        sites = WeightedSites(b, rng.uniform(1.0, 5.0, 8))
        for i in range(6):
            for j in range(8):
                ref = _reference_distance(a[i], b[j], g)
                assert dist[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-15)
                assert weighted_distance(j, a[i], sites, g) == pytest.approx(
                    ref / sites.weights[j] ** (1.0 / d), rel=1e-12, abs=1e-15)


def test_hypercube_mode():
    g = GeometrySpec(d=1, wrap=False)
    assert torus_distance([0.1], [0.9], g) == pytest.approx(0.8)
