"""Torus ground space, p-norm metrics, and the basic distance laws.

The ground space is the unit torus [0, 1)^d where opposite borders are
identified; per-coordinate differences are circular.  A hypercube mode
(plain differences) is available through ``GeometrySpec(wrap=False)`` and
reuses all code paths.  Every position, site or point, lies in the closed
cube [0, 1]^d (on the torus 1 is 0 again), where a difference delta lies
in [0, 1] and min(delta, 1 - delta) is its circular distance;
``check_unit_cube`` rejects anything else where positions enter.

``pnorm_scores`` is the package's one p-norm kernel: the rootless score
dist^q with q = ``GeometrySpec.score_power``.  Distances are its q-th root,
and the Voronoi cell table and the temperature race rank by it, so every
distance and score the package computes comes from the same arithmetic.
``box_score_bounds`` bounds the same score over a box of points, for the
cell table of ``voronoi.knearest``.
"""

import math
from dataclasses import dataclass

import numpy as np

INFINITY = math.inf
# sums of |delta|**p underflow for large p: against a max-scaled reference
# (300 sites, 2000 points, k = 3, d = 1) the k-nearest sets of 137 rows are
# wrong at p = 128 and of none at p = 64
MAX_P_NORM = 64


@dataclass(frozen=True)
class GeometrySpec:
    """Dimension and p-norm of the ground space.

    ``p_norm`` is a positive integer up to ``MAX_P_NORM`` or ``INFINITY``
    (exact max semantics, never a large-integer stand-in).  ``wrap=False``
    switches from the torus to a unit hypercube with non-circular
    coordinate differences.
    """

    d: int
    p_norm: float = 2
    wrap: bool = True

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        p = self.p_norm
        if p != INFINITY and not (float(p).is_integer()
                                  and 1 <= p <= MAX_P_NORM):
            raise ValueError(
                f"p-norm must be an integer from 1 to {MAX_P_NORM} (larger p "
                f"underflows) or INFINITY for the max norm, got {p!r}")

    @property
    def is_max_norm(self):
        return self.p_norm == INFINITY

    @property
    def score_power(self):
        """q with score = dist**q: p, or 1 for the max norm."""
        return 1 if self.is_max_norm else int(self.p_norm)


def _check_point(x, g, name):
    x = np.asarray(x, dtype=float)
    if x.shape != (g.d,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({g.d},)")
    return x


def check_unit_cube(x, name):
    """``x`` as a float array; a ValueError unless every entry lies in
    [0, 1] (NaN and infinities do not)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"{name} must be finite and lie in [0, 1]")
    return x


def pnorm_scores(points, others, g):
    """(Q, c) rootless distances sum |delta|^p (max |delta| for the max
    norm) between ``points`` (Q, d) and ``others`` (c, d) or (Q, c, d).

    Accumulates one dimension at a time with in-place updates to keep the
    memory traffic at (Q, c).
    """
    base = None
    scratch = None
    for j in range(others.shape[-1]):
        diff = np.abs(points[:, j, None] - others[..., j])
        if g.wrap:
            if scratch is None:
                scratch = np.empty_like(diff)
            np.subtract(1.0, diff, out=scratch)
            np.minimum(diff, scratch, out=diff)
        base = _accumulate(base, diff, g)
    return base


def box_score_bounds(centres, half, others, g):
    """``(lo, up)``: bounds on the rootless score (as ``pnorm_scores``)
    between each of ``others`` and every point of the box of half-side
    ``half`` around each centre.

    ``centres`` and ``others`` are sequences of d coordinate arrays;
    coordinate j of the centres broadcasts against coordinate j of the
    others, and the bounds against all of them, so a coordinate that varies
    along its own axis is worked out once per value.  With delta a
    coordinate's difference from the centre (circular on the torus), a
    point's difference lies in [max(delta - half, 0), delta + half], so lo
    sums max(delta - half, 0)^p and up sums (delta + half)^p (the max of
    each for the max norm).
    """
    lo = up = None
    for centre, other in zip(centres, others):
        diff = np.abs(centre - other)
        if g.wrap:
            np.minimum(diff, 1.0 - diff, out=diff)
        up = _accumulate(up, diff + half, g)
        np.subtract(diff, half, out=diff)
        lo = _accumulate(lo, np.maximum(diff, 0.0, out=diff), g)
    return lo, up


def _accumulate(base, term, g):
    """``base`` with one coordinate's differences ``term`` (overwritten)
    added as term^q, or maxed in for the max norm; in place when the shapes
    agree, and ``term`` itself when base is None."""
    if not g.is_max_norm:
        q = g.score_power
        if q == 2:
            np.multiply(term, term, out=term)
        elif q != 1:
            np.power(term, q, out=term)
    if base is None:
        return term
    combine = np.maximum if g.is_max_norm else np.add
    return combine(base, term, out=base if base.shape == term.shape else None)


def cross_distances(points, others, g):
    """(Q, n) distance matrix between rows of ``points`` and ``others``.

    Callers are responsible for chunking ``points`` when Q * n is large.
    """
    points = np.atleast_2d(check_unit_cube(points, "positions"))
    others = np.atleast_2d(check_unit_cube(others, "positions"))
    if points.shape[1] != g.d or others.shape[1] != g.d:
        raise ValueError("point arrays must have d columns")
    return pnorm_scores(points, others, g) ** (1.0 / g.score_power)


def torus_distance(a, b, g):
    """Distance between two points under the spec's p-norm."""
    a = _check_point(a, g, "a")
    b = _check_point(b, g, "b")
    return float(cross_distances(a, b, g)[0, 0])


def ball_volume_constant(g):
    """Volume of the unit-radius p-norm ball in d dimensions.

    (2 Gamma(1/p + 1))^d / Gamma(d/p + 1) for finite p; 2^d for the max
    norm.  Evaluated through log-gamma to stay exact to ~1e-12 relative.
    """
    if g.is_max_norm:
        return float(2.0**g.d)
    p = int(g.p_norm)
    return math.exp(g.d * (math.log(2.0) + math.lgamma(1.0 / p + 1.0))
                    - math.lgamma(g.d / p + 1.0))


def _check_torus(g, law):
    """A ValueError unless ``g`` is the torus: the cube's boundary makes
    short distances rarer, so the torus laws do not hold there."""
    if not g.wrap:
        raise ValueError(f"{law} is the torus law; the unit cube "
                         "(wrap=False) has no closed form here")


def dist_cdf(x, g):
    """CDF of the distance between two uniformly random points of the
    torus (a ValueError in the cube).

    Exact for x <= 0.5; clamped at 1 beyond that (the exact boundary
    correction is intentionally not computed).
    """
    _check_torus(g, "dist_cdf")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("distance must be nonnegative")
    vol = ball_volume_constant(g) * x**g.d
    out = np.where(x > 0.5, np.minimum(1.0, vol), vol)
    return float(out) if out.ndim == 0 else out


def weighted_distance(s_index, p, sites, g):
    """Distance from point ``p`` to site ``s_index`` divided by its
    normalized weight w^(1/d)."""
    n = len(sites.weights)
    if not 0 <= s_index < n:
        raise IndexError(f"site index {s_index} out of range [0, {n})")
    dist = torus_distance(sites.positions[s_index], p, g)
    return dist / float(sites.normalized_weights[s_index])


def connection_weight(c_pos, v_index, sites, T, g):
    """Sampling propensity (w_v / dist^d)^(1/T) of a variable for a clause.

    Only defined for T > 0; the threshold model (T = 0) never evaluates
    this quantity.  Coincident positions are an error rather than a silent
    infinity: generators draw continuous positions, so hitting this signals
    a seeding bug.
    """
    if T <= 0:
        raise ValueError("connection weight requires T > 0 (use the threshold path for T = 0)")
    n = len(sites.weights)
    if not 0 <= v_index < n:
        raise IndexError(f"variable index {v_index} out of range [0, {n})")
    dist = torus_distance(c_pos, sites.positions[v_index], g)
    if dist == 0.0:
        raise ValueError("coincident clause/variable positions (distance 0)")
    w = float(sites.weights[v_index])
    return (w / dist**g.d) ** (1.0 / T)


def connection_weight_threshold(w_v, T, g):
    """Smallest x for which the connection-weight CDF formula is valid."""
    return (2.0**g.d * w_v) ** (1.0 / T)


def connection_weight_cdf(x, w_v, T, g):
    """CDF of the connection weight on the torus: 1 - Pi_{d,p} w_v x^(-T).

    Valid only for x >= (2^d w_v)^(1/T) and on the torus; below that, or
    in the cube, the closed form does not hold and a ValueError is raised.
    """
    _check_torus(g, "connection_weight_cdf")
    if T <= 0:
        raise ValueError("connection weight CDF requires T > 0")
    x = np.asarray(x, dtype=float)
    lo = connection_weight_threshold(w_v, T, g)
    if np.any(x < lo * (1.0 - 1e-12)):
        raise ValueError(f"CDF formula invalid below x = {lo}")
    out = 1.0 - ball_volume_constant(g) * w_v * x ** (-T)
    return float(out) if out.ndim == 0 else out
