import hashlib
from fractions import Fraction

import numpy as np
import pytest

from geoksat.generate import sample_nonuniform_formula
from geoksat.sampling import _guide_table, _search, sequential_weighted_draws
from geoksat.weights import power_law_weights

EPS = np.finfo(float).eps


def test_single_positive_weight():
    rng = np.random.default_rng(0)
    got = sequential_weighted_draws([1.0, 0.0, 0.0], rng.random((20, 1)))
    assert got.shape == (20, 1) and got.dtype == np.int64
    assert np.all(got == 0)


def test_insufficient_positive_weights():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 2 positive"):
        sequential_weighted_draws([1.0, 0.0, 0.0], rng.random((5, 2)))


def test_two_equal_weights_both_orders():
    rng = np.random.default_rng(1)
    trials = 100_000
    got = sequential_weighted_draws([1.0, 1.0], rng.random((trials, 2)))
    first = np.all(got == [0, 1], axis=1).sum()
    assert np.all(np.sort(got, axis=1) == [0, 1])
    assert abs(first / trials - 0.5) < 0.01


def test_sequential_pair_probability():
    # ordered pair (0, 1) from weights (2, 1, 1): (2/4) * (1/2) = 0.25
    rng = np.random.default_rng(2)
    trials = 100_000
    got = sequential_weighted_draws([2.0, 1.0, 1.0], rng.random((trials, 2)))
    hits = np.all(got == [0, 1], axis=1).sum()
    assert abs(hits / trials - 0.25) < 0.01


def test_draw_index_matches_linear_scan():
    # the first draw of a row inverts its uniform against the full cumsum
    rng = np.random.default_rng(4)
    w = rng.random(50)
    w[::7] = 0.0
    u = rng.random((2000, 3))
    got = sequential_weighted_draws(w, u)
    cum = np.cumsum(w)
    expect = np.searchsorted(cum, u[:, 0] * cum[-1], side="right")
    assert np.array_equal(got[:, 0], expect)
    for u0, idx in zip(u[:200, 0], got[:200, 0]):
        running, target = 0.0, u0 * cum[-1]
        scan = next(i for i, wi in enumerate(w) if (running := running + wi) > target)
        assert idx == scan
    assert np.all(w[got] > 0)


def test_draw_never_returns_zero_weight():
    u = np.linspace(0, 0.999999, 50)[:, None]
    assert np.all(sequential_weighted_draws([0.0, 1.0, 0.0], u) == 1)
    rng = np.random.default_rng(6)
    w = np.array([0.0, 1.0, 0.0, 3.0, 0.0, 0.5, 0.0])
    u = rng.random((5000, 3))
    u[::4] = 1.0 - EPS
    u[1::4] = 0.0
    got = sequential_weighted_draws(w, u)
    assert set(got.ravel().tolist()) == {1, 3, 5}
    assert np.all(np.sort(got, axis=1) == [1, 3, 5])
    # weights far below the rounding of the total: the remaining mass of a
    # row reaches zero or below, and the target lands on the zero weight
    w = np.array([0.0, 5e-19, 10.7, 6e-18, 7e-18])
    got = sequential_weighted_draws(w, rng.random((500, 4)))
    assert np.all(np.sort(got, axis=1) == [1, 2, 3, 4])


def test_draws_weights_lost_in_the_rounding_of_the_total():
    # 10.7 absorbs the other weights in the cumsum; once it is drawn the
    # undrawn mass is 1.35e-17, of which index 1 holds 5/135
    w = np.array([0.0, 5e-19, 10.7, 6e-18, 7e-18])
    got = sequential_weighted_draws(w, np.random.default_rng(9).random((20_000, 3)))
    assert np.all(got[:, 0] == 2)
    share = np.bincount(got[:, 1], minlength=5)[[1, 3, 4]] / len(got)
    assert np.allclose(share, np.array([5, 60, 70]) / 135, atol=0.015)


def test_restore_after_draws():
    # the caller's weights are left untouched
    w = [5.0, 1.0, 2.0, 0.5]
    before = list(w)
    arr = np.array(w)
    rng = np.random.default_rng(5)
    sequential_weighted_draws(w, rng.random((10, 3)))
    sequential_weighted_draws(arr, rng.random((10, 3)))
    assert w == before
    assert arr.tolist() == before


def _guide_cases():
    rng = np.random.default_rng(11)
    zero_runs = rng.random(400)
    zero_runs[rng.random(400) < 0.6] = 0.0
    zero_runs[:7] = zero_runs[-5:] = 0.0
    # 3000 unit weights below one of 2^60: the first bucket holds them all
    wide = np.append(np.ones(3000), 2.0**60)
    return {
        "powerlaw": power_law_weights(5000, 2.1),
        "uniform": np.ones(257),
        # an ulp below some bucket boundaries, t / h rounds up to the boundary
        "thirds": np.full(100, 1 / 3),
        "span_2_60": 2.0 ** -rng.uniform(0, 60, 2000),
        "one_wide_bucket": wide,
        "above_2_53": np.array([1e18, 1.0, 1.0, 1.0, 1e-3]),
        "zero_runs": zero_runs,
        "n1": np.array([0.7]),
        "n2": np.array([3.0, 1e-9]),
    }


@pytest.mark.parametrize("name", list(_guide_cases()))
def test_guide_search_equals_searchsorted(name):
    w = _guide_cases()[name]
    cum = np.cumsum(w)
    total = cum[-1]
    table = _guide_table(cum)
    edges = np.arange(len(cum)) * table[1]  # the bucket boundaries
    rng = np.random.default_rng(12)
    t = np.concatenate([
        cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, total, np.nextafter(total, np.inf), 2 * total, 1e300, -1.0],
        rng.random(5000) * total])
    got = _search(cum, table, t)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(cum, t, side="right"))
    assert np.all(got[t >= total] == len(cum))
    if name == "one_wide_bucket":
        assert table[0][1] - table[0][0] >= 3000


def test_rejects_negative_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        sequential_weighted_draws([1.0, -0.5], np.zeros((1, 1)))


def _acceptable_picks(fw, taken, target, tol):
    """Undrawn positive indices whose exact cumulative interval [lo, hi)
    holds the target, widened by ``tol`` at float edges."""
    out, lo = set(), Fraction(0)
    for i, wi in enumerate(fw):
        if i in taken or wi == 0:
            continue
        hi = lo + wi
        if lo - tol <= target < hi + tol:
            out.add(i)
        lo = hi
    return out


def test_matches_exact_oracle():
    # brute force: a per-row sequential draw in exact rational arithmetic;
    # away from a prefix boundary the kernel must pick the exact index,
    # within a few ulp of one it may pick either neighbour
    rng = np.random.default_rng(8)
    exact = 0
    for trial in range(60):
        n = int(rng.integers(1, 25))
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        w[-1] = 0.0 if trial % 3 == 0 else w[-1]
        positive = int((w > 0).sum())
        if positive == 0:
            continue
        k = int(rng.integers(1, positive + 1))
        u = rng.random((40, k))
        u[::3] = 1.0 - EPS * rng.integers(1, 4, (len(u[::3]), k))
        u[1::3] = EPS * rng.integers(0, 4, (len(u[1::3]), k))
        # odd trials draw one row per call, so no row leans on its batch
        got = (np.vstack([sequential_weighted_draws(w, row[None]) for row in u])
               if trial % 2 else sequential_weighted_draws(w, u))
        fw = [Fraction(float(x)) for x in w]
        total = sum(fw)
        tol = Fraction(4 * (n + k)) * Fraction(EPS) * total
        for row_u, row in zip(u, got.tolist()):
            assert len(set(row)) == k
            taken = set()
            for uj, pick in zip(row_u, row):
                target = Fraction(float(uj)) * (total - sum(fw[i] for i in taken))
                ok = _acceptable_picks(fw, taken, target, tol)
                assert pick in ok, (w, row_u, row)
                exact += _acceptable_picks(fw, taken, target, 0) == {pick}
                taken.add(pick)
    assert exact > 0


# sha256 of sample_nonuniform_formula(n, m, k, power_law_weights(n, beta),
# seed).literals as little-endian int64, computed with the per-clause
# Fenwick-tree sampler this kernel replaced, before the kernel existed:
# the kernel keeps the RNG stream and the instances
FENWICK_DIGESTS = [
    ((500, 2000, 3, 2.5, 1),
     "1656247932aef3480c148ac7fc2ba60b150e56c6d857b347187378defed81f0a"),
    ((1000, 3000, 4, 2.2, 2),
     "38140fcaf80b6b4239c37dd64db1e3e93f9a4354845e501ba6e81d57d86d0f4e"),
    ((300, 1500, 5, 3.0, 3),
     "a7f0c15818a53e6932c6bd8ba0877c36a838cb23c2f9a0e234e4bf679a3e43a9"),
]


def _literals_digest(n, m, k, beta, seed):
    f = sample_nonuniform_formula(n, m, k, power_law_weights(n, beta), seed)
    return hashlib.sha256(f.literals.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("params,digest", FENWICK_DIGESTS)
def test_sampler_matches_fenwick_digests(params, digest):
    assert _literals_digest(*params) == digest


# the same digests at the benchmark's power-law size and at n = 10^5,
# beta = 2.1, where buckets are wider, computed with the cumsum kernel's
# np.searchsorted before the guide table replaced it: the table keeps the
# RNG stream and the instances
CUMSUM_DIGESTS = [
    ((10_000, 42_000, 3, 2.5, 7),
     "84e48e50058665dba7249e1792283034b3547599956bedbc2311bd43c028338f"),
    ((100_000, 420_000, 3, 2.1, 1),
     "89283090958d10b495c29b8421b6fe4fb0aa655c0f8853ac44caa20069dab184"),
]


@pytest.mark.parametrize("params,digest", CUMSUM_DIGESTS)
def test_sampler_matches_cumsum_digests(params, digest):
    assert _literals_digest(*params) == digest
