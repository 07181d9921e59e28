import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from geoksat import generate
from geoksat.geometry import INFINITY, GeometrySpec, pnorm_scores
from geoksat.generate import (SignLedger, _apply_sign_patterns,
                              draw_geometric_clause_vars,
                              formula_from_clauses, sample_geometric_formula,
                              sample_nonuniform_formula)
from geoksat.structure import is_nice
from geoksat.voronoi import (_TIE_GAP, WeightedSites, _class_candidates,
                             k_nearest_sites, rank_k_smallest,
                             weighted_score_matrix)
from geoksat.weights import power_law_weights, uniform_weights

G2 = GeometrySpec(d=2, p_norm=2)


def test_formula_validation():
    with pytest.raises(ValueError):
        formula_from_clauses(3, 2, [[1, 1]])
    with pytest.raises(ValueError):
        formula_from_clauses(3, 2, [[1, 4]])
    with pytest.raises(ValueError):
        formula_from_clauses(3, 2, [[1, 0]])
    f = formula_from_clauses(3, 2, [[1, -2], [3, 1]])
    assert f.m == 2 and f.k == 2


def test_nonuniform_determinism():
    ws = power_law_weights(50, 2.5)
    a = sample_nonuniform_formula(50, 200, 3, ws, seed=99)
    b = sample_nonuniform_formula(50, 200, 3, ws, seed=99)
    c = sample_nonuniform_formula(50, 200, 3, ws, seed=100)
    assert np.array_equal(a.literals, b.literals)
    assert not np.array_equal(a.literals, c.literals)


@pytest.mark.parametrize("weights,message", [
    ([1.0, 0.0, 0.0], "at least 2 positive"),
    ([1.0, np.nan, 1.0], "finite"),
    ([1.0, np.inf, 1.0], "finite"),
    ([1.0, -1.0, 1.0], "nonnegative"),
    ([[1.0], [1.0], [1.0]], "1-d"),
], ids=["too_few_positive", "nan", "inf", "negative", "two_d"])
def test_nonuniform_rejects_degenerate_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        sample_nonuniform_formula(3, 5, 2, np.array(weights), 0)


def test_k_equals_n_forces_all_variables():
    f = sample_nonuniform_formula(4, 50, 4, uniform_weights(4), seed=0)
    sets = f.sorted_variable_sets()
    assert np.all(sets == np.arange(1, 5))


def test_parameter_validation():
    ws = uniform_weights(3)
    with pytest.raises(ValueError):
        sample_nonuniform_formula(3, 10, 4, ws, 0)
    with pytest.raises(ValueError):
        sample_nonuniform_formula(3, 0, 2, ws, 0)
    with pytest.raises(ValueError):
        sample_geometric_formula(3, 10, 4, G2, 0.5, None, 0)
    with pytest.raises(ValueError):
        sample_geometric_formula(3, 10, 2, G2, -0.5, None, 0)


def test_uniform_pair_frequencies():
    f = sample_nonuniform_formula(3, 100_000, 2, uniform_weights(3), seed=11)
    sets = f.sorted_variable_sets()
    codes = sets[:, 0] * 10 + sets[:, 1]
    for code in (12, 13, 23):
        freq = (codes == code).mean()
        assert abs(freq - 1 / 3) < 0.01


def test_power_law_first_draw_frequency():
    n, m = 10_000, 100_000
    ws = power_law_weights(n, 2.5)
    f = sample_nonuniform_formula(n, m, 3, ws, seed=21)
    p1 = ws[0] / math.fsum(ws)
    freq = (np.abs(f.literals[:, 0]) == 1).mean()
    sigma = np.sqrt(p1 * (1 - p1) / m)
    assert abs(freq - p1) <= 3 * sigma


def test_signs_are_fair_coins():
    f = sample_nonuniform_formula(20, 50_000, 3, uniform_weights(20), seed=31)
    neg = (f.literals < 0).mean()
    assert abs(neg - 0.5) < 0.01


def test_sequential_draw_chi_square_small():
    # exact ordered-pair distribution for n=4 nonuniform weights
    w = np.array([4.0, 2.0, 1.0, 1.0])
    n, m = 4, 200_000
    f = sample_nonuniform_formula(n, m, 2, w, seed=41)
    pairs = np.abs(f.literals) - 1
    codes = pairs[:, 0] * n + pairs[:, 1]
    counts = np.bincount(codes, minlength=n * n)
    p = w / w.sum()
    probs = np.zeros(n * n)
    for a in range(n):
        for b in range(n):
            if a != b:
                probs[a * n + b] = p[a] * p[b] / (1 - p[a])
    mask = probs > 0
    res = stats.chisquare(counts[mask], m * probs[mask])
    assert res.pvalue > 0.001


def test_geometric_determinism():
    a = sample_geometric_formula(60, 300, 3, G2, 0.5, None, seed=5)
    b = sample_geometric_formula(60, 300, 3, G2, 0.5, None, seed=5)
    assert np.array_equal(a.formula.literals, b.formula.literals)
    assert np.array_equal(a.clause_positions, b.clause_positions)
    assert np.array_equal(a.sites.positions, b.sites.positions)


def test_geometric_structure():
    inst = sample_geometric_formula(1000, 10_000, 3, G2, 0.5, None, seed=7)
    f = inst.formula
    assert f.m == 10_000
    sets = f.sorted_variable_sets()
    assert np.all(sets[:, 1:] != sets[:, :-1])  # distinct per clause
    assert inst.sites.weights.min() == 1.0


def test_threshold_clauses_match_k_nearest():
    inst = sample_geometric_formula(500, 1000, 3, G2, 0.0, None, seed=13)
    f = inst.formula
    for i in range(0, 1000, 7):
        key, ranked = k_nearest_sites(inst.clause_positions[i], inst.sites, 3, G2)
        drawn = np.abs(f.literals[i]) - 1
        assert np.array_equal(drawn, ranked)
        assert tuple(sorted(drawn)) == key


def test_weighted_threshold_clauses_match_k_nearest():
    # weighted sites take knearest's weight-class trees; the scan-only
    # reference must rank every checked clause the same way
    inst = sample_geometric_formula(500, 1000, 3, G2, 0.0,
                                    power_law_weights(500, 2.5), seed=13)
    f = inst.formula
    assert len(inst.sites.weight_classes) > 1
    for i in range(0, 1000, 7):
        key, ranked = k_nearest_sites(inst.clause_positions[i], inst.sites, 3, G2)
        drawn = np.abs(f.literals[i]) - 1
        assert np.array_equal(drawn, ranked)
        assert tuple(sorted(drawn)) == key


def test_threshold_instances_are_all_nice():
    inst = sample_geometric_formula(200, 500, 2, G2, 0.0, None, seed=17)
    assert all(is_nice(i, inst) for i in range(500))


def test_threshold_weighted_draw_order_fixture():
    # hand-placed sites, clause next to site 0: it must be drawn first
    sites = WeightedSites(np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.9, 0.9]]),
                          np.ones(4))
    rng = np.random.default_rng(0)
    drawn = draw_geometric_clause_vars(np.array([[0.12, 0.12]]), sites, 2, 0.0, G2, rng)
    assert drawn[0][0] == 0
    assert drawn[0][1] in (1, 2)


def test_threshold_k1_minimizes_weighted_distance():
    inst = sample_geometric_formula(50, 100, 1, G2, 0.0,
                                    power_law_weights(50, 2.5), seed=23)
    scores = weighted_score_matrix(inst.clause_positions, inst.sites, G2)
    assert np.array_equal(np.abs(inst.formula.literals[:, 0]) - 1,
                          scores.argmin(axis=1))


def test_geometric_draws_match_sequential_distribution():
    # the exponential race must reproduce the sequential-draw (Plackett-
    # Luce) probabilities over X(c, v); fixed clause position, small n
    rng = np.random.default_rng(5)
    sites = WeightedSites(rng.random((4, 2)), np.ones(4))
    cpos = np.tile(rng.random((1, 2)), (200_000, 1))
    drawn = draw_geometric_clause_vars(cpos, sites, 2, 0.7, G2,
                                       np.random.default_rng(17))
    score = weighted_score_matrix(cpos[:1], sites, G2)[0]
    x = score ** (-1 / 0.7)  # X(c, v) up to a constant factor
    x = x / x.sum()
    codes = drawn[:, 0] * 4 + drawn[:, 1]
    counts = np.bincount(codes, minlength=16)
    probs = np.zeros(16)
    for a in range(4):
        for b in range(4):
            if a != b:
                probs[a * 4 + b] = x[a] * x[b] / (1 - x[a])
    mask = probs > 0
    res = stats.chisquare(counts[mask], 200_000 * probs[mask] / probs[mask].sum())
    assert res.pvalue > 0.001


def test_sign_ledger_no_repeats_until_exhaustion():
    ledger = SignLedger(2)
    u = np.random.default_rng(3).random(10)
    key = (0, 5)
    first_four = [ledger.draw_pattern(key, ui) for ui in u[:4]]
    assert sorted(first_four) == [0, 1, 2, 3]
    later = [ledger.draw_pattern(key, ui) for ui in u[4:]]
    assert all(0 <= p < 4 for p in later)


def test_sign_ledger_invariant_on_instances():
    inst = sample_geometric_formula(30, 2000, 2, G2, 0.0, None, seed=29)
    f = inst.formula
    sets = f.sorted_variable_sets()
    order = np.argsort(np.abs(f.literals), axis=1, kind="stable")
    neg = np.take_along_axis(f.literals < 0, order, axis=1)
    pats = neg @ (1 << np.arange(2))
    seen = {}
    for i in range(f.m):
        key = tuple(sets[i])
        seen.setdefault(key, []).append(int(pats[i]))
    for key, plist in seen.items():
        head = plist[: 1 << f.k]
        assert len(set(head)) == len(head)  # distinct until exhaustion


def test_geometric_accepts_high_temperature():
    inst = sample_geometric_formula(40, 100, 2, G2, 1.5, None, seed=31)
    assert inst.T == 1.5


@pytest.mark.parametrize("T", [0.5, 1.5])
def test_race_stream_does_not_depend_on_the_clause_block(monkeypatch, T):
    # 1100 clauses: two blocks of the default size, 158 blocks of 7; T = 0.5
    # runs the lazy race, T = 1.5 keys all n sites
    def literals():
        return sample_geometric_formula(60, 1100, 3, G2, T, None,
                                        seed=37).formula.literals

    assert generate._CLAUSE_BLOCK == 1024
    default = literals()
    monkeypatch.setattr(generate, "_CLAUSE_BLOCK", 7)
    assert np.array_equal(literals(), default)


def _signs_one_by_one(drawn, pattern_u):
    """Reference: every clause through one ledger, in clause-index order."""
    ledger = SignLedger(drawn.shape[1])
    out = []
    for row, u in zip(drawn.tolist(), pattern_u):
        key = tuple(sorted(row))
        pat = ledger.draw_pattern(key, u)
        out.append([-(v + 1) if (pat >> key.index(v)) & 1 else v + 1 for v in row])
    return np.array(out, dtype=np.int64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 4), spare=st.integers(0, 3), m=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_signs_match_sequential_ledger(k, spare, m, seed):
    # few variables, so sets repeat and saturate (all 2^k patterns used)
    rng = np.random.default_rng(seed)
    drawn = np.array([rng.permutation(k + spare)[:k] for _ in range(m)])
    u = rng.random(m)
    u[::7] = 0.0
    u[3::7] = 1.0 - np.finfo(float).eps
    assert np.array_equal(_apply_sign_patterns(drawn, u), _signs_one_by_one(drawn, u))


@pytest.mark.parametrize("T", [0.0, 0.5, 1.5])
def test_no_clause_positions_draw_no_rows(T):
    sites = WeightedSites(np.random.default_rng(0).random((50, 2)), np.ones(50))
    drawn = draw_geometric_clause_vars(np.empty((0, 2)), sites, 3, T, G2,
                                       np.random.default_rng(0))
    assert drawn.shape == (0, 3)


@pytest.mark.parametrize("T", [300.0, 1000.0])
def test_race_at_high_temperature_is_not_index_biased(T):
    # E**(T*p/d) under- and overflows at large T; positions are i.i.d., so
    # the first draw lands on each tenth of the indices about equally often
    rng = np.random.default_rng(43)
    sites = WeightedSites(rng.random((200, 2)), np.ones(200))
    drawn = draw_geometric_clause_vars(rng.random((4000, 2)), sites, 3, T, G2, rng)
    assert abs(np.mean(drawn[:, 0] < 20) - 0.10) < 0.03


def _full_race_keys(monkeypatch, pts, sites, T, g, rng):
    """The keys the race ranks when no class is cut short, one row per point."""
    keys = []

    def spy(values, k):
        keys.append(values.copy())
        return rank_k_smallest(values, k)

    monkeypatch.setattr(generate, "rank_k_smallest", spy)
    sizes = [len(members) for members in sites.weight_classes]
    generate._race(pts, sites, 1, T, g, rng, sizes)
    return np.concatenate(keys)


def test_race_keys_are_the_product_without_overflow(monkeypatch):
    rng = np.random.default_rng(47)
    sites = WeightedSites.from_raw(rng.random((300, 2)), rng.uniform(1, 5, 300))
    pts = rng.random((500, 2))
    scores = weighted_score_matrix(pts, sites, G2)
    for seed, T in enumerate((0.3, 0.5, 1.0, 2.0)):
        e = T * 2 / 2
        expo = np.random.default_rng(seed).standard_exponential(scores.shape)
        want = scores * expo**e
        assert np.all(np.isfinite(want)) and want.min() > np.finfo(float).tiny
        got = _full_race_keys(monkeypatch, pts, sites, T, G2,
                              np.random.default_rng(seed))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["underflow", "overflow"])
def test_race_keys_at_high_temperature_use_the_drawn_exponentials(monkeypatch, case):
    rng = np.random.default_rng(53)
    pts = rng.random((300, 2))
    if case == "underflow":  # E**100 below the smallest normal double
        sites, g, T = WeightedSites(rng.random((100, 2)), np.ones(100)), G2, 100.0
    else:  # three far sites, scores near the largest double: E > 1.8 overflows
        sites = WeightedSites(7e153 + rng.random((3, 2)), np.ones(3))
        g, T = GeometrySpec(d=2, p_norm=2, wrap=False), 1.0
    scores = weighted_score_matrix(pts, sites, g)
    e = T * 2 / 2
    got_rng, ref_rng = np.random.default_rng(59), np.random.default_rng(59)
    got = _full_race_keys(monkeypatch, pts, sites, T, g, got_rng)
    expo = ref_rng.standard_exponential(scores.shape)
    with np.errstate(over="ignore", under="ignore"):
        product = scores * expo**e
    bad = ~np.all(np.isfinite(product) & (product >= np.finfo(float).tiny), axis=1)
    assert 0 < bad.sum() < len(scores)
    assert np.array_equal(got[bad], np.log(scores[bad]) + e * np.log(expo[bad]))
    assert np.array_equal(got[~bad], product[~bad])
    # the stream continues where the block's exponentials end
    assert got_rng.random() == ref_rng.random()


def _sequential_probabilities(x, k):
    """Ordered k-tuple -> probability of drawing it in sequence, each pick
    proportional to x among the indices not yet drawn."""
    x = x / x.sum()
    out = {}
    for tup in itertools.permutations(range(len(x)), k):
        p, rest = 1.0, 1.0
        for v in tup:
            p *= x[v] / rest
            rest -= x[v]
        out[tup] = p
    return out


@pytest.mark.parametrize("T, k, weighted, g", [
    (0.3, 2, False, G2), (0.3, 3, True, G2), (0.5, 2, True, G2),
    (0.5, 3, False, G2), (0.9, 2, False, G2), (0.9, 3, True, G2),
    (0.4, 2, True, GeometrySpec(d=1, p_norm=2)),
    (0.8, 3, False, GeometrySpec(d=3, p_norm=INFINITY, wrap=False))],
    ids=lambda v: repr(v) if isinstance(v, GeometrySpec) else None)
def test_lazy_race_matches_sequential_distribution(monkeypatch, T, k, weighted, g):
    # a huge candidate scale leaves all but k + 2 members of each class to
    # the tail process, and the sites sit on a sphere around the clause
    # points, so that tail members win many draws even at low T
    monkeypatch.setattr(generate, "_CANDIDATE_SCALE", 1e6)
    n, reps = 14, 20_000
    rng = np.random.default_rng(int(10 * T) + k)
    way = rng.normal(size=(n, g.d))
    ring = 0.5 + rng.uniform(0.15, 0.2, n)[:, None] * way / np.linalg.norm(
        way, axis=1, keepdims=True)
    w = power_law_weights(n, 3.5) if weighted else np.ones(n)
    sites = WeightedSites.from_raw(ring, w)
    sizes = generate._candidate_sizes(sites, k, T)
    assert sum(sizes) < n
    centers = 0.5 + rng.uniform(-0.02, 0.02, (3, g.d))
    drawn = draw_geometric_clause_vars(np.tile(centers, (reps, 1)), sites, k, T,
                                       g, np.random.default_rng(k))
    cand = _class_candidates(centers, sites, g, sizes)[0]
    tail_wins = 0
    for j, center in enumerate(centers):
        rows = drawn[j::3]
        tail_wins += int((~np.isin(rows, cand[j]).all(axis=1)).sum())
        score = weighted_score_matrix(center[None], sites, g)[0]
        x = score ** (-g.d / (g.score_power * T))  # X(c, v) up to a factor
        probs = _sequential_probabilities(x, k)
        index = {tup: i for i, tup in enumerate(probs)}
        counts = np.bincount([index[tuple(r)] for r in rows.tolist()],
                             minlength=len(probs))
        expected = reps * np.array(list(probs.values()))
        big = expected >= 5  # pool the rare tuples into one cell
        if not big.all():
            counts = np.append(counts[big], counts[~big].sum())
            expected = np.append(expected[big], expected[~big].sum())
        res = stats.chisquare(counts, expected)
        assert res.pvalue > 0.001
    assert tail_wins > 0.2 * len(drawn)


def test_lazy_race_stream_does_not_depend_on_blocks_or_budget_rounds(monkeypatch):
    # weighted sites with tails, and a tail budget of two exponentials, so
    # that many rows finish after the last block, some after several rounds
    monkeypatch.setattr(generate, "_TAIL_BUDGET", 2)
    widths = []
    race_block = generate._race_block

    def spy(points, sites, k, g, e, sizes, expo):
        widths.append(expo.shape[1] - sum(sizes))
        return race_block(points, sites, k, g, e, sizes, expo)

    monkeypatch.setattr(generate, "_race_block", spy)

    def literals():
        return sample_geometric_formula(80, 1100, 3, G2, 0.5,
                                        power_law_weights(80, 2.5),
                                        seed=41).formula.literals

    default = literals()
    assert max(widths) >= 8  # at least two rounds after the blocks
    monkeypatch.setattr(generate, "_CLAUSE_BLOCK", 7)
    assert np.array_equal(literals(), default)


@pytest.mark.parametrize("g", [G2, GeometrySpec(d=2, p_norm=1),
                               GeometrySpec(d=2, p_norm=INFINITY),
                               GeometrySpec(d=2, p_norm=2, wrap=False)],
                         ids=["p2", "p1", "max", "cube"])
def test_tail_bound_is_below_every_member_left_out(g):
    # duplicated sites, and query points on the grid lines where the trees
    # split their cells and where sites sit
    rng = np.random.default_rng(61)
    pos = np.round(rng.random((150, 2)) * 8) / 8 % 1.0
    pos = np.vstack((pos, pos[:50]))
    sites = WeightedSites.from_raw(pos, power_law_weights(200, 2.5))
    grid = np.arange(8) / 8
    pts = np.vstack((np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2),
                     pos[:20], rng.random((30, 2))))
    sizes = generate._candidate_sizes(sites, 3, 0.5)
    cand, _, tails = _class_candidates(pts, sites, g, sizes)
    assert tails
    q = g.score_power
    for members, bound in tails:
        floor = bound / (1.0 + _TIE_GAP)
        for row in range(len(pts)):
            out = np.setdiff1d(members, cand[row])
            scores = pnorm_scores(pts[row:row + 1], sites.positions[out], g)[0]
            assert np.all(scores / sites.weights[out] ** (q / 2) >= floor[row])


@pytest.mark.parametrize("T, weighted, digest, m", [
    (1.5, False, "036e98e0326128220a1a49999f257fa9e3e261724661e1ebe661b913063c37b6", 1500),
    (1.5, True, "94fee95edb68409cb75f0fae577509fdfe1fb1a2ffebadffbc272f50af873230", 1500),
    (0.0, False, "eaccd03bf282edd5cbc85d714111c480c666e575616830b8e5305431f80c27a6", 1500),
    (0.0, True, "35af249662261cf96a9e60efc7df49512b044a52664ad30eb7c702026cb94543", 1500),
    # log-domain rows
    (300.0, False, "660d4caa16b9c7c441c308e53f7cb1bd0a1e362f14e9fa6f29ffdb5b0621cfb2", 1500),
    (300.0, True, "0ff81d52ba5215c0852bf4f192769b4a2dd417d3343d711898bb215cab033f09", 1500),
    # fewer points than the trees take: every site keyed at T < 1
    (0.5, False, "406912890b0977ab9cdb920c9ad68984ef9140315d670bad1c95df1a4f5cc221", 5),
    (0.5, True, "4427cea3f63078b443e6e67f555e737b703dc061c1972f9b80d799e58267306a", 5),
])
def test_streams_at_zero_and_high_temperature_are_unchanged(T, weighted, digest, m):
    # only T in (0, 1) with the trees serving has a new stream since 0.1.0;
    # these cases keep its digests
    ws = power_law_weights(300, 2.5) if weighted else None
    lits = sample_geometric_formula(300, m, 3, G2, T, ws, seed=61).formula.literals
    assert hashlib.sha256(lits.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, -0.5])
def test_non_finite_temperatures_are_rejected(T):
    with pytest.raises(ValueError, match="temperature must be >= 0 and finite"):
        sample_geometric_formula(20, 10, 2, G2, T, None, 0)
