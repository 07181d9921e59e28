import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geoksat.structure as structure
from geoksat.generate import formula_from_clauses, sample_geometric_formula, sample_nonuniform_formula
from geoksat.geometry import GeometrySpec
from geoksat.structure import (EnumerationBudgetError, brute_force_sat,
                               check_expansion_exact, check_expansion_sampled,
                               find_unsat_core, incidence_graph, is_nice,
                               resolution_width_conditions,
                               unique_variable_boundary)
from geoksat.weights import power_law_weights, uniform_weights

G2 = GeometrySpec(d=2, p_norm=2)


def _random_formula(n, m, k, beta, seed):
    return sample_nonuniform_formula(n, m, k, power_law_weights(n, beta), seed)


# --- independent brute-force oracles (deliberately written the slow,
# --- obvious way; they double-check the vectorized enumeration)

def oracle_expansion(gph, r, c):
    for size in range(1, min(r, gph.m) + 1):
        for sub in itertools.combinations(range(gph.m), size):
            nb = set()
            for ci in sub:
                nb.update(gph.clause_vars[ci])
            if len(nb) < (1 + c) * size:
                return sub
    return None


def oracle_width(gph, w, eps):
    for size in range(1, min(w, gph.m) + 1):
        for sub in itertools.combinations(range(gph.m), size):
            counts = {}
            for ci in sub:
                for v in gph.clause_vars[ci]:
                    counts[v] = counts.get(v, 0) + 1
            if len(counts) < size:
                return (1, sub)
            if 3 * size >= w and 3 * size <= 2 * w:
                unique = sum(1 for cnt in counts.values() if cnt == 1)
                if unique < eps * size:
                    return (2, sub)
    return None


def test_incidence_graph_basics():
    f = formula_from_clauses(6, 3, [[1, -2, 3], [4, 5, -6], [2, 1, -3]])
    gph = incidence_graph(f)
    assert gph.neighborhood([0]) == {1, 2, 3}
    assert len(gph.neighborhood([0, 1])) == 6
    assert len(gph.neighborhood([0, 2])) == 3
    assert gph.var_clauses[1] == (0, 2)
    for c, vs in enumerate(gph.clause_vars):
        for v in vs:
            assert c in gph.var_clauses[v]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 5), spare=st.integers(0, 6), m=st.integers(0, 40),
       unused=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_incidence_graph_equals_naive_dict_graph(k, spare, m, unused, seed):
    # variables k + spare + unused exceed the largest that can occur
    rng = np.random.default_rng(seed)
    n = k + spare + unused
    clauses = [(rng.permutation(k + spare)[:k] + 1).tolist() for _ in range(m)]
    f = formula_from_clauses(n, k, [[v if rng.random() < 0.5 else -v for v in cl]
                                    for cl in clauses])
    clause_vars = tuple(tuple(sorted(cl)) for cl in clauses)
    var_clauses = {}
    for c, vs in enumerate(clause_vars):
        for v in vs:
            var_clauses.setdefault(v, []).append(c)
    var_clauses = {v: tuple(cs) for v, cs in var_clauses.items()}

    gph = incidence_graph(f)
    assert gph.m == m == len(gph.clause_vars)
    assert tuple(gph.clause_vars) == clause_vars
    assert all(gph.clause_vars[c] == clause_vars[c] for c in range(-m, m))
    assert len(gph.var_clauses) == len(var_clauses)
    assert list(gph.var_clauses) == sorted(var_clauses)
    assert {v: gph.var_clauses[v] for v in gph.var_clauses} == var_clauses
    for v in range(-1, n + 3):
        assert (v in gph.var_clauses) == (v in var_clauses)
        if v not in var_clauses:
            with pytest.raises(KeyError):
                gph.var_clauses[v]
    with pytest.raises(IndexError):
        gph.clause_vars[m]
    for size in range(min(m, 4) + 1):
        subset = rng.choice(m, size=size, replace=False)
        assert gph.neighborhood(subset) == {v for c in subset for v in clause_vars[c]}


def test_expansion_single_clause_passes():
    f = formula_from_clauses(5, 3, [[1, 2, 3]])
    gph = incidence_graph(f)
    assert check_expansion_exact(gph, 1, 2.0) is None  # c = k - 1


def test_expansion_duplicate_pair_witness():
    k = 3
    f = formula_from_clauses(6, k, [[1, 2, 3], [4, 5, 6], [-1, 2, -3]])
    gph = incidence_graph(f)
    witness = check_expansion_exact(gph, 2, k / 2)
    assert witness is not None
    assert witness.clause_indices == (0, 2)
    assert witness.neighborhood_size == 3
    assert witness.threshold == pytest.approx((1 + k / 2) * 2)


def test_expansion_matches_oracle_random():
    f = _random_formula(30, 30, 3, 4.0, seed=77)
    gph = incidence_graph(f)
    lib = check_expansion_exact(gph, 4, 0.5)
    orc = oracle_expansion(gph, 4, 0.5)
    if orc is None:
        assert lib is None
    else:
        assert lib is not None and lib.clause_indices == orc


def test_expansion_budget_error():
    f = _random_formula(30, 30, 3, 4.0, seed=1)
    gph = incidence_graph(f)
    with pytest.raises(EnumerationBudgetError):
        check_expansion_exact(gph, 10, 0.5, cap=1000)


def _wide_formulas(n, m, k, count, seed):
    """Uniform formulas with a few planted repeats, so witnesses occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        f = sample_nonuniform_formula(n, m, k, uniform_weights(n),
                                      int(rng.integers(1 << 30)))
        lits = f.literals.copy()
        for _ in range(int(rng.integers(0, 3))):
            rows = rng.choice(m, size=int(rng.integers(2, 4)), replace=False)
            lits[rows[1:]] = lits[rows[0]]
        yield formula_from_clauses(n, k, lits)


def _assert_checkers_match_oracles(formulas, min_vars):
    for f in formulas:
        gph = incidence_graph(f)
        assert len(gph.var_clauses) > min_vars
        for r, c in ((2, 1.0), (3, f.k / 2), (3, f.k - 1.0)):
            lib = check_expansion_exact(gph, r, c)
            assert (None if lib is None else lib.clause_indices) == oracle_expansion(gph, r, c)
        for w, eps in ((3, 0.0), (3, 0.5), (4, 3.0), (5, 4.5)):
            lib = resolution_width_conditions(f, w, eps)
            got = None if lib is None else (lib.condition, lib.clause_indices)
            assert got == oracle_width(gph, w, eps)


@pytest.mark.parametrize("n, m, k, min_vars",
                         [(200, 25, 5, 63), (1000, 32, 5, 128), (400, 40, 2, 63)])
def test_checkers_match_oracles_on_wide_universes(n, m, k, min_vars):
    # more than one (and more than two) 64-variable mask words
    _assert_checkers_match_oracles(_wide_formulas(n, m, k, 6, seed=n), min_vars)


@pytest.mark.parametrize("chunk", [1, 7])
def test_checkers_match_oracles_across_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(structure, "_CHUNK", chunk)
    _assert_checkers_match_oracles(_wide_formulas(200, 14, 5, 3, seed=chunk), 50)
    _assert_checkers_match_oracles(_wide_formulas(12, 14, 3, 3, seed=chunk), 5)
    _assert_checkers_match_oracles(_wide_formulas(12, 14, 1, 3, seed=chunk), 3)


def test_checkers_pass_on_empty_and_single_clause_formulas():
    for clauses in ([], [[1, 2, 3]]):
        f = formula_from_clauses(5, 3, clauses)
        assert check_expansion_exact(incidence_graph(f), 3, 0.5) is None
        assert check_expansion_sampled(incidence_graph(f), 3, 0.5, 10, seed=1) is None
        assert resolution_width_conditions(f, 3, 0.5) is None


@pytest.mark.parametrize("r", [0, -1])
def test_checkers_pass_with_no_subset_size(r):
    # c = 5: every clause subset violates, but none has size <= r
    gph = incidence_graph(_random_formula(20, 10, 3, 4.0, seed=5))
    assert check_expansion_exact(gph, 1, 5.0) is not None
    assert check_expansion_sampled(gph, 2, 5.0, 10, seed=1) is not None
    assert check_expansion_exact(gph, r, 5.0) is None
    assert check_expansion_sampled(gph, r, 5.0, 10, seed=1) is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_checkers_reject_non_finite_c_and_eps(bad):
    # a NaN fails every comparison, so unchecked it passed every subset,
    # where c = 5 and eps = 9 find a witness on the same formula
    f = _random_formula(20, 30, 3, 4.0, seed=5)
    gph = incidence_graph(f)
    assert check_expansion_exact(gph, 2, 5.0) is not None
    assert check_expansion_sampled(gph, 2, 5.0, 100, 1) is not None
    assert resolution_width_conditions(f, 3, 9.0) is not None
    with pytest.raises(ValueError, match="^c must be finite"):
        check_expansion_exact(gph, 2, bad)
    with pytest.raises(ValueError, match="^c must be finite"):
        check_expansion_sampled(gph, 2, bad, 100, 1)
    with pytest.raises(ValueError, match="^eps must be finite"):
        resolution_width_conditions(f, 3, bad)


@pytest.mark.parametrize("k", [2, 3])
def test_sampled_walk_tests_one_clause_subsets(k):
    # a clause alone violates expansion iff k < 1 + c; the walk's start
    # clause is such a subset, so at r = 1 both checks agree, and at any r
    # a start clause is the witness
    gph = incidence_graph(_random_formula(20, 10, k, 4.0, seed=5))
    for c in (k - 1.5, k - 1.0, k - 0.5, 5.0):
        exact = check_expansion_exact(gph, 1, c)
        assert (exact is None) == (k >= 1 + c)
        w = check_expansion_sampled(gph, 1, c, 10, seed=1)
        assert (w is None) == (exact is None)
        if exact is not None:
            for w in (w, check_expansion_sampled(gph, 3, c, 10, seed=1)):
                assert len(w.clause_indices) == 1
                assert w.neighborhood_size == k and w.threshold == 1 + c


def test_budget_counts_every_subset_up_to_the_size():
    f = _random_formula(30, 12, 3, 4.0, seed=3)
    gph = incidence_graph(f)
    budget = 12 + 66 + 220  # C(12, 1) + C(12, 2) + C(12, 3)
    check_expansion_exact(gph, 3, 0.5, cap=budget)
    resolution_width_conditions(f, 3, 0.5, cap=budget)
    with pytest.raises(EnumerationBudgetError):
        check_expansion_exact(gph, 3, 0.5, cap=budget - 1)
    with pytest.raises(EnumerationBudgetError):
        resolution_width_conditions(f, 3, 0.5, cap=budget - 1)
    check_expansion_exact(gph, 20, 0.0, cap=(1 << 12) - 1)  # sizes stop at m


def test_expansion_pass_monotone():
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = _random_formula(25, 12, 3, 3.5, int(rng.integers(1 << 30)))
        gph = incidence_graph(f)
        if check_expansion_exact(gph, 4, 1.0) is None:
            assert check_expansion_exact(gph, 3, 1.0) is None
            assert check_expansion_exact(gph, 4, 0.5) is None


def test_sampled_checker_planted_duplicates():
    rng = np.random.default_rng(11)
    found = 0
    trials = 80
    for _ in range(trials):
        n, m, k = 40, 30, 3
        f = sample_nonuniform_formula(n, m, k, uniform_weights(n),
                                      int(rng.integers(1 << 30)))
        lits = f.literals.copy()
        i, j = rng.choice(m, size=2, replace=False)
        lits[j] = lits[i]
        f2 = formula_from_clauses(n, k, lits)
        gph = incidence_graph(f2)
        w = check_expansion_sampled(gph, 2, k / 2, 10 * m,
                                    int(rng.integers(1 << 30)))
        if w is not None:
            nb = gph.neighborhood(w.clause_indices)
            assert len(nb) < (1 + k / 2) * len(w.clause_indices)
            found += 1
    assert found >= 0.95 * trials


def test_sampled_checker_no_false_witness_on_disjoint():
    f = formula_from_clauses(9, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    gph = incidence_graph(f)
    assert check_expansion_sampled(gph, 3, 0.5, 5000, seed=3) is None


def _assert_sound(gph, w, r, c):
    assert 2 <= len(w.clause_indices) <= min(r, gph.m)
    assert list(w.clause_indices) == sorted(set(w.clause_indices))
    assert all(0 <= i < gph.m for i in w.clause_indices)
    assert w.neighborhood_size == len(gph.neighborhood(w.clause_indices))
    assert w.threshold == (1 + c) * len(w.clause_indices)
    assert w.neighborhood_size < w.threshold


def test_sampled_witnesses_are_sound_and_seeded():
    rng = np.random.default_rng(21)
    witnesses = 0
    for f in _wide_formulas(30, 40, 3, 40, seed=21):
        gph = incidence_graph(f)
        for r, c in ((2, 1.5), (4, 0.5), (6, 1.0)):
            seed = int(rng.integers(1 << 30))
            w = check_expansion_sampled(gph, r, c, 300, seed)
            assert w == check_expansion_sampled(gph, r, c, 300, seed)
            if w is not None:
                _assert_sound(gph, w, r, c)
                witnesses += 1
    assert witnesses >= 40


def test_sampled_walk_returns_the_first_violating_block(monkeypatch):
    # more trials draw more blocks from the same stream: runs of whole
    # blocks find nothing until the first violating block, and every run
    # that covers that block returns its witness, whatever follows
    monkeypatch.setattr(structure, "_TRIAL_BLOCK", 8)
    f = sample_nonuniform_formula(40, 30, 3, uniform_weights(40), 5)
    lits = f.literals.copy()
    lits[17] = lits[4]
    gph = incidence_graph(formula_from_clauses(40, 3, lits))
    runs = {t: check_expansion_sampled(gph, 2, 1.5, t, seed=2) for t in range(8, 400, 8)}
    first = min(t for t, w in runs.items() if w is not None)
    assert first > 16  # at least two blocks ran without a witness
    assert all(w is None for t, w in runs.items() if t < first)
    for t in range(first, first + 40):
        assert check_expansion_sampled(gph, 2, 1.5, t, seed=2) == runs[first]
    _assert_sound(gph, runs[first], 2, 1.5)


def test_sampled_walk_trial_law():
    # one trial on {A, A', B}, A and A' on the same variables: it violates
    # expansion iff its size is 2 (1/2), it starts on A or A' (2/3) and one
    # of its 8 attempts picks the other copy (1 - 2^-8)
    gph = incidence_graph(formula_from_clauses(6, 3, [[1, 2, 3], [-3, 2, 1], [4, 5, 6]]))
    hits = sum(check_expansion_sampled(gph, 2, 1.5, 1, seed) is not None
               for seed in range(3000))
    p = 0.5 * 2 / 3 * (1 - 2.0 ** -8)
    assert abs(hits / 3000 - p) < 4.5 * (p * (1 - p) / 3000) ** 0.5


def test_sampled_walk_small_trials_and_large_r():
    gph = incidence_graph(formula_from_clauses(6, 3, [[1, 2, 3], [-3, 2, 1], [4, 5, 6]]))
    for trials in (1, 2, 5):  # fewer trials than one block
        for seed in range(20):
            w = check_expansion_sampled(gph, 2, 1.5, trials, seed)
            if w is not None:
                _assert_sound(gph, w, 2, 1.5)
    # r > m: a walk stops at m clauses; clause 2 shares variable 3
    gph = incidence_graph(formula_from_clauses(5, 3, [[1, 2, 3], [-3, 2, 1], [3, 4, 5]]))
    seen = set()
    for seed in range(40):
        w = check_expansion_sampled(gph, 9, 1.0, 50, seed)
        _assert_sound(gph, w, 9, 1.0)
        seen.add(w.clause_indices)
    assert seen == {(0, 1), (0, 1, 2)}
    with pytest.raises(ValueError):
        check_expansion_sampled(gph, 2, 1.5, 0, 1)


def test_unique_variable_boundary():
    f = formula_from_clauses(9, 3, [[1, 2, 3], [3, 4, 5], [1, 2, 3], [7, 8, 9]])
    gph = incidence_graph(f)
    assert unique_variable_boundary(gph, [0]) == (1, 2, 3)
    assert unique_variable_boundary(gph, [0, 1]) == (1, 2, 4, 5)
    assert unique_variable_boundary(gph, [0, 2]) == ()
    with pytest.raises(IndexError):
        unique_variable_boundary(gph, [9])
    with pytest.raises(ValueError):
        unique_variable_boundary(gph, [])


def test_boundary_counting_inequality():
    # |delta C'| >= 2 |N(C')| - k |C'| on enumerated subsets
    f = _random_formula(20, 10, 3, 3.0, seed=5)
    gph = incidence_graph(f)
    for size in (1, 2, 3):
        for sub in itertools.combinations(range(10), size):
            delta = unique_variable_boundary(gph, sub)
            nb = gph.neighborhood(sub)
            assert set(delta) <= nb
            assert len(delta) >= 2 * len(nb) - 3 * size


def test_width_conditions_w1_always_passes():
    f = _random_formula(10, 8, 3, 3.0, seed=2)
    assert resolution_width_conditions(f, 1, 5.0) is None


def test_width_conditions_duplicate_clauses():
    # two identical unit clauses: condition (1) fails at size 2 for k = 1
    f1 = formula_from_clauses(2, 1, [[1], [1]])
    witness = resolution_width_conditions(f1, 2, 0.5)
    assert witness is not None and witness.condition == 1
    assert witness.clause_indices == (0, 1)
    # for k = 3 both conditions hold at w = 2
    f3 = formula_from_clauses(3, 3, [[1, 2, 3], [1, 2, 3]])
    assert resolution_width_conditions(f3, 2, 0.5) is None


def test_width_conditions_match_oracle_frozen():
    # oracle run once over all C(40, <= 6) subsets: PASS
    f = _random_formula(40, 40, 5, 5.0, seed=123)
    assert resolution_width_conditions(f, 6, 0.5) is None


def test_width_conditions_match_oracle_live():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(8, 16))
        m = int(rng.integers(6, 12))
        f = _random_formula(n, m, 3, 3.0, int(rng.integers(1 << 30)))
        gph = incidence_graph(f)
        lib = resolution_width_conditions(f, 4, 0.5)
        orc = oracle_width(gph, 4, 0.5)
        if orc is None:
            assert lib is None
        else:
            assert (lib.condition, lib.clause_indices) == orc


def test_brute_force_sat_basics():
    assert brute_force_sat([]).satisfiable
    assert brute_force_sat([]).assignment == {}
    res = brute_force_sat([[1], [-1]])
    assert not res.satisfiable and res.assignment is None
    full = [list(lits) for lits in
            itertools.product(*[(v, -v) for v in (1, 2, 3)])]
    assert not brute_force_sat(full).satisfiable
    sat = brute_force_sat([[1, 2], [-1, 2], [1, -2]])
    assert sat.satisfiable
    model = sat.assignment
    for clause in ([1, 2], [-1, 2], [1, -2]):
        assert any((l > 0) == model[abs(l)] for l in clause)
    with pytest.raises(ValueError):
        brute_force_sat([[1, 2]], max_vars=1)


def test_core_on_saturated_set():
    clauses = [[(v if (pat >> i) & 1 == 0 else -v) for i, v in enumerate((1, 2, 3))]
               for pat in range(8)]
    f = formula_from_clauses(3, 3, clauses)
    core = find_unsat_core(f)
    assert core is not None
    assert core.variables == (1, 2, 3)
    assert sorted(core.patterns) == list(range(8))
    assert not brute_force_sat([f.literals[c] for c in core.clause_indices]).satisfiable


def test_no_core_when_pattern_missing():
    clauses = [[(v if (pat >> i) & 1 == 0 else -v) for i, v in enumerate((1, 2, 3))]
               for pat in range(7)]  # one pattern missing
    clauses += [[4, 5, 6], [4, 5, -6]]
    f = formula_from_clauses(6, 3, clauses)
    assert find_unsat_core(f) is None


def test_core_planted_in_random_formula():
    rng = np.random.default_rng(15)
    for trial in range(10):
        n, m, k = 30, 400, 2
        f = sample_nonuniform_formula(n, m, k, uniform_weights(n),
                                      int(rng.integers(1 << 30)))
        lits = f.literals.copy()
        vset = np.sort(rng.choice(n, size=k, replace=False) + 1)
        rows = rng.choice(m, size=1 << k, replace=False)
        for pat, row in enumerate(rows):
            lits[row] = [(-v if (pat >> i) & 1 else v) for i, v in enumerate(vset)]
        core = find_unsat_core(formula_from_clauses(n, k, lits))
        assert core is not None
        found = brute_force_sat([lits[c] for c in core.clause_indices])
        assert not found.satisfiable


def _loop_core(f):
    """Reference: walk the variable-set groups in sorted order and keep the
    first clause of each sign pattern until one group has all 2^k."""
    groups = {}
    for c, lits in enumerate(f.literals.tolist()):
        lits = sorted(lits, key=abs)
        key = tuple(abs(l) for l in lits)
        pattern = sum(1 << i for i, l in enumerate(lits) if l < 0)
        groups.setdefault(key, {}).setdefault(pattern, c)
    for key in sorted(groups):
        if len(groups[key]) == 1 << f.k:
            pats = tuple(sorted(groups[key]))
            return key, tuple(groups[key][p] for p in pats), pats
    return None


def test_core_finder_matches_loop_reference():
    rng = np.random.default_rng(31)
    cores = 0
    for _ in range(300):
        k = int(rng.integers(1, 4))
        n, m = int(rng.integers(k, k + 5)), int(rng.integers(0, 100))
        f = formula_from_clauses(n, k, [[v if rng.random() < 0.5 else -v
                                         for v in rng.permutation(n)[:k] + 1]
                                        for _ in range(m)])
        core = find_unsat_core(f)
        got = None if core is None else (core.variables, core.clause_indices, core.patterns)
        assert got == _loop_core(f)
        cores += core is not None
    assert 50 <= cores <= 250


def test_core_finder_matches_loop_reference_when_codes_overflow():
    # 61^12 >= 2^63: the variable sets are grouped by their lexsort rank;
    # two planted saturated sets, shuffled among repeats of a few sets drawn
    # from 14 variables; the core is the lexicographically smaller one
    n, k = 60, 12
    rng = np.random.default_rng(53)
    pool = [np.sort(rng.choice(14, k, replace=False)) + 1 for _ in range(6)]
    pool += [np.arange(1, k + 1), np.arange(n - k + 1, n + 1)]
    clauses = []
    for key in (pool[-1], pool[-2]):
        for pat in rng.permutation(1 << k):
            clauses.append([-v if (pat >> i) & 1 else v for i, v in enumerate(key)])
    for _ in range(3000):
        key = pool[rng.integers(len(pool))]
        clauses.append([-v if rng.random() < 0.5 else v for v in rng.permutation(key)])
    order = rng.permutation(len(clauses))
    f = formula_from_clauses(n, k, [clauses[i] for i in order])
    core = find_unsat_core(f)
    assert core.variables == tuple(range(1, k + 1))
    assert (core.variables, core.clause_indices, core.patterns) == _loop_core(f)
    # without the two planted sets, no set saturates
    assert find_unsat_core(formula_from_clauses(n, k, clauses[2 << k:])) is None


def test_core_from_threshold_geometric_instance():
    n, k = 200, 2
    m = (1 << k) * 2 * k * (n - k) + 1
    inst = sample_geometric_formula(n, m, k, G2, 0.0, None, seed=400)
    core = find_unsat_core(inst.formula)
    assert core is not None


def test_is_nice_threshold_and_errors():
    inst = sample_geometric_formula(100, 50, 2, G2, 0.0, None, seed=2)
    assert all(is_nice(i, inst) for i in range(50))
    with pytest.raises(IndexError):
        is_nice(50, inst)


def test_is_nice_detects_reordered_draw():
    inst = sample_geometric_formula(100, 20, 2, G2, 0.0, None, seed=3)
    lits = inst.formula.literals.copy()
    lits[0] = lits[0][::-1]  # swap draw order of the first clause
    from geoksat.generate import GeometricInstance
    broken = GeometricInstance(
        formula=formula_from_clauses(100, 2, lits),
        clause_positions=inst.clause_positions, sites=inst.sites,
        g=inst.g, T=inst.T)
    assert not is_nice(0, broken)
    assert is_nice(1, broken)
