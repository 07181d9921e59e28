"""Clause-variable structure analysis.

Covers the bipartite incidence graph, exact and sampled expansion checks,
the two sufficient conditions for large resolution width, the sort-based
unsatisfiable-core finder, a brute-force SAT oracle for small variable
counts, and the niceness test for geometric clauses.

The incidence graph is an (m, k) variable matrix plus a CSR index from
variable to clauses; the sampled expansion walk advances a block of
trials in lockstep over them, one array row per trial.

Resolution width itself is never computed: only the two checkable
sufficient conditions are exposed, since their failure witnesses are what
the experiments need.

The exact expansion and width checks share one subset enumerator
(``_subset_chunks``).  It works for any variable count: each clause is a
row of uint64 words, 64 distinct variables a word.  It extends the
subsets of each size to the next size and hands them to the checker in
chunks of at most ``_CHUNK``, so memory stays bounded whatever the size of
the last level.  It also owns the ``cap`` check, which raises
EnumerationBudgetError before any subset is built.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .voronoi import knearest, set_codes

DEFAULT_ENUM_CAP = 10_000_000
_CHUNK = 1 << 13  # subsets per enumeration chunk; bounds the working arrays
_TRIAL_BLOCK = 2048  # sampled-expansion trials walked in lockstep


class EnumerationBudgetError(RuntimeError):
    """Raised when exhaustive subset enumeration would exceed the cap."""


@dataclass(frozen=True, eq=False)
class IncidenceGraph:
    """Bipartite clause-variable adjacency; signs are discarded.

    ``variables`` is the (m, k) matrix of sorted clause variable sets
    (1-based); the clauses of variable v, ascending, are
    ``indices[indptr[v]:indptr[v + 1]]``.  ``clause_vars`` holds each
    clause's variables as a tuple, and ``var_clauses`` maps each variable
    of some clause, ascending, to the tuple of its clauses; both are built
    on first use.
    """

    variables: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def m(self):
        return len(self.variables)

    @functools.cached_property
    def clause_vars(self):
        return tuple(map(tuple, self.variables.tolist()))

    @functools.cached_property
    def var_clauses(self):
        at, clauses = self.indptr.tolist(), self.indices.tolist()
        return {v: tuple(clauses[a:b])
                for v, (a, b) in enumerate(zip(at, at[1:])) if a < b}

    def neighborhood(self, clause_subset):
        return set(self.variables[list(clause_subset)].ravel().tolist())


def incidence_graph(f):
    variables = f.sorted_variable_sets()
    flat = variables.ravel()
    indptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=f.n + 1))))
    # a clause repeats no variable, so the keys v * m + c are distinct and
    # one sort lists each variable's clauses, ascending
    keys = flat * f.m + np.repeat(np.arange(f.m), f.k)
    return IncidenceGraph(variables, indptr, np.sort(keys) % max(f.m, 1))


@dataclass(frozen=True)
class ExpansionWitness:
    """A clause subset violating |N(C')| >= (1 + c) |C'|."""

    clause_indices: tuple
    neighborhood_size: int
    threshold: float


@dataclass(frozen=True)
class WidthConditionWitness:
    """A clause subset violating one of the two width conditions."""

    condition: int  # 1: |N(C')| >= |C'|; 2: unique variables >= eps |C'|
    clause_indices: tuple
    value: int
    threshold: float


def _clause_masks(gph):
    """(m, words) uint64 variable-set masks, 64 distinct variables a word."""
    universe, bit = np.unique(gph.variables.ravel(), return_inverse=True)
    rows = np.repeat(np.arange(gph.m), gph.variables.shape[1])
    masks = np.zeros((gph.m, max(1, -(-len(universe) // 64))), dtype=np.uint64)
    np.bitwise_or.at(masks, (rows, bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
    return masks


def _subset_chunks(gph, max_size, cap):
    """Yield ``(size, nb, uq, subset)`` over every clause subset of size
    1..max_size: sizes ascending, lexicographic within a size, at most
    ``_CHUNK`` subsets a chunk.

    ``nb[i]`` and ``uq[i]`` are the neighbourhood size and the number of
    variables in exactly one clause of the chunk's i-th subset;
    ``subset(i)`` rebuilds it as a sorted clause tuple.  Each level is
    built from the one below it, so only levels below ``max_size`` are
    stored; the last exists one chunk at a time.  Raises
    EnumerationBudgetError before the first chunk when the subset count
    exceeds ``cap``.
    """
    m = gph.m
    max_size = min(max_size, m)
    budget = sum(math.comb(m, s) for s in range(1, max_size + 1))
    if budget > cap:
        raise EnumerationBudgetError(f"{budget} subsets exceed cap {cap}")
    masks = _clause_masks(gph)
    # the level below size 1 is the empty subset, whose last clause is -1
    or_prev = once_prev = np.zeros((1, masks.shape[1]), dtype=np.uint64)
    last_prev = np.array([-1])
    items, parents = [], []  # per stored level: last clause, parent row
    for size in range(1, max_size + 1):
        starts = np.concatenate(([0], np.cumsum(m - 1 - last_prev)))
        kept = []
        for a in range(0, starts[-1], _CHUNK):
            row = np.arange(a, min(a + _CHUNK, starts[-1]))
            parent = np.searchsorted(starts, row, side="right") - 1
            item = last_prev[parent] + 1 + row - starts[parent]
            mk, po = masks[item], or_prev[parent]
            or_ = po | mk
            once = (once_prev[parent] & ~mk) | (mk & ~po)

            def subset(i, parent=parent, item=item, size=size):
                out, p = [int(item[i])], int(parent[i])
                for lvl in range(size - 2, -1, -1):
                    out.append(int(items[lvl][p]))
                    p = int(parents[lvl][p])
                return tuple(sorted(out))

            yield (size, np.bitwise_count(or_).sum(axis=1, dtype=np.int64),
                   np.bitwise_count(once).sum(axis=1, dtype=np.int64), subset)
            if size < max_size:
                kept.append((parent, item, or_, once))
        if kept:
            parent, last_prev, or_prev, once_prev = map(np.concatenate, zip(*kept))
            parents.append(parent)
            items.append(last_prev)


def check_expansion_exact(gph, r, c, cap=DEFAULT_ENUM_CAP):
    """PASS (None) iff every clause subset of size <= r expands by (1 + c).

    On failure returns the minimal-size, lexicographically smallest
    ExpansionWitness.  Exact for any variable count; the subsets are
    enumerated level by level in bounded chunks.  Raises
    EnumerationBudgetError, before any work, when the number of subsets
    exceeds ``cap`` (use check_expansion_sampled instead).
    """
    for size, nb, _, subset in _subset_chunks(gph, r, cap):
        bad = np.flatnonzero(nb < (1.0 + c) * size)
        if len(bad):
            return ExpansionWitness(clause_indices=subset(bad[0]),
                                    neighborhood_size=int(nb[bad[0]]),
                                    threshold=(1.0 + c) * size)
    return None


def check_expansion_sampled(gph, r, c, trials, seed):
    """One-sided randomized expansion check.

    Samples clause subsets grown by a random walk over variable
    co-occurrence (uniform subsets essentially never violate expansion, so
    the walk biases toward overlapping clauses).  A trial draws a size in
    1..r and a start clause, then makes at most 4 * size attempts: a chosen
    clause, a variable of it, a clause of that variable (all uniform), kept
    if new; its start clause alone violates when k < 1 + c.  ``_TRIAL_BLOCK``
    trials at a time walk in lockstep, one array row each; the first
    violation of the lowest-index violating trial is the witness.  Any
    witness is sound; ``None`` (PASS_PROBABLE) carries no guarantee.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if gph.m == 0 or r < 1:
        return None  # no clause subset to violate expansion, as in the exact check
    rng = np.random.default_rng(seed)
    k, bound = gph.variables.shape[1], 1.0 + c
    for done in range(0, trials, _TRIAL_BLOCK):
        rows = min(_TRIAL_BLOCK, trials - done)
        size = rng.integers(1, r + 1, rows)
        chosen = np.full((rows, r), -1)  # clause ids; -1 is free
        chosen[:, 0] = rng.integers(gph.m, size=rows)
        members = np.zeros((rows, r * k), dtype=np.int64)  # their variables
        members[:, :k] = gph.variables[chosen[:, 0]]
        count, width = np.ones(rows, dtype=np.int64), np.full(rows, k)
        hit = np.full(rows, k < bound)  # the start clause alone may violate
        for step in range(4 * r):
            live = np.flatnonzero((count < size) & (4 * size > step) & ~hit)
            if not len(live):
                break
            base = chosen[live, rng.integers(count[live])]
            v = gph.variables[base, rng.integers(k, size=len(live))]
            first = gph.indptr[v]
            nxt = gph.indices[first + rng.integers(gph.indptr[v + 1] - first)]
            new = (chosen[live] != nxt[:, None]).all(axis=1)
            live, nxt, slot = live[new], nxt[new], count[live[new]]
            add = gph.variables[nxt]
            fresh = (members[live][:, :, None] != add[:, None]).all(axis=1)  # not yet members
            width[live] += fresh.sum(axis=1)
            chosen[live, slot] = nxt
            members[live[:, None], slot[:, None] * k + np.arange(k)] = add
            count[live] = slot + 1
            # violations can appear at any intermediate size
            hit[live] = width[live] < bound * count[live]
        if hit.any():
            t = np.argmax(hit)
            return ExpansionWitness(clause_indices=tuple(sorted(chosen[t, :count[t]].tolist())),
                                    neighborhood_size=int(width[t]),
                                    threshold=bound * int(count[t]))
    return None


def unique_variable_boundary(gph, clause_subset):
    """Variables contained in exactly one clause of the subset."""
    subset = np.asarray(list(clause_subset), dtype=np.int64)
    if not len(subset):
        raise ValueError("clause subset must be nonempty")
    if subset.min() < 0 or subset.max() >= gph.m:
        raise IndexError(f"clause index out of range [0, {gph.m}): {subset.tolist()}")
    variables, counts = np.unique(gph.variables[subset], return_counts=True)
    return tuple(variables[counts == 1].tolist())


def resolution_width_conditions(f, w, eps, cap=DEFAULT_ENUM_CAP):
    """Check the two subset conditions sufficient for width Omega(w).

    (1) every subset with |C'| <= w contains at least |C'| variables;
    (2) every subset with w/3 <= |C'| <= 2w/3 has at least eps |C'|
    unique variables.  PASS is None; otherwise the minimal-size, lex
    smallest witness naming the violated condition (condition 1 when one
    subset violates both).  Exact for any variable count, by the same
    chunked enumeration and ``cap`` as check_expansion_exact.
    """
    gph = f if isinstance(f, IncidenceGraph) else incidence_graph(f)
    for size, nb, uq, subset in _subset_chunks(gph, w, cap):
        bad1 = np.flatnonzero(nb < size)
        in_range = 3 * size >= w and 3 * size <= 2 * w
        bad2 = np.flatnonzero(uq < eps * size) if in_range else bad1[:0]
        if len(bad1) and (not len(bad2) or bad1[0] <= bad2[0]):
            return WidthConditionWitness(condition=1, clause_indices=subset(bad1[0]),
                                         value=int(nb[bad1[0]]), threshold=float(size))
        if len(bad2):
            return WidthConditionWitness(condition=2, clause_indices=subset(bad2[0]),
                                         value=int(uq[bad2[0]]), threshold=eps * size)
    return None


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    assignment: dict | None


def brute_force_sat(clauses, max_vars=25):
    """Exhaustive truth-table SAT check over the distinct variables.

    ``clauses`` is an iterable of signed 1-based literal sequences.  SAT
    returns a model (dict variable -> bool); UNSAT is exhaustive.
    """
    clause_list = [tuple(int(l) for l in cl) for cl in clauses]
    variables = sorted({abs(l) for cl in clause_list for l in cl})
    if len(variables) > max_vars:
        raise ValueError(f"{len(variables)} variables exceed limit {max_vars}")
    if not clause_list:
        return SatResult(True, {})
    bit_of = {v: j for j, v in enumerate(variables)}

    nbits = len(variables)
    chunk = 1 << min(nbits, 16)
    for start in range(0, 1 << nbits, chunk):
        assign = np.arange(start, start + chunk, dtype=np.uint32)
        alive = np.ones(len(assign), dtype=bool)
        for cl in clause_list:
            sat = np.zeros(len(assign), dtype=bool)
            for lit in cl:
                bit = (assign >> bit_of[abs(lit)]) & 1
                sat |= (bit == 1) if lit > 0 else (bit == 0)
            alive &= sat
            if not alive.any():
                break
        if alive.any():
            model_bits = int(assign[np.flatnonzero(alive)[0]])
            return SatResult(True, {v: bool((model_bits >> bit_of[v]) & 1)
                                    for v in variables})
    return SatResult(False, None)


@dataclass(frozen=True)
class UnsatCore:
    """2^k clauses on one variable set carrying all 2^k sign patterns.

    ``patterns[j]`` is a bitmask over the sorted variable set (bit i set
    means the i-th smallest variable is negated) and belongs to clause
    ``clause_indices[j]``.
    """

    variables: tuple
    clause_indices: tuple
    patterns: tuple


def find_unsat_core(f):
    """Find a pigeonhole core by sorting clauses by variable set.

    Clauses are sorted by the codes of their sorted variable sets
    (``voronoi.set_codes``), then by sign pattern (O(m log m)); the first
    set carrying all 2^k sign patterns yields the core, the lowest-index
    clause of each pattern, which is confirmed UNSAT by brute force.
    Returns None when no set saturates.
    """
    if f.m == 0:
        return None
    v = np.abs(f.literals)
    var_sets = f.sorted_variable_sets()
    # bit i set: the i-th smallest variable of the clause is negated; a
    # literal's i counts the clause's variables below it (none repeats)
    rank = sum(v > v[:, [j]] for j in range(f.k))
    patterns = ((f.literals < 0) << rank).sum(axis=1)
    codes = set_codes(var_sets, f.n + 1)
    order = np.lexsort((patterns, codes))  # stable: index breaks ties
    pats = patterns[order]
    new_set = np.diff(codes[order], prepend=-1) != 0
    first = new_set | (np.diff(pats, prepend=-1) != 0)  # of its pattern
    group = np.cumsum(new_set) - 1
    full = np.flatnonzero(np.bincount(group[first]) == 1 << f.k)
    if not len(full):
        return None
    pick = first & (group == full[0])
    core = UnsatCore(variables=tuple(var_sets[order[pick][0]].tolist()),
                     clause_indices=tuple(order[pick].tolist()),
                     patterns=tuple(pats[pick].tolist()))
    if brute_force_sat(f.literals[order[pick]]).satisfiable:
        raise RuntimeError("saturated sign-pattern set was satisfiable")
    return core


def is_nice(clause_index, inst):
    """True iff the clause's draw sequence equals the connection-weight
    ranking of all variables.

    The j-th drawn variable must be the j-th ranked variable by X(c, .),
    equivalently the j-th smallest weighted distance (the two rankings
    coincide under the strictly monotone map between them); rank ties
    break by smaller index, matching the generator.  For T = 0 instances
    this holds by construction: the ranking is ``knearest``'s, the
    generator's own (the k nearest that the site set's cell table selects,
    ordered by (score, index)).
    """
    f = inst.formula
    if not 0 <= clause_index < f.m:
        raise IndexError(f"clause index {clause_index} out of range")
    ranked = knearest(inst.clause_positions[clause_index], inst.sites, f.k,
                      inst.g)[0]
    drawn = np.abs(f.literals[clause_index]) - 1
    return bool(np.array_equal(drawn, ranked))
