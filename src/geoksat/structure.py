"""Clause-variable structure analysis.

Covers the bipartite incidence graph, exact and sampled expansion checks,
the two sufficient conditions for large resolution width, the sort-based
unsatisfiable-core finder, a brute-force SAT oracle for small variable
counts, and the niceness test for geometric clauses.

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

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .voronoi import knearest

DEFAULT_ENUM_CAP = 10_000_000
_CHUNK = 1 << 13  # subsets per enumeration chunk; bounds the working arrays


class EnumerationBudgetError(RuntimeError):
    """Raised when exhaustive subset enumeration would exceed the cap."""


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite clause-variable adjacency; signs are discarded.

    ``clause_vars[c]`` is the sorted variable tuple of clause c (1-based
    variables); ``var_clauses[v]`` the sorted tuple of clauses containing
    v.  Immutable after construction; checkers only read it.
    """

    clause_vars: tuple
    var_clauses: dict

    @property
    def m(self):
        return len(self.clause_vars)

    def neighborhood(self, clause_subset):
        out = set()
        for c in clause_subset:
            out.update(self.clause_vars[c])
        return out


def incidence_graph(f):
    clause_vars = tuple(tuple(int(v) for v in row)
                        for row in f.sorted_variable_sets())
    var_clauses = {}
    for c, vs in enumerate(clause_vars):
        for v in vs:
            var_clauses.setdefault(v, []).append(c)
    var_clauses = {v: tuple(cs) for v, cs in var_clauses.items()}
    return IncidenceGraph(clause_vars=clause_vars, var_clauses=var_clauses)


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
    flat = np.array([v for vs in gph.clause_vars for v in vs], dtype=np.int64)
    universe, bit = np.unique(flat, return_inverse=True)
    rows = np.repeat(np.arange(gph.m), [len(vs) for vs in gph.clause_vars])
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
    the walk biases toward overlapping clauses).  Any returned witness is
    sound; ``None`` (PASS_PROBABLE) carries no guarantee.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    m = gph.m
    for _ in range(trials):
        size = int(rng.integers(1, r + 1))
        current = [int(rng.integers(m))]
        chosen = set(current)
        nbhd = set(gph.clause_vars[current[0]])
        attempts = 4 * size
        while len(current) < size and attempts > 0:
            attempts -= 1
            base = current[int(rng.integers(len(current)))]
            vs = gph.clause_vars[base]
            v = vs[int(rng.integers(len(vs)))]
            cands = gph.var_clauses[v]
            nxt = cands[int(rng.integers(len(cands)))]
            if nxt in chosen:
                continue
            chosen.add(nxt)
            current.append(nxt)
            nbhd.update(gph.clause_vars[nxt])
            # violations can appear at any intermediate size
            if len(nbhd) < (1.0 + c) * len(current):
                return ExpansionWitness(clause_indices=tuple(sorted(current)),
                                        neighborhood_size=len(nbhd),
                                        threshold=(1.0 + c) * len(current))
    return None


def unique_variable_boundary(gph, clause_subset):
    """Variables contained in exactly one clause of the subset."""
    subset = list(clause_subset)
    if not subset:
        raise ValueError("clause subset must be nonempty")
    for c in subset:
        if not 0 <= c < gph.m:
            raise IndexError(f"clause index {c} out of range")
    counts = Counter()
    for c in subset:
        counts.update(gph.clause_vars[c])
    return tuple(sorted(v for v, cnt in counts.items() if cnt == 1))


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


def _sign_patterns(f):
    """Per-clause sign bitmask aligned to the sorted variable order."""
    v = np.abs(f.literals)
    order = np.argsort(v, axis=1, kind="stable")
    neg_sorted = np.take_along_axis(f.literals < 0, order, axis=1)
    return neg_sorted @ (1 << np.arange(f.k, dtype=np.int64))


def find_unsat_core(f):
    """Find a pigeonhole core by sorting clauses by variable set.

    Clauses are sorted lexicographically by their sorted variable sets
    (O(m log m)); the first set carrying all 2^k sign patterns yields the
    core, which is confirmed UNSAT by brute force.  Returns None when no
    set saturates.
    """
    if f.m == 0:
        return None
    var_sets = f.sorted_variable_sets()
    patterns = _sign_patterns(f)
    order = np.lexsort(var_sets.T[::-1])
    sorted_sets = var_sets[order]
    boundary = np.any(sorted_sets[1:] != sorted_sets[:-1], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(boundary) + 1, [f.m]))

    full = 1 << f.k
    for a, b in zip(starts[:-1], starts[1:]):
        if b - a < full:
            continue
        run = np.sort(order[a:b])  # ascending clause index within the set
        seen = {}
        for c in run:
            seen.setdefault(int(patterns[c]), int(c))
            if len(seen) == full:
                break
        if len(seen) == full:
            pats = tuple(sorted(seen))
            clauses = tuple(seen[p] for p in pats)
            core = UnsatCore(
                variables=tuple(int(v) for v in sorted_sets[a]),
                clause_indices=clauses,
                patterns=pats)
            check = brute_force_sat([f.literals[c] for c in clauses])
            if check.satisfiable:
                raise RuntimeError("saturated sign-pattern set was satisfiable")
            return core
    return None


def is_nice(clause_index, inst):
    """True iff the clause's draw sequence equals the connection-weight
    ranking of all variables.

    The j-th drawn variable must be the j-th ranked variable by X(c, .),
    equivalently the j-th smallest weighted distance (the two rankings
    coincide under the strictly monotone map between them); rank ties
    break by smaller index, matching the generator.  For T = 0 instances
    this holds by construction; one clause is too few rows for the tree,
    so ``knearest`` scans and the check verifies the generator's tree.
    """
    f = inst.formula
    if not 0 <= clause_index < f.m:
        raise IndexError(f"clause index {clause_index} out of range")
    ranked = knearest(inst.clause_positions[clause_index], inst.sites, f.k,
                      inst.g)[0]
    drawn = np.abs(f.literals[clause_index]) - 1
    return bool(np.array_equal(drawn, ranked))
