"""The three seeded pipelines and the oracle checks on their outputs.

Each workload drives the public CLI in-process (``geoksat.cli.main``) and,
where the pipeline continues in library code, the library functions, in
one thread, one call after another.  ``run`` is the timed section; the
digest and every check run outside it.

All module functions are looked up through their module at call time, so
the wrappers the tracer installs are the ones called.
"""

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geoksat import cli, dimacs, structure
from geoksat.experiments import ReportRecord
from geoksat.geometry import weighted_distance
from geoksat.structure import brute_force_sat
from geoksat.voronoi import k_nearest_sites
from scipy.spatial import cKDTree

# evenly spaced clauses / witnesses that the brute-force oracles re-rank
ORACLE_SAMPLE = 32


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def digest(artifacts):
    """sha256 over (name, bytes) pairs in order."""
    h = hashlib.sha256()
    for name, data in artifacts:
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


def _canonical_records(path):
    lines = path.read_text().splitlines()
    recs = [ReportRecord.from_json_line(line).canonical() for line in lines]
    return json.dumps(recs, sort_keys=True).encode()


def _read_cnf(path):
    """(n, literals) by an independent tokenizer: clauses end at 0."""
    n = None
    body = []
    for line in path.read_text().splitlines():
        if line.startswith("c"):
            continue
        if line.startswith("p"):
            n = int(line.split()[2])
            continue
        body.append(line)
    tokens = np.array(" ".join(body).split(), dtype=np.int64)
    ends = np.flatnonzero(tokens == 0)
    width = int(ends[0]) if len(ends) else 0
    lits = tokens.reshape(len(ends), width + 1)
    if not np.all(lits[:, -1] == 0):
        raise ValueError(f"{path.name}: clauses of unequal width")
    return n, lits[:, :-1]


def _truth_table_unsat(clauses):
    variables = sorted({abs(int(l)) for cl in clauses for l in cl})
    for bits in itertools.product((False, True), repeat=len(variables)):
        value = dict(zip(variables, bits))
        if all(any(value[abs(int(l))] == (l > 0) for l in cl) for cl in clauses):
            return False
    return True


def _check_core(literals, k, cert_path, frag_path):
    """A certificate names 2^k clauses of ``literals`` on one variable set
    with all 2^k sign patterns, and the clauses are UNSAT."""
    cert = json.loads(cert_path.read_text())
    idx = cert["clause_indices"]
    clauses = literals[idx]
    _, frag = _read_cnf(frag_path)
    var_sets = {tuple(sorted(abs(int(l)) for l in cl)) for cl in clauses}
    patterns = {tuple(int(l) < 0 for l in sorted(cl, key=abs)) for cl in clauses}
    problems = []
    if len(idx) != 1 << k:
        problems.append(f"{len(idx)} clauses, expected {1 << k}")
    if var_sets != {tuple(cert["variables"])}:
        problems.append(f"variable sets {sorted(var_sets)} != {cert['variables']}")
    if len(patterns) != 1 << k:
        problems.append(f"{len(patterns)} distinct sign patterns")
    if not np.array_equal(frag, clauses):
        problems.append("fragment differs from the instance's clauses")
    if brute_force_sat(clauses).satisfiable or not _truth_table_unsat(clauses):
        problems.append("core is satisfiable")
    return not problems, "; ".join(problems)


def _no_saturated_set(literals, k):
    """Independent check of the core finder's NONE answer."""
    seen = {}
    for cl in literals.tolist():
        key = tuple(sorted(abs(l) for l in cl))
        pat = tuple(l < 0 for l in sorted(cl, key=abs))
        seen.setdefault(key, set()).add(pat)
    full = [key for key, pats in seen.items() if len(pats) == 1 << k]
    return not full, f"saturated sets {full[:3]}" if full else ""


def _spaced(count, limit=ORACLE_SAMPLE):
    return sorted(set(np.linspace(0, count - 1, min(count, limit)).astype(int).tolist()))


def _brute_nearest(point, sites, g, k):
    """k sites of smallest weighted torus distance, ties by index."""
    dist = [weighted_distance(i, point, sites, g) for i in range(sites.n)]
    return sorted(range(sites.n), key=lambda i: (dist[i], i))[:k]


def _emitted(formula):
    buf = io.StringIO()
    dimacs.emit_dimacs(formula, buf)
    buf.seek(0)
    return buf


@dataclass
class Plan:
    seed: int
    out: Path  # the pipeline run's output directory


class PowerlawCLI:
    """generate -> core --input -> parse -> incidence graph -> expansion."""

    name = "powerlaw_cli"
    default_seed = 7
    rate, rate_name = "sampler", "clauses_per_s"
    n, m, k, beta = 10_000, 42_000, 3, 2.5
    r, c, trials = 8, 0.5, 10_000

    def run(self, plan):
        cnf = plan.out / "instance.cnf"
        _cli(["generate", "--model", "powerlaw", "-n", self.n, "-m", self.m,
              "-k", self.k, "--beta", self.beta, "--seed", plan.seed, "-o", cnf])
        core_rc = _cli(["core", "--input", cnf, "-o", plan.out / "core.json",
                        "--fragment-out", plan.out / "core.cnf"])
        formula, _ = dimacs.parse_dimacs(str(cnf))
        graph = structure.incidence_graph(formula)
        witness = structure.check_expansion_sampled(graph, self.r, self.c,
                                                    self.trials, plan.seed)
        return {"core_rc": core_rc, "formula": formula, "graph": graph,
                "witness": witness}

    def artifacts(self, plan, res):
        out = [("instance.cnf", (plan.out / "instance.cnf").read_bytes()),
               ("core_rc", str(res["core_rc"]).encode())]
        if res["core_rc"] == 0:
            out += [(name, (plan.out / name).read_bytes())
                    for name in ("core.json", "core.cnf")]
        w = res["witness"]
        out.append(("expansion", json.dumps(
            None if w is None else [list(w.clause_indices), w.neighborhood_size]).encode()))
        return out

    def checks(self, plan, res, tracer):
        (sampled,) = tracer.results["sampled"]
        n, lits = _read_cnf(plan.out / "instance.cnf")
        parsed = res["formula"]
        again, _ = dimacs.parse_dimacs(_emitted(parsed))
        yield ("dimacs_roundtrip",
               n == sampled.n and np.array_equal(lits, sampled.literals)
               and np.array_equal(parsed.literals, sampled.literals)
               and np.array_equal(again.literals, sampled.literals),
               "emitted, parsed and re-emitted literals differ")
        if res["core_rc"] == 0:
            ok, why = _check_core(sampled.literals, self.k,
                                  plan.out / "core.json", plan.out / "core.cnf")
        else:
            ok, why = _no_saturated_set(sampled.literals, self.k)
        yield ("core", ok, why)
        graph = res["graph"]
        want = np.sort(np.abs(sampled.literals), axis=1)
        rows = _spaced(sampled.m, 4 * ORACLE_SAMPLE)
        yield ("incidence_graph",
               graph.m == sampled.m
               and all(graph.clause_vars[c] == tuple(want[c].tolist()) and
                       all(c in graph.var_clauses[v] for v in want[c].tolist())
                       for c in rows),
               "clause/variable adjacency differs from the formula")
        w = res["witness"]
        if w is not None:
            nb = {int(v) for c in w.clause_indices for v in want[c]}
            yield ("expansion_witness",
                   len(w.clause_indices) <= self.r and len(nb) == w.neighborhood_size
                   and len(nb) < (1 + self.c) * len(w.clause_indices),
                   f"witness {w} does not violate expansion")


class GeometricCore:
    """core at T = 0 (pigeonhole m), generate at T = 0.5, NICE_FRACTION."""

    name = "geometric_core"
    default_seed = 7
    rate, rate_name = "sampler", "clauses_per_s"
    n, k_core = 2000, 2
    m_core = (1 << k_core) * 2 * k_core * (n - k_core) + 1  # pigeonhole bound
    k, delta, temperature, beta, audit = 3, 4, 0.5, 2.5, 4000

    def run(self, plan):
        o, s = plan.out, plan.seed
        core_rc = _cli(["core", "--model", "geometric", "-n", self.n,
                        "-m", self.m_core, "-k", self.k_core, "-T", 0, "--seed", s,
                        "-o", o / "core.json", "--fragment-out", o / "core.cnf"])
        _cli(["generate", "--model", "geometric", "-n", self.n, "--delta", self.delta,
              "-k", self.k, "-T", self.temperature, "--beta", self.beta,
              "--seed", s, "-o", o / "geo.cnf"])
        _cli(["experiment", "--kind", "NICE_FRACTION", "--n-values", self.n,
              "--seeds", s, "-k", self.k, "--d", 2, "--p-norm", 2,
              "-T", self.temperature, "--delta", self.audit / self.n,
              "--audit", self.audit, "--weights", "powerlaw", "--beta", self.beta,
              "-o", o / "nice.jsonl"])
        return {"core_rc": core_rc}

    def artifacts(self, plan, res):
        return [(name, (plan.out / name).read_bytes())
                for name in ("core.json", "core.cnf", "geo.cnf")] + [
            ("nice", _canonical_records(plan.out / "nice.jsonl"))]

    def checks(self, plan, res, tracer):
        threshold, race = sorted(tracer.results["sampled"], key=lambda i: i.T)
        f = threshold.formula
        core_idx = []
        if res["core_rc"] != 0:
            yield ("core", False, "no core at the pigeonhole clause count")
        else:
            yield ("core", *_check_core(f.literals, self.k_core,
                                        plan.out / "core.json", plan.out / "core.cnf"))
            core_idx = json.loads((plan.out / "core.json").read_text())["clause_indices"]
        bad = [c for c in sorted(set(_spaced(f.m) + core_idx))
               if _brute_nearest(threshold.clause_positions[c], threshold.sites,
                                 threshold.g, f.k)
               != (np.abs(f.literals[c]) - 1).tolist()]
        yield ("t0_ranking", not bad, f"clauses {bad[:5]} differ from brute force")
        n, lits = _read_cnf(plan.out / "geo.cnf")
        parsed, _ = dimacs.parse_dimacs(str(plan.out / "geo.cnf"))
        yield ("dimacs_roundtrip",
               n == race.formula.n and np.array_equal(lits, race.formula.literals)
               and np.array_equal(parsed.literals, race.formula.literals),
               "emitted and parsed literals differ from the sampled instance")
        (rec,) = [json.loads(line) for line in
                  (plan.out / "nice.jsonl").read_text().splitlines()]
        got = rec["measured"]
        yield ("nice_record",
               got["audited"] == min(got["m"], self.audit)
               and 0 <= got["nice"] <= got["audited"]
               and got["fraction"] == got["nice"] / got["audited"],
               f"inconsistent record {got}")


class VoronoiRegions:
    """voronoi-count on the tree path, one weighted REGION_SCALING point."""

    name = "voronoi_regions"
    default_seed = 7
    rate, rate_name = "mc", "mc_queries_per_s"
    n_tree, k_tree, samples_tree = 2000, 3, 400_000
    n_scan, k_scan, samples_scan, beta = 500, 2, 50_000, 2.5

    def run(self, plan):
        o, s = plan.out, plan.seed
        _cli(["voronoi-count", "-n", self.n_tree, "-k", self.k_tree,
              "--samples", self.samples_tree, "--seed", s, "-o", o / "vc.json"])
        _cli(["experiment", "--kind", "REGION_SCALING", "--n-values", self.n_scan,
              "--seeds", s, "-k", self.k_scan, "--d", 2, "--p-norm", 2,
              "--samples", self.samples_scan, "--weights", "powerlaw",
              "--beta", self.beta, "-o", o / "regions.jsonl"])
        return {}

    def artifacts(self, plan, res):
        return [("vc.json", (plan.out / "vc.json").read_bytes()),
                ("regions", _canonical_records(plan.out / "regions.jsonl"))]

    def checks(self, plan, res, tracer):
        (vc_sites, vc_g, vc), (rs_sites, rs_g, rs) = tracer.results["mc"]
        for label, sites, g, result in (("tree", vc_sites, vc_g, vc),
                                        ("scan", rs_sites, rs_g, rs)):
            keys = sorted(result.witnesses)
            tree = (cKDTree(sites.positions, boxsize=1.0 if g.wrap else None)
                    if sites.unweighted else None)
            bad = []
            for j in _spaced(len(keys)):
                key, point = keys[j], result.witnesses[keys[j]]
                brute = tuple(sorted(_brute_nearest(point, sites, g, result.k)))
                scan, _ = k_nearest_sites(point, sites, result.k, g)
                found = {brute, scan}
                if tree is not None:
                    _, idx = tree.query(point, k=result.k,
                                        p=np.inf if g.is_max_norm else int(g.p_norm))
                    found.add(tuple(sorted(int(i) for i in np.atleast_1d(idx))))
                if found != {key}:
                    bad.append(key)
            yield (f"witness_keys_{label}", not bad,
                   f"witnesses of {bad[:3]} disagree across tree/scan/brute force")
            marks = [result.counts_at[c] for c in sorted(result.counts_at)]
            yield (f"counts_{label}",
                   marks == sorted(marks) and all(v <= result.count for v in marks)
                   and result.count == len(result.keys) <= result.samples,
                   f"counts_at {result.counts_at}, count {result.count}")
        record = json.loads((plan.out / "vc.json").read_text())
        (region,) = [json.loads(line) for line in
                     (plan.out / "regions.jsonl").read_text().splitlines()]
        half = self.samples_tree // 2
        yield ("records",
               record["count"] == vc.count and record["samples"] == vc.samples
               and record["count_half_budget"] == vc.counts_at.get(half, 0)
               and region["measured"]["count"] == rs.count,
               "written records differ from the counts computed")


WORKLOADS = {w.name: w for w in (PowerlawCLI(), GeometricCore(), VoronoiRegions())}
