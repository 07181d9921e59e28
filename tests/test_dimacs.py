import io
import json

import numpy as np
import pytest

from geoksat.dimacs import (core_certificate, core_dimacs_fragment,
                            emit_dimacs, load_sites, parse_dimacs, save_sites,
                            write_core_certificate)
from geoksat.generate import (Formula, formula_from_clauses,
                              sample_geometric_formula,
                              sample_nonuniform_formula)
from geoksat.geometry import GeometrySpec
from geoksat.structure import find_unsat_core
from geoksat.voronoi import random_sites
from geoksat.weights import power_law_weights

G2 = GeometrySpec(d=2, p_norm=2)


def test_dimacs_format():
    f = formula_from_clauses(2, 2, [[1, -2]])
    buf = io.StringIO()
    emit_dimacs(f, buf)
    assert buf.getvalue() == "p cnf 2 1\n1 -2 0\n"


def test_dimacs_empty_formula():
    f = Formula(n=3, k=2, literals=np.empty((0, 2), dtype=np.int64))
    buf = io.StringIO()
    emit_dimacs(f, buf)
    assert buf.getvalue() == "p cnf 3 0\n"


def test_dimacs_comments():
    f = formula_from_clauses(2, 1, [[1]])
    buf = io.StringIO()
    emit_dimacs(f, buf, {"model": "powerlaw", "seed": 7})
    text = buf.getvalue()
    assert text.startswith("c model = powerlaw\nc seed = 7\np cnf 2 1\n")
    parsed, comments = parse_dimacs(io.StringIO(text))
    assert comments == ["model = powerlaw", "seed = 7"]


def test_round_trip_identity_random_formulas():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, min(n, 5) + 1))
        m = int(rng.integers(1, 60))
        f = sample_nonuniform_formula(n, m, k, power_law_weights(n, 3.0),
                                      int(rng.integers(1 << 30)))
        buf = io.StringIO()
        emit_dimacs(f, buf, {"trial": trial})
        back, _ = parse_dimacs(io.StringIO(buf.getvalue()))
        assert back.n == f.n and back.k == f.k
        assert np.array_equal(back.literals, f.literals)
    for trial in range(50):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(1, 4))
        inst = sample_geometric_formula(n, int(rng.integers(1, 50)), k, G2,
                                        float(rng.random()), None,
                                        int(rng.integers(1 << 30)))
        buf = io.StringIO()
        emit_dimacs(inst.formula, buf)
        back, _ = parse_dimacs(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.literals, inst.formula.literals)
    # arbitrary literal matrices; m = 4096, 4097 and 8193 cross the row
    # blocks of emit and parse
    for n, k, m in ((1, 1, 1), (7, 3, 4096), (10**9, 5, 4097), (40, 2, 8193)):
        # column j draws from its own range, so no clause repeats a variable
        vs = rng.integers(0, n // k, (m, k)) + np.arange(k) * (n // k) + 1
        vs = rng.permuted(vs, axis=1)
        f = formula_from_clauses(n, k, np.where(rng.random((m, k)) < 0.5, -vs, vs))
        buf = io.StringIO()
        emit_dimacs(f, buf)
        back, _ = parse_dimacs(io.StringIO(buf.getvalue()))
        assert (back.n, back.k) == (n, k)
        assert np.array_equal(back.literals, f.literals)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_dimacs(io.StringIO("1 2 0\n"))  # missing header
    with pytest.raises(ValueError):
        parse_dimacs(io.StringIO("p cnf 3 1\n1 2\n"))  # missing terminator
    with pytest.raises(ValueError):
        parse_dimacs(io.StringIO("p cnf 3 2\n1 2 0\n"))  # count mismatch
    with pytest.raises(ValueError):
        parse_dimacs(io.StringIO("p cnf 3 2\n1 2 0\n1 2 3 0\n"))  # mixed width


def test_parse_clause_spanning_lines():
    f, _ = parse_dimacs(io.StringIO("p cnf 4 2\n1 -2\n3 0 -4\n2\n-1 0\n"))
    assert f.literals.tolist() == [[1, -2, 3], [-4, 2, -1]]


def test_parse_several_clauses_on_one_line():
    f, _ = parse_dimacs(io.StringIO("p cnf 3 3\n1 -2 0 2 3 0\n-3 1 0\n"))
    assert f.literals.tolist() == [[1, -2], [2, 3], [-3, 1]]


def test_parse_satlib_percent_trailer():
    text = "c SATLIB style\np cnf 3 2\n 1 -3 0\n 2 3 0\n%\n0\n\n"
    f, comments = parse_dimacs(io.StringIO(text))
    assert comments == ["SATLIB style"]
    assert f.n == 3 and f.literals.tolist() == [[1, -3], [2, 3]]


def test_emit_bytes_match_fixture():
    f = formula_from_clauses(12, 3, [[1, -12, 7], [-10, 2, 11], [-3, -4, -5]])
    buf = io.StringIO()
    emit_dimacs(f, buf, {"model": "powerlaw", "beta": 2.5})
    assert buf.getvalue() == ("c model = powerlaw\n"
                              "c beta = 2.5\n"
                              "p cnf 12 3\n"
                              "1 -12 7 0\n"
                              "-10 2 11 0\n"
                              "-3 -4 -5 0\n")


def test_core_certificate_and_fragment(tmp_path):
    clauses = [[(v if (pat >> i) & 1 == 0 else -v) for i, v in enumerate((1, 2))]
               for pat in range(4)]
    f = formula_from_clauses(2, 2, clauses)
    core = find_unsat_core(f)
    cert = core_certificate(core)
    assert cert["variables"] == [1, 2]
    assert sorted(cert["sign_patterns"]) == [0, 1, 2, 3]
    frag = core_dimacs_fragment(f, core)
    assert "p cnf 2 4" in frag
    jpath = tmp_path / "core.json"
    fpath = tmp_path / "core.cnf"
    write_core_certificate(f, core, jpath, fpath)
    assert json.loads(jpath.read_text())["variables"] == [1, 2]
    back, _ = parse_dimacs(fpath)
    assert back.m == 4


def test_sites_json_round_trip(tmp_path):
    sites = random_sites(20, G2, 3, weights=np.linspace(1, 4, 20))
    path = tmp_path / "sites.json"
    save_sites(sites, path)
    back = load_sites(path)
    assert np.array_equal(back.positions, sites.positions)
    assert np.array_equal(back.weights, sites.weights)
