import hashlib
import io
import json

import numpy as np
import pytest

import geoksat.dimacs as dimacs
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


def test_parse_rejects_non_integer_tokens():
    for body in ("1 x 0", "1.5 2 0", "1 - 0", "- 1 0", "--1 0", "1-2 0", "1 2 0 c",
                 "1\u00a02 0", "99999999999999999999 0"):
        with pytest.raises(ValueError):
            parse_dimacs(io.StringIO(f"p cnf 3 1\n{body}\n"))


def test_parse_collects_comments_between_clauses():
    text = "c first\np cnf 3 2\n1 -2 0\n  c between\n-3 2\nc inside a clause\n0\n"
    f, comments = parse_dimacs(io.StringIO(text))
    assert comments == ["first", "between", "inside a clause"]
    assert f.literals.tolist() == [[1, -2], [-3, 2]]


def test_empty_formula_with_comments_round_trips():
    f = Formula(n=5, k=3, literals=np.empty((0, 3), dtype=np.int64))
    buf = io.StringIO()
    emit_dimacs(f, buf, {"model": "uniform", "seed": 3})
    back, comments = parse_dimacs(io.StringIO(buf.getvalue()))
    assert (back.n, back.m) == (5, 0)
    assert comments == ["model = uniform", "seed = 3"]
    again = io.StringIO()
    emit_dimacs(back, again, {"model": "uniform", "seed": 3})
    assert again.getvalue() == buf.getvalue() == "c model = uniform\nc seed = 3\np cnf 5 0\n"


def _fixed_matrix(n, k, m):
    rows = np.arange(m)[:, None]
    vs = (rows * 7919 + np.arange(k) * 31) % (n // k) + np.arange(k) * (n // k) + 1
    return np.where((rows + np.arange(k)) % 3 == 0, -vs, vs)


@pytest.mark.parametrize("n, k, m, sha256", [
    (1, 1, 1, "73ba78596392796dfa463142590bfa20f2817429fc0d5c22ef46024d8b995bff"),
    (7, 3, 4096, "8c8a4facf478c85f0b8526822c8069ce5fdcec4557cab60109596c92f8a9f031"),
    (10**9, 5, 4097, "5f3059f0790d002a6c6e89ce32f4b968ea2b8a30ef81da2668fe9957aad5d1f1"),
    (40, 2, 8193, "be730d5593b90b798a4e95a29d589f2431e6a8beaf4fc30158c2b92d2b45baed"),
])
def test_emit_bytes_across_row_blocks(n, k, m, sha256):
    # the digests are of the line-at-a-time emitter that the block
    # formatter replaced; the reference below is that emitter's line rule
    lits = _fixed_matrix(n, k, m)
    buf = io.StringIO()
    emit_dimacs(formula_from_clauses(n, k, lits), buf, {"rows": m})
    text = buf.getvalue()
    reference = f"c rows = {m}\np cnf {n} {m}\n" + "".join(
        " ".join(map(str, row)) + " 0\n" for row in lits.tolist())
    assert text == reference
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("block", [1, 2, 7])
def test_round_trip_across_small_blocks(monkeypatch, block):
    # tiny blocks put chunk edges inside every part of the body: spanning
    # clauses, several clauses a line, comments between clause lines
    monkeypatch.setattr(dimacs, "_BLOCK", block)
    lits = _fixed_matrix(300, 3, 200)
    buf = io.StringIO()
    emit_dimacs(formula_from_clauses(300, 3, lits), buf, {"block": block})
    back, comments = parse_dimacs(io.StringIO(buf.getvalue()))
    assert comments == [f"block = {block}"]
    assert np.array_equal(back.literals, lits)
    tokens = [str(t) for row in lits.tolist() for t in row + [0]]
    lines = ["p cnf 300 200"]
    for i in range(0, len(tokens), 5):
        lines += [" ".join(tokens[i:i + 5]), f"c after token {i + 5}"]
    back, comments = parse_dimacs(io.StringIO("\n".join(lines) + "\n%\nc ignored\n"))
    assert len(comments) == len(lines) // 2
    assert np.array_equal(back.literals, lits)


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
