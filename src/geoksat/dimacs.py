"""DIMACS CNF interchange plus JSON serialization of sites and cores.

The emitted format is the standard one: comment lines ``c key = value``
carrying model parameters, a header ``p cnf n m``, then one clause per
line as signed 1-based integers in draw order terminated by 0.  Parsing
back an emitted file reproduces the formula literal-for-literal.  The
parser reads the body as one token stream, so it also accepts clauses
that span lines, several clauses on a line and the SATLIB ``%`` trailer.
"""

import json

import numpy as np

from .generate import Formula
from .voronoi import WeightedSites


# rows (or lines) converted to Python objects at once: bounds the transient
# ints and token strings that bulk conversion creates
_BLOCK = 4096


def _clause_lines(literals):
    return [" ".join(map(str, row)) + " 0"
            for i in range(0, len(literals), _BLOCK)
            for row in literals[i:i + _BLOCK].tolist()]


def _int_tokens(lines):
    parts = [np.array(" ".join(lines[i:i + _BLOCK]).split(), dtype=np.int64)
             for i in range(0, len(lines), _BLOCK)]
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def emit_dimacs(f, destination, comments=None):
    """Write a formula as DIMACS CNF; ``comments`` is a mapping echoed as
    ``c key = value`` lines (model parameters, seed, ...)."""
    lines = [f"c {key} = {value}" for key, value in (comments or {}).items()]
    lines.append(f"p cnf {f.n} {f.m}")
    lines += _clause_lines(f.literals)
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def parse_dimacs(source):
    """Parse DIMACS CNF into (Formula, comment lines).

    Only width-uniform formulas are supported (every clause must have the
    same number of literals).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    comments = []
    n = m = None
    body = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("c"):
            comments.append(line[1:].strip())
        elif line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            n, m = int(parts[2]), int(parts[3])
        elif line.startswith("%"):
            break
        elif line:
            body.append(line)
    if n is None:
        raise ValueError("missing 'p cnf' header")
    tokens = _int_tokens(body)
    if len(tokens) and tokens[-1] != 0:
        raise ValueError("last clause is not terminated by 0")
    ends = np.flatnonzero(tokens == 0)
    if len(ends) != m:
        raise ValueError(f"header announces {m} clauses, found {len(ends)}")
    widths = np.unique(np.diff(ends, prepend=-1) - 1)
    if len(widths) > 1:
        raise ValueError(f"mixed clause widths {widths.tolist()} unsupported")
    k = int(widths[0]) if len(widths) else 0
    lits = tokens.reshape(m, k + 1)[:, :k].copy()
    return Formula(n=n, k=k, literals=lits), comments


def core_certificate(core):
    """JSON-ready certificate of an unsatisfiable core."""
    return {
        "variables": list(core.variables),
        "clause_indices": list(core.clause_indices),
        "sign_patterns": list(core.patterns),
    }


def core_dimacs_fragment(f, core):
    """The core's clauses as a standalone DIMACS fragment string."""
    lines = [f"c unsat core over variables {' '.join(map(str, core.variables))}",
             f"p cnf {f.n} {len(core.clause_indices)}"]
    lines += _clause_lines(f.literals[list(core.clause_indices)])
    return "\n".join(lines) + "\n"


def write_core_certificate(f, core, json_path, fragment_path=None):
    with open(json_path, "w") as fh:
        json.dump(core_certificate(core), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if fragment_path is not None:
        with open(fragment_path, "w") as fh:
            fh.write(core_dimacs_fragment(f, core))


def save_sites(sites, path):
    data = {"positions": sites.positions.tolist(),
            "weights": sites.weights.tolist()}
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_sites(path):
    with open(path) as fh:
        data = json.load(fh)
    return WeightedSites(np.asarray(data["positions"], dtype=float),
                         np.asarray(data["weights"], dtype=float))
