"""DIMACS CNF interchange plus JSON serialization of sites and cores.

The emitted format is the standard one: comment lines ``c key = value``
carrying model parameters, a header ``p cnf n m``, then one clause per
line as signed 1-based integers in draw order terminated by 0.  Parsing
back an emitted file reproduces the formula literal-for-literal.  The
parser reads the body as one token stream, so it also accepts clauses
that span lines, several clauses on a line and the SATLIB ``%`` trailer.
"""

import contextlib
import json
import re

import numpy as np

from .generate import Formula
from .voronoi import WeightedSites


# clause rows formatted at once, and about as many body lines (at 64
# characters a line) tokenised at once: bounds the transient strings
_BLOCK = 4096
# byte -> 0 not allowed in a clause body, 1 whitespace, 2 digit, 3 sign
_BYTE_KIND = np.zeros(256, dtype=np.uint8)
_BYTE_KIND[list(b" \t\n\v\f\r")] = 1
_BYTE_KIND[list(b"0123456789")] = 2
_BYTE_KIND[list(b"+-")] = 3
# lines whose first non-blank character is c (comment), p (header) or %
_SPECIAL_LINE = re.compile(r"\n[ \t\v\f]*([cp%])([^\n]*)")


def _clause_blocks(literals):
    """The clause lines, one string per ``_BLOCK`` rows."""
    line = "%d " * literals.shape[1] + "0\n"
    for i in range(0, len(literals), _BLOCK):
        rows = literals[i:i + _BLOCK]
        yield line * len(rows) % tuple(rows.ravel().tolist())


def _int_tokens(text):
    """The whitespace-separated integers of ``text`` as int64.

    Every byte is checked first: digits, whitespace and a sign that starts
    a token and precedes a digit are allowed; anything else (a word, a
    decimal point, a non-ASCII character) raises ValueError.  What is left
    is what ``np.fromstring`` reads exactly.
    """
    data = (" " + text + " ").encode("ascii")  # UnicodeEncodeError is a ValueError
    kind = _BYTE_KIND[np.frombuffer(data, dtype=np.uint8)]
    sign = np.flatnonzero(kind == 3)
    if (kind == 0).any() or (kind[sign - 1] != 1).any() or (kind[sign + 1] != 2).any():
        raise ValueError("clause body holds a token that is not an integer")
    if (kind == 1).all():  # np.fromstring reads blank text as one 0
        return np.empty(0, dtype=np.int64)
    tokens = np.fromstring(data, dtype=np.int64, sep=" ")
    limits = np.iinfo(np.int64)
    if tokens.min() == limits.min or tokens.max() == limits.max:
        raise ValueError("integer token out of the int64 range")
    return tokens


def emit_dimacs(f, destination, comments=None):
    """Write a formula as DIMACS CNF; ``comments`` is a mapping echoed as
    ``c key = value`` lines (model parameters, seed, ...)."""
    head = "".join(f"c {key} = {value}\n" for key, value in (comments or {}).items())
    with (contextlib.nullcontext(destination) if hasattr(destination, "write")
          else open(destination, "w")) as fh:
        fh.write(head + f"p cnf {f.n} {f.m}\n")
        fh.writelines(_clause_blocks(f.literals))


def parse_dimacs(source):
    """Parse DIMACS CNF into (Formula, comment lines).

    Comment, header and ``%`` lines are found by one regular-expression
    scan; the body between them is tokenised about ``_BLOCK`` lines at a
    time.  Only width-uniform formulas are supported (every clause must
    have the same number of literals).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    text = "\n" + text  # every line, the first too, follows a newline
    comments = []
    n = m = None
    spans, start = [], 0  # body spans of text, between the special lines
    for line in _SPECIAL_LINE.finditer(text):
        spans.append((start, line.start()))
        start = line.end()
        kind, rest = line.groups()
        if kind == "c":
            comments.append(rest.strip())
        elif kind == "p":
            parts = line.group().split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line.group().strip()!r}")
            n, m = int(parts[2]), int(parts[3])
        else:
            start = len(text)
            break
    spans.append((start, len(text)))
    if n is None:
        raise ValueError("missing 'p cnf' header")
    parts = [np.empty(0, dtype=np.int64)]
    for a, b in spans:
        while a < b:
            # cut after a newline, so that no token is split
            cut = text.find("\n", min(a + 64 * _BLOCK, b), b) + 1 or b
            parts.append(_int_tokens(text[a:cut]))
            a = cut
    tokens = np.concatenate(parts)
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
    return "\n".join(lines) + "\n" + "".join(
        _clause_blocks(f.literals[list(core.clause_indices)]))


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
    for key in ("positions", "weights"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"{path}: the site file has no key {key!r}")
    return WeightedSites(np.asarray(data["positions"], dtype=float),
                         np.asarray(data["weights"], dtype=float))
