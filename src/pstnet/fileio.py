"""Text formats: the line-oriented graph format and deterministic CSV.

Graph format, one item per line, whitespace separated, UTF-8, comments
start with '#':

    graph <vertex_count>
    label <index> <bitstring>      (optional, once per vertex)
    mark <index> +|-               (optional, once per vertex)
    edge <u> <v> <weight> <+|->

All numeric CSV output uses 12 significant digits so repeated runs are
byte identical; the only metadata is a version comment line,
`# pstnet <version>`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from . import __version__
from .graphs import SignedWeightedGraph

VERSION_COMMENT = f"pstnet {__version__}"


class GraphFormatError(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def _parse_index(token: str, n: int, lineno: int) -> int:
    try:
        idx = int(token)
    except ValueError:
        raise GraphFormatError(lineno, f"bad vertex index {token!r}") from None
    if not 0 <= idx < n:
        raise GraphFormatError(lineno, f"vertex index {idx} out of range 0..{n - 1}")
    return idx


def _parse_sign(token: str, lineno: int) -> int:
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise GraphFormatError(lineno, f"expected + or -, got {token!r}")


def parse_graph_text(text: str) -> SignedWeightedGraph:
    n = None
    labels: dict[int, str] = {}
    marks: dict[int, int] = {}
    edges: list[tuple[int, int, float, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if n is not None:
                raise GraphFormatError(lineno, "duplicate graph header")
            if len(parts) != 2:
                raise GraphFormatError(lineno, "expected: graph <vertex_count>")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(lineno, f"bad vertex count {parts[1]!r}")
            if n <= 0:
                raise GraphFormatError(lineno, "vertex count must be positive")
            continue
        if n is None:
            raise GraphFormatError(lineno, "graph header must come first")
        if kind == "label":
            if len(parts) != 3:
                raise GraphFormatError(lineno, "expected: label <index> <bitstring>")
            idx = _parse_index(parts[1], n, lineno)
            if any(c not in "01" for c in parts[2]):
                raise GraphFormatError(lineno, f"label {parts[2]!r} is not binary")
            if idx in labels:
                raise GraphFormatError(lineno, f"duplicate label for vertex {idx}")
            labels[idx] = parts[2]
        elif kind == "mark":
            if len(parts) != 3:
                raise GraphFormatError(lineno, "expected: mark <index> +|-")
            idx = _parse_index(parts[1], n, lineno)
            if idx in marks:
                raise GraphFormatError(lineno, f"duplicate mark for vertex {idx}")
            marks[idx] = _parse_sign(parts[2], lineno)
        elif kind == "edge":
            if len(parts) != 5:
                raise GraphFormatError(lineno, "expected: edge <u> <v> <weight> <+|->")
            u = _parse_index(parts[1], n, lineno)
            v = _parse_index(parts[2], n, lineno)
            if u == v:
                raise GraphFormatError(lineno, "self-loops are not allowed")
            try:
                w = float(parts[3])
            except ValueError:
                raise GraphFormatError(lineno, f"bad weight {parts[3]!r}")
            if w <= 0:
                raise GraphFormatError(lineno, "weight must be positive")
            if not math.isfinite(w):
                raise GraphFormatError(lineno, f"weight {parts[3]!r} is not finite")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(lineno, f"duplicate edge ({u},{v})")
            seen.add(key)
            edges.append((u, v, w, _parse_sign(parts[4], lineno)))
        else:
            raise GraphFormatError(lineno, f"unknown directive {kind!r}")
    if n is None:
        raise GraphFormatError(1, "missing graph header")
    for name, given in (("labels", labels), ("marks", marks)):
        if given and len(given) != n:
            raise GraphFormatError(1, f"{name} must cover every vertex or none")
    label_tuple = tuple(labels[i] for i in range(n)) if labels else None
    mark_tuple = tuple(marks[i] for i in range(n)) if marks else None
    try:
        return SignedWeightedGraph(n, edges, labels=label_tuple,
                                   markings=mark_tuple)
    except ValueError as exc:
        raise GraphFormatError(1, str(exc)) from exc


def parse_graph_file(path: str) -> SignedWeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


# ---------------------------------------------------------------------------
# CSV

def fmt(x) -> str:
    """Fixed 12-significant-digit decimal formatting for reproducible files."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def emit_csv(rows: Iterable[Sequence], path: str, header: Sequence[str]) -> None:
    """Write the version comment, the header and fixed-format rows; output
    is deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {VERSION_COMMENT}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")
