"""Signed, weighted, marked graphs and their matrices.

Vertices are integers 0..n-1.  Edge weights are stored positive with the
sign carried separately, so the signed adjacency entry is sign * weight.
Optional per-vertex data: fixed-length bit-string labels (used by the
hypercube machinery) and +/-1 markings (used by corona products).

All graph values are immutable after construction; every operation here
is a pure function returning a new graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

MAX_HYPERCUBE_DIM = 20


class Edge(NamedTuple):
    u: int
    v: int
    weight: float
    sign: int


class MarkingScheme(enum.Enum):
    CANONICAL = "canonical"
    PLURALITY = "plurality"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class SignedWeightedGraph:
    """Simple undirected graph with signed, positively weighted edges."""

    vertex_count: int
    edges: tuple[Edge, ...]
    labels: Optional[tuple[str, ...]] = None
    markings: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        canon = []
        for e in self.edges:
            u, v, w, s = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            if s not in (-1, 1):
                raise ValueError(f"edge ({u},{v}) has sign {s}, expected +1 or -1")
            if u > v:
                u, v = v, u
            canon.append(Edge(u, v, float(w), int(s)))
        canon.sort(key=lambda e: (e.u, e.v))
        for a, b in zip(canon, canon[1:]):
            if (a.u, a.v) == (b.u, b.v):
                raise ValueError(f"duplicate edge ({a.u},{a.v})")
        object.__setattr__(self, "edges", tuple(canon))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
            if len(set(labels)) != n:
                raise ValueError("labels must be pairwise distinct")
            if n > 0 and len({len(l) for l in labels}) > 1:
                raise ValueError("labels must have equal length")
            object.__setattr__(self, "labels", labels)
        if self.markings is not None:
            marks = tuple(int(m) for m in self.markings)
            if len(marks) != n or any(m not in (-1, 1) for m in marks):
                raise ValueError("markings must be one of +1/-1 per vertex")
            object.__setattr__(self, "markings", marks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, sign * weight) per edge in edge order, built on first use."""
        m = len(self.edges)
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=float,
                           count=4 * m).reshape(m, 4)
        arrays = (flat[:, 0].astype(np.intp), flat[:, 1].astype(np.intp),
                  flat[:, 3] * flat[:, 2])
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _sparse_matrices(self) -> dict:
        """(CSR matrix, 1-norm) per matrix kind, filled by `sparse_matrix`."""
        return {}

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None


def make_graph(n: int, edges: Iterable[Sequence], labels=None, markings=None
               ) -> SignedWeightedGraph:
    """Build a graph from loose edge specs (u,v), (u,v,w) or (u,v,w,sign)."""
    norm = []
    for spec in edges:
        u, v = spec[0], spec[1]
        w = spec[2] if len(spec) > 2 else 1.0
        s = spec[3] if len(spec) > 3 else 1
        norm.append(Edge(int(u), int(v), float(w), int(s)))
    return SignedWeightedGraph(n, tuple(norm), labels=labels, markings=markings)


# ---------------------------------------------------------------------------
# matrices

def adjacency(g: SignedWeightedGraph) -> np.ndarray:
    """Signed weighted adjacency matrix, A[u,v] = sign * weight."""
    u, v, sw = g.edge_arrays
    a = np.zeros((g.vertex_count, g.vertex_count))
    a[u, v] = sw
    a[v, u] = sw
    return a


def _weighted_degrees(g: SignedWeightedGraph) -> np.ndarray:
    # bincount adds in input order, so interleaving the endpoints sums each
    # vertex's weights edge by edge, u before v, the order of a Python loop
    u, v, sw = g.edge_arrays
    ends = np.column_stack((u, v)).reshape(-1)
    return np.bincount(ends, weights=np.repeat(np.abs(sw), 2),
                       minlength=g.vertex_count)


def degree_matrix(g: SignedWeightedGraph) -> np.ndarray:
    return np.diag(_weighted_degrees(g))


def laplacian(g: SignedWeightedGraph) -> np.ndarray:
    """L = D - A with D the (unsigned) weighted degree matrix."""
    return degree_matrix(g) - adjacency(g)


def signless_laplacian(g: SignedWeightedGraph) -> np.ndarray:
    """L+ = D + A."""
    return degree_matrix(g) + adjacency(g)


def graph_matrix(g: SignedWeightedGraph, kind: str) -> np.ndarray:
    if kind == "adjacency":
        return adjacency(g)
    if kind == "laplacian":
        return laplacian(g)
    if kind == "signless_laplacian":
        return signless_laplacian(g)
    raise ValueError(f"unknown matrix kind {kind!r}")


def sparse_matrix(g: SignedWeightedGraph, kind: str):
    """(`graph_matrix(g, kind)` as a read-only scipy CSR array, its 1-norm).

    Built from the edge arrays on first use and cached on g per kind, as
    `edge_arrays` is.  The 1-norm, the largest absolute column sum, is
    d_max for A and 2 d_max for L and L+ (d the weighted degree); it bounds
    the 2-norm of the symmetric matrix.
    """
    cache = g._sparse_matrices
    if kind not in cache:
        if kind not in ("adjacency", "laplacian", "signless_laplacian"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        # imported here: `import pstnet` loads no scipy
        from scipy.sparse import csr_array
        n = g.vertex_count
        u, v, sw = g.edge_arrays
        degrees = _weighted_degrees(g)
        off = -sw if kind == "laplacian" else sw
        rows, cols, data = [u, v], [v, u], [off, off]
        if kind != "adjacency":
            diag = np.arange(n)
            rows.append(diag)
            cols.append(diag)
            data.append(degrees)
        matrix = csr_array((np.concatenate(data),
                            (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        # canonical (sorted, summed) indices, so scipy never rewrites them
        matrix.sum_duplicates()
        for a in (matrix.data, matrix.indices, matrix.indptr):
            a.flags.writeable = False
        top = float(degrees.max()) if n else 0.0
        cache[kind] = (matrix, top if kind == "adjacency" else 2.0 * top)
    return cache[kind]


# ---------------------------------------------------------------------------
# constructors

def path_graph(n: int) -> SignedWeightedGraph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SignedWeightedGraph:
    return make_graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> SignedWeightedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(k: int) -> SignedWeightedGraph:
    """Q_k: 2^k vertices labeled by k-bit strings, edges at Hamming distance 1.

    Bit strings are read left to right, position 0 first, so vertex v has
    label format(v, '0kb') and flipping string position j toggles the
    integer bit (k-1-j).
    """
    if k < 0:
        raise ValueError("dimension must be non-negative")
    if k > MAX_HYPERCUBE_DIM:
        raise ValueError(f"hypercube dimension {k} exceeds guard {MAX_HYPERCUBE_DIM}")
    n = 1 << k
    labels = tuple(format(v, f"0{k}b") for v in range(n))
    edges = []
    for v in range(n):
        for b in range(k):
            u = v ^ (1 << b)
            if u > v:
                edges.append(Edge(v, u, 1.0, 1))
    return SignedWeightedGraph(n, tuple(edges), labels=labels)


def cartesian(g: SignedWeightedGraph, h: SignedWeightedGraph) -> SignedWeightedGraph:
    """Cartesian product; vertex (i,j) sits at index i*|V(h)| + j.

    The adjacency satisfies A(G box H) = A(G) kron I + I kron A(H); labels
    concatenate when both factors carry them.
    """
    ng, nh = g.vertex_count, h.vertex_count
    edges = []
    for i in range(ng):
        for (a, b, w, s) in h.edges:
            edges.append(Edge(i * nh + a, i * nh + b, w, s))
    for (a, b, w, s) in g.edges:
        for j in range(nh):
            edges.append(Edge(a * nh + j, b * nh + j, w, s))
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(g.labels[i] + h.labels[j]
                       for i in range(ng) for j in range(nh))
    markings = None
    if g.markings is not None and h.markings is not None:
        markings = tuple(g.markings[i] * h.markings[j]
                         for i in range(ng) for j in range(nh))
    return SignedWeightedGraph(ng * nh, tuple(edges), labels=labels,
                               markings=markings)


def disjoint_union(g: SignedWeightedGraph, h: SignedWeightedGraph) -> SignedWeightedGraph:
    """Block-diagonal union; h's vertices are shifted after g's."""
    off = g.vertex_count
    edges = list(g.edges) + [Edge(u + off, v + off, w, s) for u, v, w, s in h.edges]
    labels = None
    if g.labels is not None and h.labels is not None:
        cand = g.labels + h.labels
        if len(set(cand)) == len(cand) and len({len(l) for l in cand}) <= 1:
            labels = cand
    markings = None
    if g.markings is not None and h.markings is not None:
        markings = g.markings + h.markings
    return SignedWeightedGraph(g.vertex_count + h.vertex_count, tuple(edges),
                               labels=labels, markings=markings)


def add_isolated(g: SignedWeightedGraph, count: int) -> SignedWeightedGraph:
    """Append isolated vertices; labels are dropped, markings pad with +1."""
    if count < 0:
        raise ValueError("count must be non-negative")
    markings = g.markings + (1,) * count if g.markings is not None else None
    return SignedWeightedGraph(g.vertex_count + count, g.edges, markings=markings)


def induced_subgraph(g: SignedWeightedGraph, vertices: Iterable[int]) -> SignedWeightedGraph:
    """Induced subgraph on the given vertex set.

    Kept vertices are re-indexed in ascending order of their original
    indices, which is the index remapping contract used everywhere else.
    """
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("vertex set must be non-empty")
    if keep[0] < 0 or keep[-1] >= g.vertex_count:
        raise ValueError("vertex set out of range")
    pos = {v: i for i, v in enumerate(keep)}
    edges = [Edge(pos[u], pos[v], w, s) for u, v, w, s in g.edges
             if u in pos and v in pos]
    sub = lambda t: tuple(t[v] for v in keep) if t is not None else None
    return SignedWeightedGraph(len(keep), tuple(edges), labels=sub(g.labels),
                               markings=sub(g.markings))


# ---------------------------------------------------------------------------
# signed-graph structure

def adjacency_lists(g: SignedWeightedGraph) -> list[list[tuple[int, int]]]:
    """Per vertex, (neighbour, edge sign) for each incident edge, in edge order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for u, v, _, s in g.edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    return adj


def is_balanced(g: SignedWeightedGraph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Detect balance by spanning-tree sign propagation plus a full edge audit.

    Returns (True, theta) with a +/-1 vertex signing satisfying
    sign(u,v) = theta(u) * theta(v) on every edge, or (False, None).
    """
    n = g.vertex_count
    adj = adjacency_lists(g)
    theta = [0] * n
    for root in range(n):
        if theta[root]:
            continue
        theta[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, s in adj[u]:
                if theta[v] == 0:
                    theta[v] = theta[u] * s
                    stack.append(v)
    for u, v, _, s in g.edges:
        if theta[u] * theta[v] != s:
            return False, None
    return True, tuple(theta)


def canonical_marking(g: SignedWeightedGraph) -> tuple[int, ...]:
    """Mark each vertex with the product of its incident edge signs."""
    marks = [1] * g.vertex_count
    for u, v, _, s in g.edges:
        marks[u] *= s
        marks[v] *= s
    return tuple(marks)


def plurality_marking(g: SignedWeightedGraph) -> tuple[int, ...]:
    """Mark + when the positive degree is at least the negative degree.

    Ties d+ = d- mark +, matching the max{d+,d-} = d+ convention.
    """
    dpos = [0] * g.vertex_count
    dneg = [0] * g.vertex_count
    for u, v, _, s in g.edges:
        tgt = dpos if s > 0 else dneg
        tgt[u] += 1
        tgt[v] += 1
    return tuple(1 if dp >= dn else -1 for dp, dn in zip(dpos, dneg))


def markings_under(g: SignedWeightedGraph, scheme: MarkingScheme) -> tuple[int, ...]:
    if scheme is MarkingScheme.CANONICAL:
        return canonical_marking(g)
    if scheme is MarkingScheme.PLURALITY:
        return plurality_marking(g)
    if scheme is MarkingScheme.EXPLICIT:
        if g.markings is None:
            raise ValueError("explicit marking scheme requires stored markings")
        return g.markings
    raise ValueError(f"unknown marking scheme {scheme!r}")


# ---------------------------------------------------------------------------
# corona product

def corona(g1: SignedWeightedGraph, g2: SignedWeightedGraph,
           scheme: MarkingScheme = MarkingScheme.CANONICAL) -> SignedWeightedGraph:
    """Signed corona product: one copy of g1, one copy of g2 per g1 vertex.

    Vertex order matches the block adjacency
        [[A(g1), mu2 kron diag(mu1)], [.., A(g2) kron I_n]]
    so g1's n vertices come first and vertex (g2-node j, copy i) sits at
    n + j*n + i.  The new edge joining g1 vertex i to node j of copy i has
    unit weight and sign mu1(i) * mu2(j).
    """
    n, k = g1.vertex_count, g2.vertex_count
    mu1 = markings_under(g1, scheme)
    mu2 = markings_under(g2, scheme)
    edges = list(g1.edges)
    for (a, b, w, s) in g2.edges:
        for i in range(n):
            edges.append(Edge(n + a * n + i, n + b * n + i, w, s))
    for i in range(n):
        for j in range(k):
            edges.append(Edge(i, n + j * n + i, 1.0, mu1[i] * mu2[j]))
    markings = tuple(mu1) + tuple(mu2[j] for j in range(k) for _ in range(n))
    return SignedWeightedGraph(n * (1 + k), tuple(edges), markings=markings)
