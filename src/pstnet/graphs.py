"""Signed, weighted, marked graphs and their matrices.

Vertices are integers 0..n-1.  Edge weights are positive with the sign
carried separately, so the signed adjacency entry is sign * weight.
Optional per-vertex data: fixed-length bit-string labels (used by the
hypercube machinery) and +/-1 markings (used by corona products).

A Cartesian product records the graphs it was built from: `cartesian`
and `hypercube` (k >= 2) set `factors`, the flattened tuple of factor
graphs, the first the most significant mixed-radix digit of a vertex.
Both matrices of a product are Kronecker sums of the factors' (L adds as
A does, because degrees add), so `spectral.transfer_amplitude` answers a
product from its factors.  Every other graph has `factors` None.

A graph stores its edges only as three read-only arrays, `edge_arrays` =
(u, v, sign * weight) in canonical order (u < v, sorted by (u, v)); `edges`
is the same edges as `Edge` tuples, a view built on first read for routing,
which alone reads it.  Builders
compute arrays by index arithmetic and pass one (m, 4) table of (u, v,
weight, sign) rows (`edge_table`) to the one constructor, which checks it.

All graph values are immutable after construction; every operation here
is a pure function returning a new graph.
"""

from __future__ import annotations

import enum
from functools import cached_property
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


def _canonical_edges(rows: np.ndarray, n: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, sign * weight) of (u, v, weight, sign) rows, checked and sorted:
    the first row in input order that breaks a rule names it, then the first
    repeated pair in canonical order."""
    u, v, w, s = rows.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    rules = (
        (~((lo >= 0) & (hi < n)), "edge ({u},{v}) out of range for {n} vertices"),
        ((np.floor(u) != u) | (np.floor(v) != v), "edge ({u},{v}) has a non-integral endpoint"),
        (u == v, "self-loop at vertex {u}"),
        (w <= 0, "edge ({u},{v}) has non-positive weight {w}"),
        (~np.isfinite(w), "edge ({u},{v}) has non-finite weight {w}"),
        ((s != 1) & (s != -1), "edge ({u},{v}) has sign {s}, expected +1 or -1"),
    )
    broken = np.logical_or.reduce([bad for bad, _ in rules])
    if broken.any():
        i = int(np.argmax(broken))
        message = next(text for bad, text in rules if bad[i])
        num = lambda x: int(x) if float(x).is_integer() else float(x)
        raise ValueError(message.format(u=num(u[i]), v=num(v[i]), w=float(w[i]),
                                        s=num(s[i]), n=n))
    sw = s * w
    # builders such as `hamming_table` pass rows already in canonical order
    ordered = (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] >= hi[:-1]))
    if not ordered.all():
        order = np.lexsort((hi, lo))
        lo, hi, sw = lo[order], hi[order], sw[order]
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    repeated = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if repeated.any():
        i = int(np.argmax(repeated))
        raise ValueError(f"duplicate edge ({lo[i]},{hi[i]})")
    for a in (lo, hi, sw):
        a.flags.writeable = False
    return lo, hi, sw


class SignedWeightedGraph:
    """Simple undirected graph with signed, positively weighted edges.

    `edges` is a sequence of (u, v, weight, sign) tuples or an (m, 4) array of
    such rows in any order (checked by `_canonical_edges`).  Immutable; `==`
    compares vertex count, edges, labels and markings.  `factors` is None
    here; only `cartesian` and `hypercube` set it, and `==` and `hash`
    ignore it.
    """

    def __init__(self, vertex_count: int, edges, labels=None, markings=None):
        n = vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        rows = np.asarray(edges, dtype=float)
        if rows.size and (rows.ndim != 2 or rows.shape[1] != 4):
            raise ValueError("edges must be (u, v, weight, sign) rows")
        arrays = _canonical_edges(rows.reshape(-1, 4), n)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
            if len(set(labels)) != n:
                raise ValueError("labels must be pairwise distinct")
            if n > 0 and len({len(l) for l in labels}) > 1:
                raise ValueError("labels must have equal length")
        if markings is not None:
            markings = tuple(int(m) for m in markings)
            if len(markings) != n or any(m not in (-1, 1) for m in markings):
                raise ValueError("markings must be one of +1/-1 per vertex")
        self.__dict__.update(vertex_count=n, edge_arrays=arrays, labels=labels,
                             markings=markings, factors=None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (type(other) is type(self) and self.vertex_count == other.vertex_count
                and self.labels == other.labels and self.markings == other.markings
                and all(map(np.array_equal, self.edge_arrays, other.edge_arrays)))

    def __hash__(self):
        return hash((self.vertex_count, self.edge_count, self.labels, self.markings))

    @property
    def edge_count(self) -> int:
        return len(self.edge_arrays[0])

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as `Edge` tuples of Python numbers, in canonical order."""
        u, v, sw = self.edge_arrays
        return tuple(map(Edge, u.tolist(), v.tolist(), np.abs(sw).tolist(),
                         np.where(sw > 0, 1, -1).tolist()))

    @cached_property
    def _sparse_matrices(self) -> dict:
        """(CSR matrix, 1-norm) per matrix kind, filled by `sparse_matrix`,
        and under (kind, "dense") the dense copy `spectral._walk_operator`
        makes on small graphs."""
        return {}


def edge_table(u, v, signed_weight=1.0) -> np.ndarray:
    """Constructor rows (u, v, weight, sign) from endpoints and sign * weight."""
    u, v, sw = np.broadcast_arrays(u, v, signed_weight)
    return np.column_stack((u, v, np.abs(sw), np.sign(sw)))


def make_graph(n: int, edges: Iterable[Sequence]) -> SignedWeightedGraph:
    """Build a graph from loose edge specs (u,v), (u,v,w) or (u,v,w,sign)."""
    rows = [(*spec, 1, 1)[:4] for spec in edges]    # weight and sign default to 1
    return SignedWeightedGraph(n, rows)


# ---------------------------------------------------------------------------
# matrices

def _weighted_degrees(g: SignedWeightedGraph) -> np.ndarray:
    # bincount adds in input order, so interleaving the endpoints sums each
    # vertex's weights edge by edge, u before v, the order of a Python loop
    u, v, sw = g.edge_arrays
    ends = np.column_stack((u, v)).reshape(-1)
    return np.bincount(ends, weights=np.repeat(np.abs(sw), 2),
                       minlength=g.vertex_count).astype(float, copy=False)


def laplacian(g: SignedWeightedGraph) -> np.ndarray:
    """L = D - A with D the (unsigned) weighted degree matrix."""
    return graph_matrix(g, "laplacian")


def graph_matrix(g: SignedWeightedGraph, kind: str) -> np.ndarray:
    """The dense matrix of one kind, a fresh writable copy of `sparse_matrix`."""
    return sparse_matrix(g, kind)[0].toarray()


def sparse_matrix(g: SignedWeightedGraph, kind: str):
    """(A or D - A for `kind` "adjacency" or "laplacian", as a read-only
    scipy CSR array, its 1-norm).

    Built from the edge arrays on first use and cached on g per kind, as
    `edge_arrays` is.  The 1-norm, the largest absolute column sum, is
    d_max for A and 2 d_max for L (d the weighted degree); it bounds the
    2-norm of the symmetric matrix.
    """
    cache = g._sparse_matrices
    if kind not in cache:
        if kind not in ("adjacency", "laplacian"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        # imported here: `import pstnet` loads no scipy
        from scipy.sparse import csr_array
        n = g.vertex_count
        u, v, sw = g.edge_arrays
        degrees = _weighted_degrees(g)
        off = -sw if kind == "laplacian" else sw
        rows, cols, data = [u, v], [v, u], [off, off]
        if kind == "laplacian":
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
    return SignedWeightedGraph(n, edge_table(np.arange(n - 1), np.arange(1, n)))


def complete_graph(n: int) -> SignedWeightedGraph:
    return SignedWeightedGraph(n, edge_table(*np.triu_indices(n, 1)))


def cycle_graph(n: int) -> SignedWeightedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SignedWeightedGraph(n, edge_table(np.arange(n), (np.arange(n) + 1) % n))


def hamming_table(count: int, width: int, start: int = 0) -> np.ndarray:
    """Unit positive edges, in canonical order, joining each code c < count to
    c | 1 << b for each bit b < width clear in c, where start <= c | 1 << b < count."""
    lo = np.repeat(np.arange(count), width)
    hi = lo | np.tile(1 << np.arange(width), count)
    keep = (hi > lo) & (hi < count) & (hi >= start)
    return edge_table(lo[keep], hi[keep])


def hypercube(k: int) -> SignedWeightedGraph:
    """Q_k: 2^k vertices labeled by k-bit strings, edges at Hamming distance 1.

    Bit strings are read left to right, position 0 first, so vertex v has
    label format(v, '0kb') and flipping string position j toggles the
    integer bit (k-1-j); Q_0's one vertex has the empty label.  For k >= 2,
    `factors` is one K2, Q_1, at all k positions: string position j is
    factor j's digit, as in the `cartesian` fold of k copies of Q_1.
    """
    if k < 0:
        raise ValueError("dimension must be non-negative")
    if k > MAX_HYPERCUBE_DIM:
        raise ValueError(f"hypercube dimension {k} exceeds guard {MAX_HYPERCUBE_DIM}")
    n = 1 << k
    labels = tuple(format(v, f"0{k}b") for v in range(n)) if k else ("",)
    cube = SignedWeightedGraph(n, hamming_table(n, k), labels=labels)
    if k >= 2:
        cube.__dict__["factors"] = (hypercube(1),) * k
    return cube


def cartesian(g: SignedWeightedGraph, h: SignedWeightedGraph) -> SignedWeightedGraph:
    """Cartesian product; vertex (i,j) sits at index i*|V(h)| + j.

    The adjacency satisfies A(G box H) = A(G) kron I + I kron A(H), and so
    does the Laplacian, since degrees add; labels concatenate when both
    factors carry them.  `factors` records g's factors then h's, a graph
    that records none counting as its own one factor, so a vertex is the
    mixed-radix number of its factor digits, the first the most significant.
    """
    ng, nh = g.vertex_count, h.vertex_count
    a, b, sw = h.edge_arrays            # inside each copy i of h
    c, d, tw = g.edge_arrays            # across the copies, at each j
    i, j = np.arange(ng)[:, None] * nh, np.arange(nh)
    rows = np.vstack((edge_table((i + a).ravel(), (i + b).ravel(), np.tile(sw, ng)),
                      edge_table((c[:, None] * nh + j).ravel(), (d[:, None] * nh + j).ravel(),
                                 np.repeat(tw, nh))))
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(gl + hl for gl in g.labels for hl in h.labels)
    markings = None
    if g.markings is not None and h.markings is not None:
        markings = np.outer(g.markings, h.markings).ravel().tolist()
    product = SignedWeightedGraph(ng * nh, rows, labels=labels, markings=markings)
    product.__dict__["factors"] = (g.factors or (g,)) + (h.factors or (h,))
    return product


# ---------------------------------------------------------------------------
# signed-graph structure

def is_balanced(g: SignedWeightedGraph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(True, theta) with sign(u,v) = theta(u) * theta(v) on every edge and
    theta = +1 at the lowest vertex of each component, or (False, None).

    g is balanced iff no vertex x shares a component of the signed double
    cover with its copy x + n, where negative edges cross the sheets (Harary).
    """
    # imported here: `import pstnet` loads no scipy
    from scipy.sparse import coo_array, csgraph
    n = g.vertex_count
    u, v, sw = g.edge_arrays
    cross = np.where(sw < 0, n, 0)
    cover = coo_array((np.ones(2 * len(u)), (np.concatenate((u, u + n)),
                                             np.concatenate((v + cross, v + n - cross)))),
                      shape=(2 * n, 2 * n))
    _, component = csgraph.connected_components(cover, directed=False)
    if np.any(component[:n] == component[n:]):
        return False, None
    # a component's lowest vertex r starts its cover component, and the
    # mirror one starts above r: theta(x) = +1 iff x's starts below x + n's
    lowest = np.unique(component, return_index=True)[1]
    return True, tuple(np.where(lowest[component[:n]] < lowest[component[n:]], 1, -1).tolist())


def sign_degrees(g: SignedWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex, the numbers d+ and d- of incident positive and negative edges."""
    u, v, sw = g.edge_arrays
    ends, negative = np.concatenate((u, v)), np.concatenate((sw, sw)) < 0
    count = lambda chosen: np.bincount(ends[chosen], minlength=g.vertex_count)
    return count(~negative), count(negative)


def canonical_marking(g: SignedWeightedGraph) -> tuple[int, ...]:
    """Mark each vertex with the product of its incident edge signs."""
    return tuple(np.where(sign_degrees(g)[1] % 2, -1, 1).tolist())


def plurality_marking(g: SignedWeightedGraph) -> tuple[int, ...]:
    """Mark + when the positive degree is at least the negative degree.

    Ties d+ = d- mark +, matching the max{d+,d-} = d+ convention.
    """
    dpos, dneg = sign_degrees(g)
    return tuple(np.where(dpos >= dneg, 1, -1).tolist())


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
    mu1 = np.array(markings_under(g1, scheme), dtype=int)
    mu2 = np.array(markings_under(g2, scheme), dtype=int)
    copy = np.arange(n)
    a, b, sw = g2.edge_arrays
    i, j = np.repeat(copy, k), np.tile(np.arange(k), n)
    rows = np.vstack((edge_table(*g1.edge_arrays),
                      edge_table((n + a[:, None] * n + copy).ravel(),
                                 (n + b[:, None] * n + copy).ravel(), np.repeat(sw, n)),
                      edge_table(i, n + j * n + i, mu1[i] * mu2[j])))
    markings = mu1.tolist() + np.repeat(mu2, n).tolist()
    return SignedWeightedGraph(n * (1 + k), rows, markings=markings)
