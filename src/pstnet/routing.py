"""Switch-based routing: sub-hypercube selection, arbitrary-size networks,
growing networks and two-hop state transfer with step-function evolution.

A hop is classical edge switching, one perfect-transfer quantum evolution,
then switching back.  Any pair inside one hypercube needs a single hop
through the induced sub-hypercube where the pair is antipodal; across
constituent hypercubes of a network a bridge edge plus one cube hop
suffice, so every pair is reachable in at most two hops.

Networks of arbitrary order n are labeled with (k+1)-bit strings where
2^k <= n < 2^(k+1); the vertex set is exactly the binary labels of
0..n-1, which realizes the residual-hypercube construction (the leading
2^k labels form Q_k with prefix 0, the next blocks are the smaller cubes)
and the one-qubit growth rule "binary-increment the last added label".

Planning works on the labels' integer codes: a hop's kept vertices are the
2^d codes that share the fixed bits of its endpoints, found by lookup.
Execution checks in one pass over the network's edges that each kept block
is exactly a uniform Q_d and then applies the exact hypercube evolution
`spectral.hypercube_apply`; no hop solves an eigenproblem or builds a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import (MAX_HYPERCUBE_DIM, Edge, SignedWeightedGraph, edge_table,
                     hamming_table, hypercube, sparse_matrix)
from .spectral import TransferReport, hypercube_apply, polar

HOP_TIME_UNIT_WEIGHT = math.pi / 2.0


class CapacityError(RuntimeError):
    """Raised when a network's label space is full and must be widened."""


@dataclass(frozen=True)
class SwitchPlan:
    """Edge switch set for one hop: keep the induced sub-hypercube, cut the rest."""

    sub_dimension: int
    fixed_indices: tuple[int, ...]
    fixed_bits: tuple[int, ...]
    keep_vertices: tuple[int, ...]
    off_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Hop:
    plan: SwitchPlan
    source: int
    target: int
    duration: float


@dataclass(frozen=True)
class HopPlan:
    hops: tuple[Hop, ...]

    @property
    def total_time(self) -> float:
        return sum((hop.duration for hop in self.hops), 0.0)


@dataclass(frozen=True)
class NetworkLabeling:
    """Binary labels plus the residual-hypercube membership map.

    `blocks` are the dyadic blocks of [0, n), largest first, one (start,
    size) per constituent cube.  `codes[v]` is the integer whose binary
    digits are label v (string position j is integer bit width-1-j) and
    `vertex_of` inverts it.
    """

    labels: tuple[str, ...]
    blocks: tuple[tuple[int, int], ...] = field(init=False)
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    vertex_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if len({len(lab) for lab in self.labels}) > 1:
            raise ValueError("labels must have equal length")
        if any(set(lab) - {"0", "1"} for lab in self.labels):
            raise ValueError("labels must be binary strings")
        codes = tuple(int(lab, 2) if lab else 0 for lab in self.labels)
        object.__setattr__(self, "blocks", _dyadic_blocks(len(codes)))
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "vertex_of", {c: v for v, c in enumerate(codes)})

    @property
    def width(self) -> int:
        return len(self.labels[0]) if self.labels else 0

    def block_of(self, v: int) -> int:
        for i, (start, size) in enumerate(self.blocks):
            if start <= v < start + size:
                return i
        raise ValueError(f"vertex {v} outside the labeling")

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None


def _dyadic_blocks(n: int) -> tuple[tuple[int, int], ...]:
    blocks = []
    start = 0
    while start < n:
        size = 1 << ((n - start).bit_length() - 1)
        blocks.append((start, size))
        start += size
    return tuple(blocks)


def build_network(n: int) -> tuple[SignedWeightedGraph, NetworkLabeling]:
    """Network of order n with all-to-all transfer in at most two hops.

    Vertices are the (k+1)-bit binary labels of 0..n-1 with edges at
    Hamming distance 1; the dyadic blocks of [0, n) are the constituent
    hypercubes (largest first) and every vertex of a smaller cube has
    exactly one bridge into each larger cube; n must lie in 2..2^20 (Q_20).
    """
    if n < 2:
        raise ValueError("network needs at least 2 vertices")
    if n > 1 << MAX_HYPERCUBE_DIM:
        raise ValueError(f"network of order {n} has more vertices than "
                         f"Q_{MAX_HYPERCUBE_DIM} ({1 << MAX_HYPERCUBE_DIM})")
    width = n.bit_length()          # k+1 bits for 2^k <= n < 2^(k+1)
    labels = tuple(format(v, f"0{width}b") for v in range(n))
    graph = SignedWeightedGraph(n, hamming_table(n, width), labels=labels)
    return graph, NetworkLabeling(labels)


def grow(network: SignedWeightedGraph, labeling: NetworkLabeling
         ) -> tuple[SignedWeightedGraph, NetworkLabeling]:
    """Add one vertex: binary-increment the last label, join at Hamming 1."""
    n = network.vertex_count
    width = labeling.width
    if n >= 1 << width:
        raise CapacityError(
            f"label space of width {width} is full at {n} vertices; "
            "widen the labels by one index before growing")
    rows = np.vstack((edge_table(*network.edge_arrays), hamming_table(n + 1, width, start=n)))
    labels = labeling.labels + (format(n, f"0{width}b"),)
    graph = SignedWeightedGraph(n + 1, rows, labels=labels)
    return graph, NetworkLabeling(labels)


def widen_labels(network: SignedWeightedGraph, labeling: NetworkLabeling
                 ) -> tuple[SignedWeightedGraph, NetworkLabeling]:
    """Append one more index: prefix every label with 0 (graph unchanged)."""
    labels = tuple("0" + lab for lab in labeling.labels)
    graph = SignedWeightedGraph(network.vertex_count, edge_table(*network.edge_arrays),
                                labels=labels)
    return graph, NetworkLabeling(labels)


# ---------------------------------------------------------------------------
# sub-hypercube selection

def _subcube_plan(labeling: NetworkLabeling, edges: tuple[Edge, ...],
                  u: int, v: int) -> SwitchPlan:
    """Switch plan keeping the induced sub-hypercube where u, v are antipodal.

    Keep exactly the existing vertices that agree with u on every position
    where u and v agree, in code order, and check only that all 2^d of them
    exist; `execute_route` verifies the block's edges.
    """
    cu, cv = labeling.codes[u], labeling.codes[v]
    if cu == cv:
        raise ValueError("endpoints must differ")
    width, free = labeling.width, cu ^ cv
    m = tuple(j for j in range(width) if not free >> (width - 1 - j) & 1)
    bits = tuple(cu >> (width - 1 - j) & 1 for j in m)
    dim = free.bit_count()
    base = cu & ~free
    keep = []
    sub = 0
    while True:     # the submasks of free in ascending order
        i = labeling.vertex_of.get(base | sub)
        if i is not None:
            keep.append(i)
        sub = (sub - free) & free
        if sub == 0:
            break
    keep = tuple(keep)
    if len(keep) != 1 << dim:
        raise ValueError(
            f"vertices matching the fixed bits form {len(keep)} vertices, "
            f"not a complete Q_{dim}; no single-hop transfer here")
    keep_set = set(keep)
    off = tuple((e.u, e.v) for e in edges
                if not (e.u in keep_set and e.v in keep_set))
    return SwitchPlan(dim, m, bits, keep, off)


def find_subhypercube(k: int, u: str, v: str) -> SwitchPlan:
    """Sub-hypercube of Q_k in which the two labels are antipodal.

    The fixed indices m_t are the string positions (left to right from 0)
    where the labels agree, the fixed bits M_t are the shared values, and
    the kept vertices induce a Q_i with i = k - |m_t|.
    """
    if len(u) != k or len(v) != k:
        raise ValueError(f"labels must have length {k}")
    if u == v:
        raise ValueError("endpoints must differ")
    cube = hypercube(k)
    labeling = NetworkLabeling(cube.labels)
    return _subcube_plan(labeling, cube.edges, labeling.index_of(u), labeling.index_of(v))


# ---------------------------------------------------------------------------
# route planning

def _bridge_partner(labeling: NetworkLabeling, vertex: int, block: int) -> int:
    """The unique Hamming-1 mirror of a smaller-cube vertex inside a larger cube."""
    code = labeling.codes[vertex]
    start, size = labeling.blocks[block]
    partners = [i for i in (labeling.vertex_of.get(code ^ (1 << b))
                            for b in range(labeling.width))
                if i is not None and start <= i < start + size]
    if not partners:
        raise ValueError(f"no bridge from {labeling.labels[vertex]} into block {block}")
    return min(partners, key=lambda i: labeling.codes[i])


def plan_route(network: SignedWeightedGraph, labeling: NetworkLabeling,
               u: int, w: int) -> HopPlan:
    """Hop plan transferring vertex u to vertex w in at most two hops.

    Same-cube pairs get a single sub-hypercube hop.  Cross-cube pairs
    route the smaller-cube endpoint over its unique bridge edge into the
    larger cube (a Q_1 hop), with the in-cube hop on the other side; the
    bridge comes first when the source sits in the smaller cube, matching
    the worked two-step transfer, and last otherwise.
    """
    if not (0 <= u < network.vertex_count and 0 <= w < network.vertex_count):
        raise ValueError("endpoints out of range")
    weights = {e.weight for e in network.edges}
    if len(weights) > 1:
        raise ValueError("mixed edge weights are not supported for routing")
    weight = weights.pop() if weights else 1.0
    t0 = HOP_TIME_UNIT_WEIGHT / weight
    if u == w:
        return HopPlan(())
    edges = network.edges
    bu, bw = labeling.block_of(u), labeling.block_of(w)
    if bu == bw:
        plan = _subcube_plan(labeling, edges, u, w)
        return HopPlan((Hop(plan, u, w, t0),))
    # smaller cube's endpoint crosses the bridge into the larger cube
    if labeling.blocks[bu][1] < labeling.blocks[bw][1]:
        small, big, big_block = u, w, bw
        source_in_small = True
    else:
        small, big, big_block = w, u, bu
        source_in_small = False
    x = _bridge_partner(labeling, small, big_block)
    bridge = _subcube_plan(labeling, edges, small, x)
    if x == big:
        return HopPlan((Hop(bridge, u, w, t0),))
    cube = _subcube_plan(labeling, edges, x, big)
    if source_in_small:
        hops = (Hop(bridge, u, x, t0), Hop(cube, x, w, t0))
    else:
        hops = (Hop(cube, u, x, t0), Hop(bridge, x, w, t0))
    return HopPlan(hops)


def execute_route(network: SignedWeightedGraph, plan: HopPlan,
                  input_state: np.ndarray) -> tuple[np.ndarray, TransferReport]:
    """Run the step-function evolution exp(-i A_2 t_2) exp(-i A_1 t_1).

    Each hop's adjacency acts only on its kept sub-hypercube; switched-off
    vertices are isolated and evolve trivially.  The kept block must be
    exactly a uniform Q_d on the positions of keep_vertices (see
    `_kept_cube_weight`, which raises ValueError otherwise), so the hop is
    the exact product evolution `hypercube_apply` for the hop's duration.
    The report is the amplitude at the last hop's target.
    """
    state = np.asarray(input_state, dtype=complex).copy()
    if state.shape != (network.vertex_count,):
        raise ValueError("state dimension does not match the network")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")
    if not plan.hops:
        target = int(np.argmax(np.abs(state)))
        return state, TransferReport(*polar(state[target]))
    source = plan.hops[0].source
    if abs(abs(state[source]) - 1.0) > 1e-9:
        raise ValueError("input state must be concentrated on the hop source")
    for hop in plan.hops:
        weight = _kept_cube_weight(network, hop.plan)
        keep = list(hop.plan.keep_vertices)
        state[keep] = hypercube_apply(hop.plan.sub_dimension, weight,
                                      hop.duration, state[keep])
    return state, TransferReport(*polar(state[plan.hops[-1].target]))


def _kept_cube_weight(network: SignedWeightedGraph, plan: SwitchPlan) -> float:
    """The common weight of a hop's kept block, checked to be a uniform Q_d.

    One pass over the network's edges: every edge with both ends kept must
    join positions of keep_vertices that differ in one bit, with sign +1 and
    the weight of the first such edge, and there must be d 2^(d-1) of them.
    """
    dim, keep = plan.sub_dimension, plan.keep_vertices
    if len(keep) != 1 << dim:
        raise ValueError(f"{len(keep)} kept vertices cannot form Q_{dim}")
    position = {v: p for p, v in enumerate(keep)}
    weight = None
    count = 0
    for e in network.edges:
        p, q = position.get(e.u), position.get(e.v)
        if p is None or q is None:
            continue
        if weight is None:
            weight = e.weight
        if (p ^ q).bit_count() != 1 or e.sign != 1 or e.weight != weight:
            raise ValueError(
                f"kept edge ({e.u},{e.v}) with weight {e.weight} and sign "
                f"{e.sign:+d} breaks the uniform Q_{dim} block of the hop")
        count += 1
    expected = dim * (1 << dim) // 2
    if count != expected:
        raise ValueError(f"kept block has {count} edges; Q_{dim} needs {expected}")
    return 0.0 if weight is None else weight   # Q_0 has no coupling


# ---------------------------------------------------------------------------
# neighborhood classification and the SWAP baseline

@dataclass(frozen=True)
class NeighborhoodReport:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    delta: tuple[int, ...]

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.alpha), len(self.beta), len(self.gamma), len(self.delta))


def classify_neighborhood(labeling: NetworkLabeling, u: int) -> NeighborhoodReport:
    """Existing vertices at Hamming distance 1..4 from u (reachable in at
    most two one-link/two-link jumps).  Counts are bounded by C(width, d)."""
    cu = labeling.codes[u]
    sets: dict[int, list[int]] = {1: [], 2: [], 3: [], 4: []}
    for v, cv in enumerate(labeling.codes):
        d = (cu ^ cv).bit_count()
        if 1 <= d <= 4:
            sets[d].append(v)
    return NeighborhoodReport(tuple(sets[1]), tuple(sets[2]),
                              tuple(sets[3]), tuple(sets[4]))


def swap_baseline(network: SignedWeightedGraph, u: int, w: int) -> int:
    """Minimum cascaded-SWAP count: the BFS edge distance, ignoring weights and signs."""
    from scipy.sparse.csgraph import shortest_path
    hops = shortest_path(sparse_matrix(network, "adjacency")[0], unweighted=True, indices=u)[w]
    if math.isinf(hops):
        raise ValueError(f"vertices {u} and {w} are disconnected")
    return int(hops)
