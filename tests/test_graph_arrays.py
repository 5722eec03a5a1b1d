"""Array-stored graphs against the edge-by-edge constructions they replaced.

Each builder computes its edge arrays by index arithmetic; the references
here build the same graphs one Python edge at a time, the way the
tuple-stored graphs did, and the canonical edges, labels and markings must
agree exactly.  Balance on the signed double cover and the matrices built
from the sparse assembly must likewise give the (flag, theta) of the
spanning-tree search and the bytes of the dense formulas they replaced.
The malformed-edge table pins the constructor's messages, which name the
first offending edge in input order.
"""

import importlib.resources
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstnet import routing, spectral
from pstnet.cli import run
from pstnet.fileio import fmt, parse_graph_text
from pstnet.graphs import (Edge, MarkingScheme, SignedWeightedGraph, cartesian,
                           complete_graph, corona, cycle_graph, graph_matrix, hypercube,
                           is_balanced, make_graph, markings_under, path_graph)
from pstnet.spectral import Spectrum, max_fidelity_scan, max_fidelity_scan_spectrum

from oracles import (add_isolated, degree_matrix, disjoint_union, hamming,
                     induced_subgraph, serialize_graph)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def canon(edges):
    """Edges as the canonical tuple: u < v, sorted, Python int/float/int."""
    return tuple(sorted(Edge(min(u, v), max(u, v), float(w), int(s))
                        for u, v, w, s in edges))


def assert_same_graph(g, n, edges, labels=None, markings=None):
    assert g.vertex_count == n
    assert g.edges == canon(edges)
    assert all(type(e.u) is int and type(e.v) is int and type(e.weight) is float
               and type(e.sign) is int for e in g.edges)
    u, v, sw = g.edge_arrays
    assert (u.tolist(), v.tolist(), sw.tolist()) == (
        [e.u for e in g.edges], [e.v for e in g.edges],
        [e.sign * e.weight for e in g.edges])
    assert g.labels == labels
    assert g.markings == markings


# --- edge-by-edge references -------------------------------------------------

def ref_hamming(count, width):
    return [(v, v ^ (1 << b), 1.0, 1) for v in range(count) for b in range(width)
            if v < v ^ (1 << b) < count]


def ref_grow(edges, labels):
    n, width = len(labels), len(labels[0])
    new = format(n, f"0{width}b")
    joined = [(v, n, 1.0, 1) for v, lab in enumerate(labels)
              if hamming(lab, new) == 1]
    return edges + joined, labels + (new,)


def ref_marking(g, scheme):
    if scheme is MarkingScheme.EXPLICIT:
        return g.markings
    marks, dpos, dneg = [1] * g.vertex_count, [0] * g.vertex_count, [0] * g.vertex_count
    for u, v, _, s in g.edges:
        marks[u] *= s
        marks[v] *= s
        degree = dpos if s > 0 else dneg
        degree[u] += 1
        degree[v] += 1
    if scheme is MarkingScheme.CANONICAL:
        return tuple(marks)
    return tuple(1 if p >= q else -1 for p, q in zip(dpos, dneg))


def ref_cartesian(g, h):
    ng, nh = g.vertex_count, h.vertex_count
    edges = [(i * nh + a, i * nh + b, w, s) for i in range(ng) for a, b, w, s in h.edges]
    edges += [(a * nh + j, b * nh + j, w, s) for a, b, w, s in g.edges for j in range(nh)]
    labels = markings = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(g.labels[i] + h.labels[j] for i in range(ng) for j in range(nh))
    if g.markings is not None and h.markings is not None:
        markings = tuple(g.markings[i] * h.markings[j] for i in range(ng) for j in range(nh))
    return ng * nh, edges, labels, markings


def ref_union(g, h):
    off = g.vertex_count
    edges = list(g.edges) + [(u + off, v + off, w, s) for u, v, w, s in h.edges]
    labels = markings = None
    if g.labels is not None and h.labels is not None:
        cand = g.labels + h.labels
        if len(set(cand)) == len(cand) and len({len(l) for l in cand}) <= 1:
            labels = cand
    if g.markings is not None and h.markings is not None:
        markings = g.markings + h.markings
    return off + h.vertex_count, edges, labels, markings


def ref_induced(g, vertices):
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v], w, s) for u, v, w, s in g.edges if u in pos and v in pos]
    sub = lambda t: tuple(t[v] for v in keep) if t is not None else None
    return len(keep), edges, sub(g.labels), sub(g.markings)


def ref_corona(g1, g2, scheme):
    n, k = g1.vertex_count, g2.vertex_count
    mu1, mu2 = ref_marking(g1, scheme), ref_marking(g2, scheme)
    edges = list(g1.edges)
    edges += [(n + a * n + i, n + b * n + i, w, s) for a, b, w, s in g2.edges for i in range(n)]
    edges += [(i, n + j * n + i, 1.0, mu1[i] * mu2[j]) for i in range(n) for j in range(k)]
    markings = tuple(mu1) + tuple(mu2[j] for j in range(k) for _ in range(n))
    return n * (1 + k), edges, None, markings


@st.composite
def marked_graphs(draw):
    """Signed weighted graphs on 1..6 vertices, with or without labels and markings."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    edges = [(b, a, draw(st.sampled_from([0.25, 1.0, 1.5, 3.0])),
              draw(st.sampled_from([-1, 1]))) for a, b in chosen]
    labels = markings = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        labels = tuple(format(p, "03b") for p in order)
    if draw(st.booleans()):
        markings = tuple(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    return SignedWeightedGraph(n, edges, labels=labels, markings=markings)


# --- builders against their references -----------------------------------------

@pytest.mark.parametrize("k", range(13))
def test_hypercube_is_the_hamming_loop(k):
    # string position j is integer bit k-1-j; Q_0's one label is empty
    labels = tuple("".join(str(v >> (k - 1 - j) & 1) for j in range(k)) for v in range(1 << k))
    assert_same_graph(hypercube(k), 1 << k, ref_hamming(1 << k, k), labels)


def test_networks_are_the_hamming_loop():
    for n in range(2, 65):
        g, labeling = routing.build_network(n)
        labels = tuple(format(v, f"0{n.bit_length()}b") for v in range(n))
        assert_same_graph(g, n, ref_hamming(n, n.bit_length()), labels)
        assert labeling.labels == labels


def test_grow_and_widen_follow_the_label_loop():
    g, labeling = routing.build_network(2)
    edges, labels = list(g.edges), labeling.labels
    for _ in range(40):
        try:
            g, labeling = routing.grow(g, labeling)
            edges, labels = ref_grow(edges, labels)
        except routing.CapacityError:
            g, labeling = routing.widen_labels(g, labeling)
            labels = tuple("0" + lab for lab in labels)
        assert_same_graph(g, len(labels), edges, labels)
        assert labeling.labels == labels


@SETTINGS
@given(g=marked_graphs(), h=marked_graphs())
def test_products_and_unions_follow_the_edge_loops(g, h):
    assert_same_graph(cartesian(g, h), *ref_cartesian(g, h))
    assert_same_graph(disjoint_union(g, h), *ref_union(g, h))
    isolated = add_isolated(g, 2)
    assert_same_graph(isolated, g.vertex_count + 2, g.edges, None,
                      g.markings + (1, 1) if g.markings is not None else None)


@SETTINGS
@given(g=marked_graphs(), data=st.data())
def test_induced_subgraph_follows_the_edge_loop(g, data):
    vertices = data.draw(st.lists(st.integers(0, g.vertex_count - 1), min_size=1))
    assert_same_graph(induced_subgraph(g, vertices), *ref_induced(g, vertices))


@SETTINGS
@given(g1=marked_graphs(), g2=marked_graphs(), scheme=st.sampled_from(list(MarkingScheme)))
def test_corona_and_markings_follow_the_edge_loops(g1, g2, scheme):
    for g in (g1, g2):
        if scheme is not MarkingScheme.EXPLICIT or g.markings is not None:
            assert markings_under(g, scheme) == ref_marking(g, scheme)
    if scheme is MarkingScheme.EXPLICIT and None in (g1.markings, g2.markings):
        with pytest.raises(ValueError, match="requires stored markings"):
            corona(g1, g2, scheme)
        return
    assert_same_graph(corona(g1, g2, scheme), *ref_corona(g1, g2, scheme))


# --- storage, equality, immutability -------------------------------------------

def test_equality_round_trip_and_hash():
    g = corona(path_graph(3), path_graph(2))
    back = parse_graph_text(serialize_graph(g))
    assert back == g and hash(back) == hash(g)
    assert g != path_graph(3)
    assert make_graph(2, [(0, 1, 2.0)]) != make_graph(2, [(0, 1, 2.0, -1)])
    with pytest.raises(AttributeError):
        g.vertex_count = 3


def test_an_array_and_edge_tuples_build_the_same_graph():
    rows = [(3, 1, 0.5, -1), (0, 2, 2.0, 1), (1, 0, 1.0, 1)]
    a = SignedWeightedGraph(4, np.array(rows, dtype=float))
    b = SignedWeightedGraph(4, tuple(Edge(*r) for r in rows))
    assert a == b == make_graph(4, rows)
    assert a.edges == canon(rows)
    assert SignedWeightedGraph(3, ()).edge_count == 0


# --- balance and matrices against the code they replaced -------------------------

KINDS = ("adjacency", "laplacian")


def bfs_balance(g):
    """Spanning-tree sign propagation from each lowest unvisited vertex, then an
    audit of every edge: the balance check the double cover replaced."""
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    for u, v, _, s in g.edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
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


def dense_formula(g, kind):
    """A scattered into zeros, then D - A: the dense assembly that
    `graph_matrix` replaced (D - A written over A, to cut the peak on Q_12)."""
    u, v, sw = g.edge_arrays
    a = np.zeros((g.vertex_count, g.vertex_count))
    a[u, v] = sw
    a[v, u] = sw
    if kind == "adjacency":
        return a
    return np.subtract(degree_matrix(g), a, out=a)


def assert_same_as_replaced(g):
    flag, theta = is_balanced(g)
    assert (flag, theta) == bfs_balance(g)
    assert theta is None or all(type(t) is int for t in theta)
    for kind in KINDS:
        want, got = dense_formula(g, kind), graph_matrix(g, kind)
        # byte for byte, so -0.0 and 0.0 differ; a view copies nothing
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        del want, got


def _examples():
    folder = importlib.resources.files("pstnet") / "data" / "corona_examples"
    return [parse_graph_text((folder / f"example0{i}.graph").read_text(encoding="utf-8"))
            for i in range(1, 5)]


BUILTINS = ([(f"k{n}", complete_graph, n) for n in range(2, 9)]
            + [(f"p{n}", path_graph, n) for n in range(2, 13)]
            + [(f"c{n}", cycle_graph, n) for n in range(3, 13)]
            + [(f"q{k}", hypercube, k) for k in range(13)])


@pytest.mark.parametrize("name, build, size", BUILTINS, ids=[b[0] for b in BUILTINS])
def test_builtins_balance_and_matrices_as_before(name, build, size):
    assert_same_as_replaced(build(size))


def test_examples_and_networks_balance_and_matrices_as_before():
    for g in _examples():
        assert_same_as_replaced(g)
    for n in range(2, 65):
        assert_same_as_replaced(routing.build_network(n)[0])


@st.composite
def signed_pieces(draw):
    """Signed weighted graphs on 0..7 vertices: a switching of the unsigned graph
    with up to two edges flipped, so balanced and unbalanced both occur."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    theta = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    flipped = draw(st.sets(st.integers(0, 20), max_size=2))
    edges = [(b, a, draw(st.sampled_from([0.25, 1.0, 3.0])),
              theta[a] * theta[b] * (-1 if i in flipped else 1))
             for i, (a, b) in enumerate(chosen)]
    return make_graph(n, edges)


@SETTINGS
@given(g=signed_pieces(), h=signed_pieces(), isolated=st.integers(0, 2))
def test_signed_graphs_balance_and_matrices_as_before(g, h, isolated):
    # a union of pieces with isolated vertices between them has several components
    assert_same_as_replaced(disjoint_union(add_isolated(g, isolated), h))


def test_balance_of_the_empty_graph():
    assert is_balanced(make_graph(0, [])) == (True, ())


# --- text format round trip --------------------------------------------------------

def test_a_weight_that_twelve_digits_lose_round_trips():
    g = make_graph(2, [(0, 1, 1 / 99)])
    text = serialize_graph(g)
    assert text == f"graph 2\nedge 0 1 {1 / 99!r} +\n"
    assert parse_graph_text(text) == g


@st.composite
def labelled_graphs(draw):
    """Graphs on 1..6 vertices with any positive finite weights, with or without
    labels and markings."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    weights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    edges = [(a, b, draw(weights), draw(st.sampled_from([-1, 1]))) for a, b in chosen]
    labels = markings = None
    if draw(st.booleans()):
        codes = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n, unique=True))
        labels = tuple(format(c, "04b") for c in codes)
    if draw(st.booleans()):
        markings = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return SignedWeightedGraph(n, edges, labels=labels, markings=markings)


@SETTINGS
@given(g=labelled_graphs())
def test_serialize_round_trips_and_keeps_twelve_digits_where_they_suffice(g):
    text = serialize_graph(g)
    assert parse_graph_text(text) == g
    written = [line.split()[3] for line in text.splitlines() if line.startswith("edge")]
    for text_w, w in zip(written, np.abs(g.edge_arrays[2]).tolist(), strict=True):
        if float(fmt(w)) == w:
            assert text_w == fmt(w)


# --- malformed edges ------------------------------------------------------------

MALFORMED = [   # (bad edge after a valid one on 4 vertices, message)
    ((2, 7, 1.0, 1), "edge (2,7) out of range for 4 vertices"),
    ((-1, 2, 1.0, 1), "edge (-1,2) out of range for 4 vertices"),
    ((2, 2, 1.0, 1), "self-loop at vertex 2"),
    ((2, 3, 0.0, 1), "edge (2,3) has non-positive weight 0.0"),
    ((3, 2, -1.5, -1), "edge (3,2) has non-positive weight -1.5"),
    ((3, 2, -math.inf, 1), "edge (3,2) has non-positive weight -inf"),
    ((1, 3, math.nan, 1), "edge (1,3) has non-finite weight nan"),
    ((1, 3, math.inf, -1), "edge (1,3) has non-finite weight inf"),
    ((1, 3, 1.0, 0), "edge (1,3) has sign 0, expected +1 or -1"),
    ((1, 3, 1.0, 2), "edge (1,3) has sign 2, expected +1 or -1"),
    ((1, 0, 2.0, -1), "duplicate edge (0,1)"),
    ((0.5, 2, 1.0, 1), "edge (0.5,2) has a non-integral endpoint"),
]


@pytest.mark.parametrize("bad, message", MALFORMED)
def test_malformed_edge_gives_one_message_however_passed(bad, message):
    rows = [(0, 1, 1.0, 1), bad]
    for edges in (tuple(Edge(*r) for r in rows), np.array(rows, dtype=float), rows):
        with pytest.raises(ValueError) as exc:
            SignedWeightedGraph(4, edges)
        assert str(exc.value) == message


def test_first_offending_edge_in_input_order_wins():
    # each edge is judged rule by rule, the first bad edge names its rule,
    # and repeats are found only once every edge passes
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        make_graph(4, [(0, 1), (1, 1), (0, 9), (1, 0)])
    with pytest.raises(ValueError, match=r"^edge \(0,9\) out of range"):
        make_graph(4, [(0, 1), (0, 9, -1.0, 3), (1, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,2\)$"):
        make_graph(4, [(2, 3), (2, 1), (3, 2), (1, 2)])


@SETTINGS
@given(data=st.data())
def test_tables_in_any_order_sort_or_name_their_first_repeat(data):
    # a table in canonical order is kept as it is, any other is sorted; a
    # repeated pair, adjacent in a canonical table or not, is refused
    n = data.draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1)))
    rows = [(a, b, data.draw(st.sampled_from([0.5, 1.0, 2.0])),
             data.draw(st.sampled_from([-1, 1]))) for a, b in chosen]
    repeats = data.draw(st.lists(st.sampled_from(rows), unique=True, max_size=2))
    table = sorted(rows + repeats, key=lambda r: r[:2])
    if data.draw(st.booleans()):
        table = data.draw(st.permutations(table))
        table = [(b, a, w, sg) if data.draw(st.booleans()) else (a, b, w, sg)
                 for a, b, w, sg in table]
    if repeats:
        a, b = min(r[:2] for r in repeats)
        with pytest.raises(ValueError, match=rf"^duplicate edge \({a},{b}\)$"):
            SignedWeightedGraph(n, np.array(table, dtype=float))
    else:
        assert_same_graph(SignedWeightedGraph(n, np.array(table, dtype=float)), n, rows)


def test_edges_must_be_rows_of_four():
    with pytest.raises(ValueError, match="rows"):
        SignedWeightedGraph(4, np.zeros((4, 3)))


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_cli_refuses_a_non_finite_weight_with_its_line(weight, tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text(f"graph 3\nedge 0 1 1 +\nedge 1 2 {weight} +\n", encoding="utf-8")
    for argv in (["graph", str(path)], ["pst", "--graph", str(path), "--from", "0", "--to", "2"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"line 3: weight '{weight}' is not finite\n"


# --- zero amplitudes --------------------------------------------------------------

def test_a_vanishing_amplitude_scans_to_zero_at_zero(monkeypatch):
    monkeypatch.setattr(spectral, "_refine_peak",
                        lambda *a: pytest.fail("a zero amplitude was refined"))
    assert max_fidelity_scan(make_graph(4, [(0, 1), (2, 3)]), 0, 3, 5.0, 0.01) == (0.0, 0.0)
    apart = Spectrum(np.array([-1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert max_fidelity_scan_spectrum(apart, 5.0, 0.01) == (0.0, 0.0)


def test_chain_beyond_the_walk_reports_zero_at_zero(capsys):
    # at --tmax 200 the walk from site 0 never reaches site 2999
    assert run(["chain", "--n", "3000", "--unmodulated"]) == 0
    assert capsys.readouterr().out == "3000,0,0\n"
