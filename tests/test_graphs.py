import importlib.resources
import math

import numpy as np
import pytest
from scipy.linalg import expm

from pstnet.fileio import GraphFormatError, parse_graph_text
from pstnet.graphs import (Edge, MarkingScheme, SignedWeightedGraph, canonical_marking,
                           cartesian, complete_graph, corona, cycle_graph,
                           graph_matrix, hypercube, is_balanced, laplacian, make_graph,
                           path_graph, plurality_marking, sparse_matrix)

from oracles import (adjacency, add_isolated, degree_matrix, disjoint_union,
                     induced_subgraph)


def test_k2_adjacency():
    np.testing.assert_allclose(adjacency(complete_graph(2)), [[0, 1], [1, 0]])


def test_signed_square_adjacency(signed_square):
    a = adjacency(signed_square)
    expected = np.array([[0, -1, 0, 1],
                         [-1, 0, 1, 0],
                         [0, 1, 0, -1],
                         [1, 0, -1, 0]], dtype=float)
    np.testing.assert_allclose(a, expected)


def test_q3_row_sums():
    a = adjacency(hypercube(3))
    np.testing.assert_allclose(a.sum(axis=1), 3.0)


def test_k2_laplacian():
    np.testing.assert_allclose(laplacian(complete_graph(2)), [[1, -1], [-1, 1]])


def test_p3_laplacian():
    lap = laplacian(path_graph(3))
    np.testing.assert_allclose(np.diag(lap), [1, 2, 1])
    np.testing.assert_allclose(lap, np.diag([1, 2, 1]) - adjacency(path_graph(3)))


@pytest.mark.parametrize("g", [path_graph(5), hypercube(3), complete_graph(4),
                               cycle_graph(6)])
def test_unsigned_laplacian_annihilates_ones(g):
    ones = np.ones(g.vertex_count)
    np.testing.assert_allclose(laplacian(g) @ ones, 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(laplacian(g)).min() >= -1e-10


@pytest.mark.parametrize("g", [hypercube(4), corona(complete_graph(3), path_graph(2))])
def test_matrices_symmetric(g):
    for m in (adjacency(g), laplacian(g)):
        np.testing.assert_allclose(m, m.T, atol=1e-12)


# --- hypercubes ------------------------------------------------------------

def test_hypercube_small():
    q1 = hypercube(1)
    assert q1.labels == ("0", "1")
    assert q1.edge_count == 1
    q3 = hypercube(3)
    assert q3.vertex_count == 8
    assert q3.edge_count == 12


def test_hypercube_edge_count_formula():
    assert hypercube(8).edge_count == 8 * 2 ** 7 == 1024


def test_hypercube_degrees_and_antipodal_automorphism():
    for k in (2, 3, 5):
        g = hypercube(k)
        ends = np.concatenate(g.edge_arrays[:2])
        assert np.bincount(ends, minlength=g.vertex_count).tolist() == [k] * g.vertex_count
        a = adjacency(g)
        perm = [v ^ ((1 << k) - 1) for v in range(g.vertex_count)]
        np.testing.assert_allclose(a[np.ix_(perm, perm)], a)


def test_hypercube_dimension_guard():
    with pytest.raises(ValueError):
        hypercube(21)


# --- cartesian product -----------------------------------------------------

def test_k2_box_k2_is_labeled_square():
    q2 = cartesian(hypercube(1), hypercube(1))
    assert q2.labels == ("00", "01", "10", "11")
    np.testing.assert_allclose(adjacency(q2), adjacency(hypercube(2)))


def test_cartesian_identity_element():
    g = path_graph(3)
    prod = cartesian(g, hypercube(0))
    assert prod.vertex_count == g.vertex_count
    np.testing.assert_allclose(adjacency(prod), adjacency(g))


def test_cartesian_kronecker_sum():
    g, h = path_graph(3), cycle_graph(4)
    lhs = adjacency(cartesian(g, h))
    rhs = np.kron(adjacency(g), np.eye(4)) + np.kron(np.eye(3), adjacency(h))
    np.testing.assert_allclose(lhs, rhs)


def test_cartesian_eigenvalues_are_pairwise_sums():
    g = path_graph(3)
    w = np.linalg.eigvalsh(adjacency(g))
    sums = np.sort(np.add.outer(w, w).ravel())
    np.testing.assert_allclose(np.linalg.eigvalsh(adjacency(cartesian(g, g))),
                               sums, atol=1e-9)


# --- unions ----------------------------------------------------------------

def test_disjoint_union_blocks():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1
    np.testing.assert_allclose(adjacency(g), expected)


def test_block_diagonal_exponential():
    g = disjoint_union(path_graph(3), complete_graph(2))
    a = adjacency(g)
    u = expm(-1j * a * 0.9)
    u1 = expm(-1j * adjacency(path_graph(3)) * 0.9)
    u2 = expm(-1j * adjacency(complete_graph(2)) * 0.9)
    np.testing.assert_allclose(u[:3, :3], u1, atol=1e-12)
    np.testing.assert_allclose(u[3:, 3:], u2, atol=1e-12)
    np.testing.assert_allclose(u[:3, 3:], 0, atol=1e-12)


def test_isolated_vertices_preserve_transfer():
    g = add_isolated(complete_graph(2), 5)
    u = expm(-1j * adjacency(g) * (math.pi / 2))
    assert abs(abs(u[1, 0]) - 1.0) < 1e-12


# --- balance ---------------------------------------------------------------

def test_all_positive_triangle_balanced():
    flag, theta = is_balanced(complete_graph(3))
    assert flag
    assert theta == (1, 1, 1)


def test_one_negative_triangle_unbalanced():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2, 1.0, -1)])
    assert is_balanced(g) == (False, None)


def test_signed_square_balanced(signed_square):
    flag, theta = is_balanced(signed_square)
    assert flag
    a = adjacency(signed_square)
    th = np.diag(theta)
    unsigned = np.abs(a)
    np.testing.assert_allclose(th @ unsigned @ th, a)


def test_balanced_signing_preserves_spectrum(signed_square):
    signed = np.linalg.eigvalsh(adjacency(signed_square))
    unsigned = np.linalg.eigvalsh(np.abs(adjacency(signed_square)))
    np.testing.assert_allclose(signed, unsigned, atol=1e-9)


# --- induced subgraphs -----------------------------------------------------

def test_induced_on_everything_is_identity():
    g = cycle_graph(5)
    sub = induced_subgraph(g, range(5))
    assert sub.edges == g.edges


def test_q3_induces_q2():
    q3 = hypercube(3)
    sub = induced_subgraph(q3, [0, 1, 2, 3])
    assert sub.vertex_count == 4
    assert sub.edge_count == 4
    np.testing.assert_allclose(adjacency(sub), adjacency(hypercube(2)))


def test_empty_induced_set_rejected():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [])


def test_path_graph_spectrum():
    w = np.linalg.eigvalsh(adjacency(path_graph(3)))
    np.testing.assert_allclose(w, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)


# --- markings and corona ---------------------------------------------------

def test_canonical_marking_of_signed_square(signed_square):
    assert canonical_marking(signed_square) == (-1, -1, -1, -1)


def test_plurality_tie_marks_positive(signed_square):
    # every vertex has d+ = d- = 1
    assert plurality_marking(signed_square) == (1, 1, 1, 1)


def test_marking_schemes_can_disagree():
    # middle vertex: canonical gives -, plurality tie gives +
    g = make_graph(3, [(0, 1, 1.0, -1), (1, 2, 1.0, 1)])
    assert canonical_marking(g)[1] == -1
    assert plurality_marking(g)[1] == 1
    a_can = adjacency(corona(g, g, MarkingScheme.CANONICAL))
    a_plu = adjacency(corona(g, g, MarkingScheme.PLURALITY))
    assert not np.allclose(a_can, a_plu)


def test_corona_counts():
    k3 = complete_graph(3)
    g1 = corona(k3, k3)
    assert g1.vertex_count == 12
    assert g1.edge_count == 3 + (3 + 3) * 3


def test_corona_block_structure():
    g1, g2 = complete_graph(2), path_graph(3)
    prod = corona(g1, g2)
    a = adjacency(prod)
    n, k = 2, 3
    np.testing.assert_allclose(a[:n, :n], adjacency(g1))
    np.testing.assert_allclose(a[n:, n:], np.kron(adjacency(g2), np.eye(n)))
    mu1 = np.array(canonical_marking(g1), dtype=float)
    mu2 = np.array(canonical_marking(g2), dtype=float)
    np.testing.assert_allclose(a[:n, n:], np.kron(mu2[None, :], np.diag(mu1)))


def test_explicit_scheme_requires_markings():
    g = complete_graph(2)
    with pytest.raises(ValueError):
        corona(g, g, MarkingScheme.EXPLICIT)


# --- validation ------------------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1), (1, 0)])


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1, -2.0)])


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        SignedWeightedGraph(2, (Edge(0, 1, 1.0, 1),), labels=("0", "0"))


def test_rejects_a_second_mark_line():
    # a second mark for a vertex is refused, not applied over the first
    with pytest.raises(GraphFormatError, match="^line 3: duplicate mark for vertex 0$"):
        parse_graph_text("graph 2\nmark 0 +\nmark 0 -\nedge 0 1 1 +\n")


def test_degrees_are_float_without_edges():
    # bincount over no weights counts in int64; the degrees stay float64
    for g in (hypercube(0), make_graph(3, []), hypercube(1)):
        assert degree_matrix(g).dtype == laplacian(g).dtype == np.float64
    assert laplacian(make_graph(3, [])).tobytes() == np.zeros((3, 3)).tobytes()


def test_rejects_unknown_vertex_data():
    with pytest.raises(TypeError):
        make_graph(2, [(0, 1)], potentials=(5.0, 0.0))


# --- array assembly ----------------------------------------------------------

def _loop_matrices(g):
    """The per-edge Python loops the array assembly replaced, kept as reference."""
    a = np.zeros((g.vertex_count, g.vertex_count))
    d = np.zeros(g.vertex_count)
    for u, v, w, s in g.edges:
        a[u, v] = a[v, u] = s * w
        d[u] += w
        d[v] += w
    return {"adjacency": a, "laplacian": np.diag(d) - a}


def _assembly_inputs():
    examples = importlib.resources.files("pstnet") / "data" / "corona_examples"
    seeds = [parse_graph_text((examples / f"example0{i}.graph").read_text(encoding="utf-8"))
             for i in range(1, 5)]
    rng = np.random.default_rng(4242)
    randoms = []
    for n in (2, 7, 30, 90):
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < 0.4
        randoms.append(make_graph(n, zip(iu[keep].tolist(), ju[keep].tolist(),
                                         rng.uniform(1e-3, 7.0, keep.sum()).tolist(),
                                         rng.choice([-1, 1], keep.sum()).tolist())))
    coronas = [corona(seeds[0], seeds[1]), corona(seeds[3], seeds[2]),
               corona(corona(seeds[0], seeds[0]), seeds[0])]
    return seeds + coronas + randoms + [make_graph(3, [])]


@pytest.mark.parametrize("g", _assembly_inputs())
def test_array_assembly_equals_the_edge_loop(g):
    for kind, want in _loop_matrices(g).items():
        assert np.array_equal(graph_matrix(g, kind), want)
        assert np.array_equal(sparse_matrix(g, kind)[0].toarray(), want)


def test_edge_arrays_are_read_only_and_cached():
    g = make_graph(3, [(0, 1, 2.0, -1), (1, 2, 0.5)])
    u, v, sw = g.edge_arrays
    assert u.tolist() == [0, 1] and v.tolist() == [1, 2] and sw.tolist() == [-2.0, 0.5]
    assert g.edge_arrays is g.edge_arrays
    with pytest.raises(ValueError):
        sw[0] = 1.0
    with pytest.raises(ValueError):
        sparse_matrix(g, "bogus")


def test_edge_arrays_list_each_incidence_in_edge_order():
    g = make_graph(4, [(2, 0, 1.0, -1), (0, 1), (3, 2)])
    u, v, sw = g.edge_arrays
    assert (u.tolist(), v.tolist(), sw.tolist()) == ([0, 0, 2], [1, 2, 3], [1.0, -1.0, 1.0])

