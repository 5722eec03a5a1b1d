import math

import numpy as np
import pytest

from pstnet.corona_lab import (TheoremHypothesisError,
                               corona_adjacency_eigenpairs, corona_edge_count,
                               corona_laplacian_eigenpairs,
                               corona_vertex_count, fidelity_vs_m,
                               iterate_corona, net_regularity)
from pstnet.graphs import (SignedWeightedGraph, adjacency, complete_graph,
                           corona, cycle_graph, laplacian, make_graph,
                           path_graph)
from pstnet.spectral import Spectrum, max_fidelity_scan_spectrum

GOLDEN = math.sqrt(5.0)


def test_net_regularity_unsigned_regular():
    assert net_regularity(complete_graph(4)) == 3
    assert net_regularity(cycle_graph(5)) == 2


def test_net_regularity_signed_square(signed_square):
    assert net_regularity(signed_square) == 0


def test_net_regularity_absent_for_star():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert net_regularity(star) is None


def test_unbalanced_k4_net_regular(unbalanced_k4):
    assert net_regularity(unbalanced_k4) == 1


# --- adjacency eigenpairs ---------------------------------------------------

def test_k2_pendant_eigenvalues():
    # K2 with one pendant per vertex is the 4-path; spectrum +-(1 +- sqrt5)/2
    k2 = complete_graph(2)
    k1 = SignedWeightedGraph(1, ())
    pairs = corona_adjacency_eigenpairs(k2, k1)
    got = sorted(p.value for p in pairs)
    want = sorted([(1 + GOLDEN) / 2, (1 - GOLDEN) / 2,
                   (-1 + GOLDEN) / 2, (-1 - GOLDEN) / 2])
    np.testing.assert_allclose(got, want, atol=1e-12)
    direct = np.linalg.eigvalsh(adjacency(corona(k2, k1)))
    np.testing.assert_allclose(got, direct, atol=1e-9)


def test_adjacency_pairs_complete_and_validated(signed_square):
    pairs = corona_adjacency_eigenpairs(signed_square, signed_square)
    assert len(pairs) == 4 * (1 + 4)
    product = adjacency(corona(signed_square, signed_square))
    for p in pairs:
        residual = np.max(np.abs(product @ p.vector - p.value * p.vector))
        assert residual <= 1e-8
    direct = np.linalg.eigvalsh(product)
    np.testing.assert_allclose(np.sort([p.value for p in pairs]), direct,
                               atol=1e-8)


def test_adjacency_pairs_unbalanced_seed(unbalanced_k4):
    pairs = corona_adjacency_eigenpairs(unbalanced_k4, unbalanced_k4)
    direct = np.linalg.eigvalsh(adjacency(corona(unbalanced_k4, unbalanced_k4)))
    np.testing.assert_allclose(np.sort([p.value for p in pairs]), direct,
                               atol=1e-8)


def test_adjacency_refusal_for_irregular_g2():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(TheoremHypothesisError):
        corona_adjacency_eigenpairs(complete_graph(2), star)


# --- laplacian eigenpairs ------------------------------------------------------

def test_laplacian_unsigned_formula():
    g1, g2 = complete_graph(2), path_graph(3)
    pairs = corona_laplacian_eigenpairs(g1, g2)
    w1 = np.linalg.eigvalsh(laplacian(g1))
    k = 3
    explicit = []
    for li in w1:
        disc = math.sqrt((1 - li - k) ** 2 + 4 * k)
        explicit += [(1 + li + k + disc) / 2, (1 + li + k - disc) / 2]
    got = sorted(p.value for p in pairs)
    for val in explicit:
        assert any(abs(val - g) < 1e-9 for g in got)
    direct = np.linalg.eigvalsh(laplacian(corona(g1, g2)))
    np.testing.assert_allclose(got, direct, atol=1e-8)


def test_laplacian_k3_self_corona():
    k3 = complete_graph(3)
    pairs = corona_laplacian_eigenpairs(k3, k3)
    direct = np.linalg.eigvalsh(laplacian(corona(k3, k3)))
    np.testing.assert_allclose(np.sort([p.value for p in pairs]), direct,
                               atol=1e-8)


def test_laplacian_signed_square(signed_square):
    pairs = corona_laplacian_eigenpairs(signed_square, signed_square)
    direct = np.linalg.eigvalsh(laplacian(corona(signed_square, signed_square)))
    np.testing.assert_allclose(np.sort([p.value for p in pairs]), direct,
                               atol=1e-8)


def test_laplacian_refusal_for_uneven_negative_degree():
    g2 = make_graph(3, [(0, 1, 1.0, -1), (1, 2, 1.0, 1)])
    with pytest.raises(TheoremHypothesisError):
        corona_laplacian_eigenpairs(complete_graph(2), g2)


# --- iterated corona -------------------------------------------------------------

def test_iterate_zero_is_seed(signed_square):
    assert iterate_corona(signed_square, 0) is signed_square


@pytest.mark.parametrize("seed_fn", [lambda: complete_graph(2),
                                     lambda: path_graph(3),
                                     lambda: complete_graph(3),
                                     lambda: complete_graph(4)])
@pytest.mark.parametrize("m", [1, 2])
def test_iterate_counts(seed_fn, m):
    seed = seed_fn()
    g = iterate_corona(seed, m)
    assert g.vertex_count == corona_vertex_count(seed.vertex_count, m)
    assert g.edge_count == corona_edge_count(seed.vertex_count,
                                             seed.edge_count, m)


def test_k3_second_corona_order():
    assert corona_vertex_count(3, 2) == 48


def test_iterate_size_guard():
    with pytest.raises(ValueError):
        iterate_corona(complete_graph(4), 5)


# --- fidelity scans ------------------------------------------------------------------

def test_signed_square_scan(signed_square):
    table = fidelity_vs_m(signed_square, (0, 2), 1)
    m0, m1 = table.rows
    assert m0.f_star == pytest.approx(1.0, abs=1e-9)
    assert m0.t_star == pytest.approx(math.pi / 2, abs=1e-6)
    assert m1.f_star < m0.f_star
    assert [r.provenance for r in table.rows] == ["direct", "direct"]
    # the paper's closed-form eigenpairs give the same dynamics as the
    # directly solved product
    pairs = sorted(corona_adjacency_eigenpairs(signed_square, signed_square),
                   key=lambda p: p.value)
    theorem = Spectrum(np.array([p.value for p in pairs]),
                       np.column_stack([p.vector for p in pairs]))
    t_star, f_star = max_fidelity_scan_spectrum(theorem, 0, 2, 20.0, 0.005)
    assert m1.f_star == pytest.approx(f_star, abs=1e-9)
    assert m1.t_star == pytest.approx(t_star, abs=1e-9)


def test_scan_other_pair(signed_square):
    table = fidelity_vs_m(signed_square, (1, 3), 0)
    assert table.rows[0].f_star == pytest.approx(1.0, abs=1e-9)


def test_scan_of_seed_outside_theorem_hypotheses():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert net_regularity(star) is None
    table = fidelity_vs_m(star, (1, 2), 1, t_max=5.0)
    assert [r.provenance for r in table.rows] == ["direct", "direct"]


def test_laplacian_corona_below_unity():
    g = path_graph(3)
    table = fidelity_vs_m(g, (0, 2), 1, matrix_kind="laplacian", t_max=20.0)
    assert table.rows[1].f_star < 1 - 1e-6


def test_scan_rejects_foreign_pair(signed_square):
    with pytest.raises(ValueError):
        fidelity_vs_m(signed_square, (0, 5), 1)
