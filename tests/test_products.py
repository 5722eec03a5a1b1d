"""Cartesian products: the factors `cartesian` and `hypercube` record, and
the transfer amplitudes `transfer_amplitude` multiplies from them.

Product amplitudes are checked against the walk on a factor-free copy of
the same graph, against `scipy.linalg.expm` of the whole matrix, and
against the hypercube's closed form |cos t|^(k-d) |sin t|^d.
"""

import cmath
import math
import time
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from pstnet import spectral
from pstnet.cli import run
from pstnet.graphs import (SignedWeightedGraph, cartesian, complete_graph, cycle_graph,
                           edge_table, graph_matrix, hypercube, make_graph, path_graph,
                           sparse_matrix)
from pstnet.spectral import transfer_amplitude

from oracles import factor_free_hypercube

KINDS = ("adjacency", "laplacian")
TIMES = (0.0, 0.3, math.pi / 2, 2.9, 30.0)
RNG = np.random.default_rng(2804)
# mixed products of at most 64 vertices, each built from its factors
MIXED = {
    "K2(1/3) box P3": (make_graph(2, [(0, 1, 1 / 3)]), path_graph(3)),
    "C4 box signed triangle": (cycle_graph(4), make_graph(3, [(0, 1), (1, 2), (0, 2, 1, -1)])),
    "P3 box P3 box K2": (path_graph(3), path_graph(3), complete_graph(2)),
    "weighted P4 box K2": (make_graph(4, [(0, 1, 0.5), (1, 2, 1.5), (2, 3, 2.0)]),
                           complete_graph(2)),
}


def amplitude(g, u, v, t):
    rep = transfer_amplitude(g, u, v, t)
    return rep.magnitude * cmath.exp(1j * rep.phase)


def factor_free(g):
    """g with no recorded factors: the same vertices, edges, labels and markings."""
    return SignedWeightedGraph(g.vertex_count, edge_table(*g.edge_arrays),
                               labels=g.labels, markings=g.markings)


def kronecker_sum(matrices):
    """sum_i I kron M_i kron I, the first matrix the most significant digit."""
    sizes = [len(m) for m in matrices]
    total = np.zeros((math.prod(sizes),) * 2)
    for i, m in enumerate(matrices):
        left, right = np.eye(math.prod(sizes[:i])), np.eye(math.prod(sizes[i + 1:]))
        total += np.kron(np.kron(left, m), right)
    return total


@pytest.fixture
def whole_product_refused(monkeypatch):
    """No walk or Krylov column may run on a graph of at least `size` vertices:
    set the size, and only factors smaller than the product are walked."""
    limit = {"size": math.inf}
    walk, column = spectral.walk_spectrum, spectral._krylov_entry

    def guarded_walk(g, *args):
        assert g.vertex_count < limit["size"], "walk ran on the whole product"
        return walk(g, *args)

    def guarded_column(matrix, *args):
        assert matrix.shape[0] < limit["size"], "Krylov column on the whole product"
        return column(matrix, *args)
    monkeypatch.setattr(spectral, "walk_spectrum", guarded_walk)
    monkeypatch.setattr(spectral, "_krylov_entry", guarded_column)
    return limit


# --- the recorded factors ------------------------------------------------------------

@pytest.mark.parametrize("k", range(2, 11))
def test_hypercube_factors_are_its_cartesian_fold(k):
    g = hypercube(k)
    fold = reduce(cartesian, [hypercube(1)] * k)
    assert all(map(np.array_equal, g.edge_arrays, fold.edge_arrays))
    assert g.labels == fold.labels
    assert len(g.factors) == k and len({id(f) for f in g.factors}) == 1
    assert g.factors[0] == hypercube(1) and g.factors[0].factors is None
    assert len(fold.factors) == k


def test_graphs_built_otherwise_record_no_factors():
    for g in (hypercube(0), hypercube(1), path_graph(4), factor_free(hypercube(5))):
        assert g.factors is None


@pytest.mark.parametrize("name", MIXED)
@pytest.mark.parametrize("kind", KINDS)
def test_product_matrices_are_kronecker_sums(name, kind):
    """L adds as A does, because degrees add; so do the 1-norms."""
    parts = MIXED[name]
    g = reduce(cartesian, parts)
    assert g.factors == parts and all(a is b for a, b in zip(g.factors, parts))
    matrix, norm = sparse_matrix(g, kind)
    want = kronecker_sum([graph_matrix(f, kind) for f in parts])
    np.testing.assert_allclose(matrix.toarray(), want, rtol=0, atol=1e-14)
    assert norm == pytest.approx(sum(sparse_matrix(f, kind)[1] for f in parts), abs=1e-14)


def test_products_equal_and_hash_as_their_factor_free_copies():
    for g in [hypercube(6), *(reduce(cartesian, parts) for parts in MIXED.values())]:
        copy = factor_free(g)
        assert g.factors is not None and copy.factors is None
        assert g == copy and copy == g
        assert hash(g) == hash(copy)


def test_q0_has_the_empty_label(capsys):
    assert hypercube(0).labels == ("",)
    assert cartesian(hypercube(1), hypercube(0)).labels == ("0", "1")
    assert cartesian(hypercube(0), hypercube(3)).labels == hypercube(3).labels
    assert run(["graph", "q0", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"balanced": true, "edges": 0, "has_labels": true, "has_markings": false, '
        '"net_regularity": 0, "vertices": 1}\n')


# --- product amplitudes --------------------------------------------------------------

@pytest.mark.parametrize("k", range(2, 6))
def test_cube_amplitudes_match_the_walk_on_every_pair(k, whole_product_refused):
    n = 1 << k
    plain = factor_free_hypercube(k)
    walked = {(u, v, t): amplitude(plain, u, v, t)
              for u in range(n) for v in range(n) for t in TIMES}
    whole_product_refused["size"] = n
    g = hypercube(k)
    for (u, v, t), want in walked.items():
        assert abs(amplitude(g, u, v, t) - want) <= 1e-12


@pytest.mark.parametrize("k", range(9, 12))
def test_large_cube_amplitudes_match_the_walk_on_seeded_pairs(k, whole_product_refused):
    n = 1 << k
    queries = [(n - 1, 0, math.pi / 2)]
    queries += [(int(u), int(v), float(t)) for u, v, t in
                zip(RNG.integers(n, size=6), RNG.integers(n, size=6),
                    RNG.uniform(0.0, 30.0, size=6))]
    plain = factor_free_hypercube(k)
    walked = [amplitude(plain, u, v, t) for u, v, t in queries]
    whole_product_refused["size"] = n
    g = hypercube(k)
    for (u, v, t), want in zip(queries, walked):
        assert abs(amplitude(g, u, v, t) - want) <= 1e-12


@pytest.mark.parametrize("name", MIXED)
def test_mixed_product_amplitudes_match_expm(name, whole_product_refused):
    g = reduce(cartesian, MIXED[name])
    n = g.vertex_count
    assert n <= 64
    whole_product_refused["size"] = n
    for t in (0.3, 2.9, 11.0):
        propagator = expm(-1j * t * graph_matrix(g, "adjacency"))
        for u in range(n):
            for v in range(n):
                assert abs(amplitude(g, u, v, t) - propagator[v, u]) <= 1e-12


def test_q14_at_a_long_time_takes_factor_walks(whole_product_refused):
    g = hypercube(14)
    whole_product_refused["size"] = g.vertex_count
    t = 1e4
    start = time.perf_counter()
    rep = transfer_amplitude(g, 0, 1, t)
    elapsed = time.perf_counter() - start
    assert abs(rep.magnitude - abs(math.cos(t)) ** 13 * abs(math.sin(t))) <= 1e-9
    assert elapsed < 1.0


@pytest.mark.parametrize("u,v,t,line", [
    (0, 1, 1e17, "walk amplitude at |t| ||M||_1 = 1.4e+18 is refused: past 2^53 its "
                 "phase has no digit below a radian"),
    (0, 16384, 1.0, "vertex 16384 is outside 0..16383"),
    (-1, 0, 1.0, "vertex -1 is outside 0..16383"),
    (0, 1, math.nan, "time nan is not finite"),
])
def test_product_refusals_come_before_any_factor_work(monkeypatch, u, v, t, line):
    def refuse(*args):
        raise AssertionError("factor work before the refusal")
    for name in ("walk_spectrum", "_krylov_entry", "_factor_amplitude"):
        monkeypatch.setattr(spectral, name, refuse)
    for g in (hypercube(14), factor_free_hypercube(14)):
        with pytest.raises(ValueError) as info:
            transfer_amplitude(g, u, v, t)
        assert str(info.value) == line
