"""The Krylov single-time kernel and the basis-cap rule that picks it."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import expm

from pstnet import chains, spectral
from pstnet.chains import chain_pst_verify, pst_chain
from pstnet.graphs import graph_matrix, hypercube, make_graph, sparse_matrix
from pstnet.qudit import (QuditState, cycle_family, qudit_transfer,
                          transfer_amplitude_qudit, unitarity_audit)
from pstnet.spectral import DENSE_MAX_DIM, transfer_amplitude

from oracles import evolve, factor_free_hypercube, graph_spectrum

RNG = np.random.default_rng(7207)


def random_signed_graph(n, degree=6.0):
    """Erdos-Renyi signed graph with weights in [0.2, 2] and mean degree `degree`."""
    iu, ju = np.triu_indices(n, 1)
    keep = RNG.random(iu.size) < degree / (n - 1)
    weights = RNG.uniform(0.2, 2.0, keep.sum())
    signs = RNG.choice([-1, 1], keep.sum())
    return make_graph(n, zip(iu[keep].tolist(), ju[keep].tolist(),
                             weights.tolist(), signs.tolist()))


def krylov_amplitude(g, u, v, t, kind="adjacency"):
    """The library's Krylov column kernel on the graph's sparse matrix."""
    return spectral._krylov_entry(sparse_matrix(g, kind)[0], u, v, t)


def cube_amplitude(k, u, v, t):
    """<v|exp(-i t A(Q_k))|u> = cos(t)^(k-d) (-i sin t)^d, d the Hamming distance."""
    d = (u ^ v).bit_count()
    return math.cos(t) ** (k - d) * (-1j * math.sin(t)) ** d


@pytest.mark.parametrize("n", [300, 450, 600])
def test_krylov_matches_expm(n):
    g = random_signed_graph(n)
    times = RNG.permutation([RNG.uniform(0.0, 3.0), RNG.uniform(3.0, 15.0),
                             RNG.uniform(15.0, 30.0)])
    for kind, t in zip(("adjacency", "laplacian", "adjacency"), times.tolist()):
        u = int(RNG.integers(n))
        column = expm(-1j * t * graph_matrix(g, kind))[:, u]
        for v in [u, *RNG.integers(n, size=4).tolist()]:
            assert abs(krylov_amplitude(g, u, v, t, kind) - column[v]) <= 1e-10


def test_q14_beyond_the_dense_limit_matches_the_closed_form():
    k = 14
    g = factor_free_hypercube(k)
    assert g.vertex_count > DENSE_MAX_DIM
    n = g.vertex_count
    pairs = [(0, n - 1, math.pi / 2)]
    pairs += [(int(u), int(v), float(t)) for u, v, t in
              zip(RNG.integers(n, size=3), RNG.integers(n, size=3),
                  RNG.uniform(0.0, math.pi, size=3))]
    for u, v, t in pairs:
        rep = transfer_amplitude(g, u, v, t)
        want = cube_amplitude(k, u, v, t)
        assert abs(rep.magnitude - abs(want)) <= 1e-10
        assert abs(krylov_amplitude(g, u, v, t) - want) <= 1e-10
    assert transfer_amplitude(g, 0, n - 1, math.pi / 2).magnitude >= 1 - spectral.DEFAULT_PST_TOL


def test_large_cubes_at_short_times_need_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n x n eigensolve or Krylov column")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    # so every amplitude below comes from the walk module
    monkeypatch.setattr(spectral, "_krylov_entry", refuse)
    for k in (9, 10, 11):
        n = 1 << k
        for u, v, t in [(0, n - 1, math.pi / 2), (3, n // 3, math.pi),
                        (5, 6, 0.25)]:
            rep = transfer_amplitude(hypercube(k), u, v, t)
            assert abs(rep.magnitude - abs(cube_amplitude(k, u, v, t))) <= 1e-10


def test_krylov_column_only_past_the_basis_cap(monkeypatch, krylov_columns):
    """The column answers exactly when n min(n, m_tail(|t| ||M||_1)) passes
    the cap, chosen before any Lanczos work; chains take it the same way."""
    unit = 1.0 - spectral.DEFAULT_PST_TOL
    for k in range(1, 7):
        n = 1 << k
        for t in (0.3, math.pi / 2, 30.0):
            rep = transfer_amplitude(factor_free_hypercube(k), 0, n - 1, t)
            assert abs(rep.magnitude - abs(cube_amplitude(k, 0, n - 1, t))) <= 1e-10
    for n in range(2, 41):
        assert chain_pst_verify(pst_chain(n), math.pi / 2).magnitude >= unit
    # a long time no longer forces anything: Q_9 closes after 10 vectors
    rep = transfer_amplitude(factor_free_hypercube(9), 0, 511, 1000.0)
    assert abs(rep.magnitude - abs(cube_amplitude(9, 0, 511, 1000.0))) <= 1e-9
    assert krylov_columns == []
    # under a cap of 6 n entries, n min(n, m_tail) passes it at these times
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 6 * 64)
    monkeypatch.setattr(spectral, "walk_spectrum", lambda *a, **k: pytest.fail("walk ran"))
    for i, t in enumerate((0.3, math.pi / 2), start=1):
        rep = transfer_amplitude(factor_free_hypercube(6), 0, 63, t)
        assert len(krylov_columns) == i
        assert abs(rep.magnitude - abs(cube_amplitude(6, 0, 63, t))) <= 1e-10
    # a chain past its tridiagonal limit takes one Krylov column of T
    monkeypatch.setattr(chains, "CHAIN_TRIDIAGONAL_MAX_SITES", 63)
    rep = chain_pst_verify(pst_chain(64), math.pi / 2)
    assert rep.magnitude >= unit
    assert len(krylov_columns) == 3


def test_norm_drift_is_refused(monkeypatch, krylov_columns):
    spec = pst_chain(chains.CHAIN_TRIDIAGONAL_MAX_SITES + 1)
    real = scipy.sparse.linalg.expm_multiply
    rep = chain_pst_verify(spec, math.pi / 2)
    assert len(krylov_columns) == 1
    assert rep.magnitude == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply",
                        lambda a, b: (1.0 + 1e-6) * real(a, b))
    with pytest.raises(ValueError, match="norm drift"):
        chain_pst_verify(spec, math.pi / 2)


@pytest.mark.parametrize("call", [
    lambda g: transfer_amplitude(g, 0, 1, math.nan),
    lambda g: transfer_amplitude(g, 0, 1, -math.inf),
    lambda g: transfer_amplitude(g, 0, 1, math.inf),
    lambda g: chain_pst_verify(pst_chain(5), math.inf),
    lambda g: chain_pst_verify(pst_chain(300), math.inf),
    lambda g: chain_pst_verify(pst_chain(5), math.nan),
    lambda g: transfer_amplitude_qudit(cycle_family(4), 1, math.inf),
    lambda g: qudit_transfer(cycle_family(4), QuditState((1.0, 0.0), 0), 2, math.nan),
    lambda g: unitarity_audit(cycle_family(4), [0.5, math.inf]),
    lambda g: evolve(graph_spectrum(g), math.inf, np.array([1.0, 0.0])),
])
def test_non_finite_times_are_refused(call):
    with pytest.raises(ValueError, match=r"time (nan|inf|-inf) is not finite"):
        call(make_graph(2, [(0, 1)]))
