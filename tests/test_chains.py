import math

import numpy as np
import pytest

from pstnet import chains, graphs, spectral
from pstnet.chains import (ChainSpec, chain_pst_verify, column_project, pst_chain,
                           unmodulated_no_pst_scan)
from pstnet.graphs import hypercube, path_graph
from pstnet.spectral import Spectrum, check_pst_conditions
from pstnet.graphs import make_graph

from oracles import (adjacency, chain_matrix, evolve, graph_spectrum,
                     unmodulated_chain_spectrum)


def test_two_site_chain():
    spec = pst_chain(2)
    assert spec.couplings == (1.0,)


def test_four_site_couplings():
    spec = pst_chain(4)
    np.testing.assert_allclose(spec.couplings, [math.sqrt(3), 2.0, math.sqrt(3)])


def test_mirror_symmetry():
    for n in (3, 7, 12):
        js = pst_chain(n).couplings
        np.testing.assert_allclose(js, js[::-1])


def test_chain_spec_rejects_asymmetric():
    with pytest.raises(ValueError):
        ChainSpec((1.0, 2.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_chain_spec_rejects_non_finite_couplings(bad):
    # inf passed both the sign and the mirror test, and NaN compares false
    # to both, so neither was refused before the tridiagonal solve
    with pytest.raises(ValueError, match=f"coupling 1 is not finite: {bad}"):
        ChainSpec((1.0, bad, 1.0))
    with pytest.raises(ValueError, match="coupling 0 is not finite"):
        ChainSpec((bad,))


def test_rejects_single_site():
    with pytest.raises(ValueError):
        pst_chain(1)


# --- column projection -------------------------------------------------------

def test_column_project_k1():
    spec = column_project(1)
    assert spec.length == 2
    np.testing.assert_allclose(spec.couplings, [1.0])


def test_column_project_matches_engineered_chain():
    for k in (2, 3, 6, 10):
        np.testing.assert_allclose(column_project(k).couplings,
                                   pst_chain(k + 1).couplings, atol=1e-9)


def test_column_projection_preserves_dynamics():
    # amplitude between the end columns of Q_k equals the chain amplitude
    k = 5
    g = hypercube(k)
    n = g.vertex_count
    cols = []
    weights = np.array([bin(v).count("1") for v in range(n)])
    for i in range(k + 1):
        vec = (weights == i).astype(float)
        cols.append(vec / np.linalg.norm(vec))
    spec_cube = graph_spectrum(g)
    spec_chain = Spectrum.from_matrix(chain_matrix(pst_chain(k + 1)))
    for t in (0.37, 1.1, math.pi / 2):
        big = evolve(spec_cube, t, cols[0].astype(complex))
        amp_cube = cols[-1] @ big
        e0 = np.zeros(k + 1, dtype=complex)
        e0[0] = 1.0
        amp_chain = evolve(spec_chain, t, e0)[-1]
        assert amp_cube == pytest.approx(amp_chain, abs=1e-9)


def test_column_project_guard(monkeypatch):
    # the guard is the walk-module basis cap: Q_5 needs 6 vectors of 32
    with pytest.raises(ValueError):
        column_project(0)
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 5 * 32)
    assert column_project(4).length == 5
    with pytest.raises(ValueError, match="above the basis cap of 160 entries"):
        column_project(5)


# --- transfer ------------------------------------------------------------------

def test_chain_verify_two_sites():
    rep = chain_pst_verify(pst_chain(2), math.pi / 2)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-9)


def test_chain_verify_fifty_sites():
    rep = chain_pst_verify(pst_chain(50), math.pi / 2)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-8)


def test_chain_partial_time():
    rep = chain_pst_verify(pst_chain(5), math.pi / 4)
    assert rep.magnitude < 1.0 - 1e-6


def test_long_chain_takes_no_n_by_n_solve(monkeypatch, krylov_columns):
    import scipy.linalg.lapack
    limit = chains.CHAIN_TRIDIAGONAL_MAX_SITES
    unit = 1.0 - spectral.DEFAULT_PST_TOL
    rep = chain_pst_verify(pst_chain(limit), math.pi / 2)
    assert len(krylov_columns) == 0 and rep.magnitude >= unit
    monkeypatch.setattr(scipy.linalg.lapack, "dstevd",
                        lambda *a, **k: pytest.fail("n x n tridiagonal solve"))
    rep = chain_pst_verify(pst_chain(limit + 1), math.pi / 2)
    assert len(krylov_columns) == 1 and rep.magnitude >= unit
    # a short time does not bring the solve back: X = 2 at t = 1
    n = spectral.DENSE_MAX_DIM + 1
    rep = chain_pst_verify(ChainSpec((1.0,) * (n - 1)), 1.0)
    assert len(krylov_columns) == 2 and rep.magnitude < 1e-12


def test_engineered_spectrum_is_integer_ladder():
    for n in (4, 9):
        w = np.linalg.eigvalsh(chain_matrix(pst_chain(n)))
        np.testing.assert_allclose(w, np.arange(-(n - 1), n, 2), atol=1e-9)


@pytest.mark.parametrize("n", range(2, 31))
def test_pst_conditions_hold_for_engineered_chains(n):
    spec = pst_chain(n)
    g = make_graph(n, [(i, i + 1, spec.couplings[i]) for i in range(n - 1)])
    rep = check_pst_conditions(g, 0, n - 1)
    assert rep.vector_condition
    assert rep.rationality


# --- uniform chains ----------------------------------------------------------------

def test_uniform_spectrum_closed_form():
    for n in (4, 6, 9):
        got = np.linalg.eigvalsh(chain_matrix(ChainSpec((1.0,) * (n - 1))))
        np.testing.assert_allclose(got, unmodulated_chain_spectrum(n), atol=1e-9)


def test_uniform_two_sites_control():
    t_star, f_star = unmodulated_no_pst_scan(2, 10.0)
    assert t_star == pytest.approx(math.pi / 2, abs=1e-9)
    assert f_star == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_uniform_no_perfect_transfer(n):
    _, f_star = unmodulated_no_pst_scan(n, 200.0)
    assert f_star < 1.0 - 1e-6


def test_scan_rejects_single_site():
    with pytest.raises(ValueError):
        unmodulated_no_pst_scan(1, 10.0)


def test_uniform_scan_refuses_before_building_the_matrix(monkeypatch):
    for n in (2, 5, 64):
        assert np.array_equal(adjacency(path_graph(n)),
                              chain_matrix(ChainSpec((1.0,) * (n - 1))))

    def built(*args):
        pytest.fail("a dense chain matrix was built")

    monkeypatch.setattr(graphs, "graph_matrix", built)
    # the scan walks the sparse path from site 0, so the dense limit does not bind
    monkeypatch.setattr(spectral, "DENSE_MAX_DIM", 8)
    t_star, f_star = unmodulated_no_pst_scan(9, 10.0)
    assert 0.0 < f_star < 1.0 - 1e-6 and 0.0 < t_star <= 10.0
    # 9 sites need 9 Lanczos vectors: refused at 8 before any of them is made
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 9 * 8)
    monkeypatch.setattr(spectral, "_tridiagonal_rows", built)
    with pytest.raises(ValueError, match="needs more than 8 Lanczos vectors of length 9"):
        unmodulated_no_pst_scan(9, 10.0)
