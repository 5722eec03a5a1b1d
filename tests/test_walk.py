"""The walk-module Lanczos layer against independent oracles.

Verdicts are checked against eigenprojectors of a dense `eigh`, amplitudes
against `scipy.linalg.expm`, and the hypercube against its closed form.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from pstnet import spectral
from pstnet.cli import run
from pstnet.graphs import graph_matrix, hypercube, make_graph, path_graph
from pstnet.spectral import (WALK_AMPLITUDE_TOL, check_pst_conditions,
                             rationality_check, transfer_amplitude,
                             walk_spectrum)

KINDS = ("adjacency", "laplacian", "signless_laplacian")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
WEIGHTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
SIGNS = st.sampled_from([-1, 1])
RNG = np.random.default_rng(4093)


def cube_amplitude(k, u, v, t):
    """<v|exp(-i t A(Q_k))|u> = cos(t)^(k-d) (-i sin t)^d, d the Hamming distance."""
    d = (u ^ v).bit_count()
    return math.cos(t) ** (k - d) * (-1j * math.sin(t)) ** d


def random_signed_graph(n, degree=6.0):
    """Erdos-Renyi signed graph with weights in [0.2, 2] and mean degree `degree`."""
    iu, ju = np.triu_indices(n, 1)
    keep = RNG.random(iu.size) < degree / (n - 1)
    weights = RNG.uniform(0.2, 2.0, keep.sum())
    signs = RNG.choice([-1, 1], keep.sum())
    return make_graph(n, zip(iu[keep].tolist(), ju[keep].tolist(),
                             weights.tolist(), signs.tolist()))


def dense_verdict(g, u, v, kind, tol=1e-8):
    """(strongly cospectral, support, first PST time or None) from dense eigh.

    Eigenvalues within 1e-8 (relative) form one eigenspace E; u and v are
    strongly cospectral iff E e_u = +-E e_v for every E.  PST needs the
    support gaps to be n_r Delta with gcd(n_r) = 1 and n_r odd exactly where
    the sign flips; the first time is then pi/Delta.
    """
    w, vecs = np.linalg.eigh(graph_matrix(g, kind))
    cuts = np.flatnonzero(np.diff(w) > 1e-8 * max(1.0, float(np.abs(w).max()))) + 1
    strongly, support, signs = True, [], []
    for idx in np.split(np.arange(len(w)), cuts):
        block = vecs[:, idx]
        eu, ev = block @ block[u], block @ block[v]
        if np.linalg.norm(eu) > tol:
            sign = 1 if eu @ ev >= 0 else -1
            support.append(float(w[idx].mean()))
            signs.append(sign)
            strongly &= bool(np.linalg.norm(eu - sign * ev) <= tol)
        else:
            strongly &= bool(np.linalg.norm(ev) <= tol)
    support = np.array(support)
    if not strongly or u == v:
        return strongly, support, (0.0 if strongly else None)
    rational, witness = rationality_check(support)
    if not rational:
        return strongly, support, None
    fracs = [Fraction(f) for _, f in witness]
    scale = math.lcm(*(f.denominator for f in fracs))
    steps = [int(f * scale) for f in fracs]
    common = math.gcd(*steps)
    steps = [k // common for k in steps]
    if any(k % 2 != (s != signs[0]) for k, s in zip(steps, signs[1:])):
        return strongly, support, None
    return strongly, support, math.pi * steps[-1] / (support[-1] - support[0])


def _check_against_dense(g, u, v, kind):
    rep = check_pst_conditions(g, u, v, matrix_kind=kind)
    strongly, support, t0 = dense_verdict(g, u, v, kind)
    assert rep.vector_condition == strongly
    np.testing.assert_allclose(rep.support_eigenvalues, support, rtol=0, atol=1e-9)
    assert rep.walk_dimension == len(support)
    assert rep.rationality == rationality_check(support)[0]
    pst = rep.vector_condition and rep.eigenvalue_condition
    assert pst == (t0 is not None)
    if pst and u != v:
        assert rep.best_time == pytest.approx(t0, rel=1e-9)
        exact = scipy.linalg.expm(-1j * t0 * graph_matrix(g, kind))[v, u]
        assert abs(exact) == pytest.approx(1.0, abs=1e-8)


@st.composite
def signed_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [(a, b, draw(WEIGHTS), draw(SIGNS)) for a, b in chosen]
    u = draw(st.integers(min_value=0, max_value=n - 1))
    v = draw(st.integers(min_value=0, max_value=n - 1))
    return make_graph(n, edges), u, v


@st.composite
def mirrored_graphs(draw):
    """Two copies of a signed graph H joined vertex to copy: swapping the
    copies is an automorphism, so a vertex and its copy are cospectral."""
    k = draw(st.integers(min_value=1, max_value=4))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                            max_size=len(pairs))) if pairs else []
    edges = []
    for a, b in chosen:
        w, s = draw(WEIGHTS), draw(SIGNS)
        edges += [(a, b, w, s), (a + k, b + k, w, s)]
    for a in range(k):
        if draw(st.booleans()) or a == 0:
            edges.append((a, a + k, draw(WEIGHTS), draw(SIGNS)))
    u = draw(st.integers(min_value=0, max_value=k - 1))
    return make_graph(2 * k, edges), u, u + k


@SETTINGS
@given(case=signed_graphs(), kind=st.sampled_from(KINDS))
def test_walk_verdict_matches_dense_eigh_on_signed_graphs(case, kind):
    _check_against_dense(*case, kind)


@SETTINGS
@given(case=mirrored_graphs(), kind=st.sampled_from(KINDS))
def test_walk_verdict_matches_dense_eigh_on_mirrored_graphs(case, kind):
    _check_against_dense(*case, kind)


def test_walk_verdict_matches_dense_eigh_on_cubes_and_paths():
    for kind in KINDS:
        for k in range(1, 6):
            for v in (1, 3, (1 << k) - 1):
                _check_against_dense(hypercube(k), 0, v % (1 << k), kind)
        for n in range(2, 9):
            _check_against_dense(path_graph(n), 0, n - 1, kind)


def test_health_numbers_on_cubes():
    for k in range(1, 12):
        rep = check_pst_conditions(hypercube(k), 0, (1 << k) - 1)
        assert rep.best_time == pytest.approx(math.pi / 2, abs=1e-12)
        assert rep.walk_dimension == k + 1
        # couplings sqrt(i (k + 1 - i)) are smallest at the ends
        assert rep.min_coupling == pytest.approx(math.sqrt(k), abs=1e-12)
    lone = check_pst_conditions(make_graph(2, []), 0, 0)
    assert (lone.walk_dimension, lone.min_coupling) == (1, None)


def test_verdicts_solve_no_n_by_n_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n x n solve or matrix")
    monkeypatch.setattr(spectral, "graph_matrix", refuse)
    monkeypatch.setattr(spectral.Spectrum, "from_graph", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for k in (8, 10, 11):
        n = 1 << k
        rep = check_pst_conditions(hypercube(k), 3, 3 ^ (n - 1))
        assert rep.best_time == pytest.approx(math.pi / 2, abs=1e-12)
        assert not check_pst_conditions(hypercube(k), 3, 5, "laplacian").vector_condition


def test_q8_antipodal_amplitude_matches_expm():
    # the final-time estimate beta_m |e_m^T e^{-itT} e_1| reads 0 here after
    # 8 of the 9 vectors; the rigorous tail bound keeps going to closure
    g = hypercube(8)
    exact = scipy.linalg.expm(-1j * (math.pi / 2) * graph_matrix(g, "adjacency"))[255, 0]
    rep = transfer_amplitude(g, 0, 255, math.pi / 2)
    assert abs(exact) == pytest.approx(1.0, abs=1e-12)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-12)
    assert rep.passed
    walk = walk_spectrum(g, 0, 255, t=math.pi / 2)
    assert walk.closed and walk.dimension == 9
    assert abs(walk.spectrum.amplitude(0, 1, math.pi / 2) - exact) <= 1e-12


@pytest.mark.parametrize("n,kind", [(100, "adjacency"), (400, "laplacian"),
                                    (1000, "signless_laplacian")])
def test_generic_amplitudes_match_expm(n, kind):
    g = random_signed_graph(n)
    t = 1.3
    u = int(RNG.integers(n))
    column = scipy.linalg.expm(-1j * t * graph_matrix(g, kind))[:, u]
    for v in [u, *RNG.integers(n, size=4).tolist()]:
        rep = transfer_amplitude(g, u, v, t, kind)
        assert rep.backend == "lanczos"
        amp = rep.magnitude * complex(math.cos(rep.phase), math.sin(rep.phase))
        assert abs(amp - column[v]) <= 1e-12


def test_tail_bound_holds_where_the_run_stops():
    g = random_signed_graph(300)
    matrix = graph_matrix(g, "adjacency")
    for t in (0.05, 0.4, 1.3):
        walk = walk_spectrum(g, 7, 11, t=t)
        assert not walk.closed and walk.dimension < 300
        exact = scipy.linalg.expm(-1j * t * matrix)[:, 7]
        # the bound is on the whole column, so it holds entry by entry
        for v in (7, 11):
            got = walk_spectrum(g, 7, v, t=t).spectrum.amplitude(0, 1, t)
            assert abs(got - exact[v]) <= WALK_AMPLITUDE_TOL + 1e-14


def test_tail_steps_is_the_first_m_under_the_bound():
    for x in (0.0, 0.3, 1.0, 7.5, 34.6, 120.0, 1e4):
        m = spectral._tail_steps(x)
        factor = spectral._tail_log_factor
        assert factor(x, m) <= math.log(WALK_AMPLITUDE_TOL)
        if m > 1:
            assert factor(x, m - 1) > math.log(WALK_AMPLITUDE_TOL)


def test_basis_cap_refuses_verdicts_and_routes_amplitudes(monkeypatch):
    g = hypercube(4)   # n = 16, D = 5
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 16 * 4)
    with pytest.raises(ValueError, match="needs more than 4 Lanczos vectors of "
                                         "length 16, above the basis cap of 64"):
        check_pst_conditions(g, 0, 15)
    # n min(n, m_tail) > 64 is decided before any Lanczos work
    monkeypatch.setattr(spectral, "walk_spectrum", lambda *a, **k: pytest.fail("walk ran"))
    rep = transfer_amplitude(g, 0, 15, math.pi / 2)
    assert rep.backend == "krylov"
    assert rep.magnitude == pytest.approx(1.0, abs=1e-10)


def test_walk_fits_up_to_the_dense_limit_at_any_time():
    # n min(n, m_tail) <= DENSE_MAX_DIM^2 whenever n <= DENSE_MAX_DIM
    for x in (0.0, 40.0, 1e6):
        assert spectral._walk_fits(spectral.DENSE_MAX_DIM, x)
    assert not spectral._walk_fits(spectral.DENSE_MAX_DIM + 1, 1e6)
    # Q_16: 17 vectors close the module, but m_tail(1e4) is about 27,000
    assert spectral._walk_fits(65536, 30.0)
    assert not spectral._walk_fits(65536, 1e4)


@pytest.mark.parametrize("eps,refused", [(1e-10, True), (1e-6, False)])
def test_nearly_closed_walk_module_is_refused(eps, refused):
    # from vertex 0 of the path 0 -1- 1 -eps- 2 the second beta is eps
    g = make_graph(3, [(0, 1, 1.0), (1, 2, eps)])
    if refused:
        with pytest.raises(ValueError, match="walk module of vertex 0 nearly closes"):
            check_pst_conditions(g, 0, 2)
        # an amplitude's bound stays rigorous, so it is answered
        rep = transfer_amplitude(g, 0, 1, 1.0)
        assert rep.magnitude == pytest.approx(abs(math.sin(1.0)), abs=1e-9)
    else:
        rep = check_pst_conditions(g, 0, 2)
        assert rep.min_coupling == pytest.approx(eps, rel=1e-9)


def test_pst_answers_q14_beyond_the_dense_limit(capsys):
    assert run(["pst", "--graph", "q14", "--from", "0", "--to", "16383", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_time"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert payload["vector_condition"] and payload["eigenvalue_condition"]
