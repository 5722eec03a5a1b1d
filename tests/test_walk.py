"""The walk-module Lanczos layer against independent oracles.

Verdicts are checked against eigenprojectors of a dense `eigh`, amplitudes
against `scipy.linalg.expm`, time series and grid scans against the dense
`oracles.graph_spectrum`, and the hypercube against its closed form.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

import pstnet
from pstnet import graphs, spectral
from pstnet.chains import ChainSpec, chain_pst_verify, pst_chain, unmodulated_no_pst_scan
from pstnet.cli import run
from pstnet.corona_lab import (all_pairs_max_fidelity, corona_seed_spectrum, fidelity_vs_m,
                               iterate_corona)
from pstnet.fileio import parse_graph_file
from pstnet.graphs import (complete_graph, cycle_graph, graph_matrix, hypercube,
                           make_graph, path_graph)
from pstnet.qudit import cycle_family, transfer_amplitude_qudit
from pstnet.spectral import (WALK_AMPLITUDE_TOL, check_pst_conditions,
                             max_fidelity_scan, max_fidelity_scan_spectrum,
                             rationality_check, transfer_amplitude, walk_spectrum)

from oracles import (eigenspace_rows, factor_free_hypercube, graph_spectrum,
                     limit_denominator_rule, pair_rows)

KINDS = ("adjacency", "laplacian")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
WEIGHTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
SIGNS = st.sampled_from([-1, 1])
RNG = np.random.default_rng(4093)


def cube_amplitude(k, u, v, t):
    """<v|exp(-i t A(Q_k))|u> = cos(t)^(k-d) (-i sin t)^d, d the Hamming distance."""
    d = (u ^ v).bit_count()
    return math.cos(t) ** (k - d) * (-1j * math.sin(t)) ** d


def random_signed_graph(n, degree=6.0, rng=RNG):
    """Erdos-Renyi signed graph with weights in [0.2, 2] and mean degree `degree`."""
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < degree / (n - 1)
    weights = rng.uniform(0.2, 2.0, keep.sum())
    signs = rng.choice([-1, 1], keep.sum())
    return make_graph(n, zip(iu[keep].tolist(), ju[keep].tolist(),
                             weights.tolist(), signs.tolist()))


def dense_verdict(g, u, v, kind, tol=1e-8):
    """(strongly cospectral, support, first PST time or None) from dense eigh.

    Eigenvalues within 1e-8 max |l| form one eigenspace E; u and v are
    strongly cospectral iff E e_u = +-E e_v for every E.  PST needs the
    support gaps to be n_r Delta with gcd(n_r) = 1 and n_r odd exactly where
    the sign flips; the first time is then pi/Delta.
    """
    w, vecs = np.linalg.eigh(graph_matrix(g, kind))
    cuts = np.flatnonzero(np.diff(w) > 1e-8 * float(np.abs(w).max())) + 1
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
    ratios = (support[1:] - support[0]) / (support[-1] - support[0])
    fracs = [limit_denominator_rule(float(r), spectral.DEFAULT_PST_TOL,
                                    spectral.DEFAULT_MAX_DENOMINATOR) for r in ratios]
    if None in fracs:
        return strongly, support, None
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
    assert rep.walk.dimension == len(support)
    assert rep.rationality == (rationality_check(support) is not None)
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


def projected_weight(g, u, v, kind, tol=spectral.DEFAULT_CONDITION_TOL):
    """||P e_v||^2 = ||Q[v]||^2, P the projection on the walk module W_u, from
    dense eigh: W_u is spanned by the E_r e_u with ||E_r e_u|| > tol, so
    ||P e_v||^2 = sum_r <v|E_r|u>^2 / ||E_r e_u||^2 over them."""
    _, norm_u, _, overlap = eigenspace_rows(graph_spectrum(g, kind), u, v)
    kept = norm_u > tol
    return float(np.sum(overlap[kept] ** 2 / norm_u[kept] ** 2))


@SETTINGS
@given(case=signed_graphs(), kind=st.sampled_from(KINDS))
# e_v outside W_u: the reflection of C4 through 0 keeps W_0 and sends e_1
# to e_3, and a vertex of another component
@example(case=(cycle_graph(4), 0, 1), kind="adjacency")
@example(case=(make_graph(4, [(0, 1), (2, 3, 2.0, -1)]), 0, 2), kind="laplacian")
def test_summed_c_is_the_projected_weight_of_e_v(case, kind):
    # the verdict reads e_v in W_u as sum_r c_r = 1 off its own pair table,
    # where it used to take ||Q[v]||^2 of the Lanczos basis row
    g, u, v = case
    tol = spectral.DEFAULT_CONDITION_TOL
    try:
        rep = check_pst_conditions(g, u, v, kind)
    except ValueError as err:   # a module that nearly closes gives no verdict
        assert "nearly closes" in str(err)
        return
    summed = sum(c for *_, c in spectral._pair_table(rep.walk.spectrum))
    inside = abs(projected_weight(g, u, v, kind) - 1.0) <= tol
    assert (abs(summed - 1.0) <= tol) == inside
    if not inside:
        assert not rep.vector_condition


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
        assert rep.walk.dimension == k + 1
        # couplings sqrt(i (k + 1 - i)) are smallest at the ends
        assert rep.walk.couplings.min() == pytest.approx(math.sqrt(k), abs=1e-12)
    lone = check_pst_conditions(make_graph(2, []), 0, 0)
    assert (lone.walk.dimension, len(lone.walk.couplings)) == (1, 0)


@pytest.mark.parametrize("k", range(1, 17))
def test_cube_couplings_are_the_krawtchouk_chain(k):
    # the walk module of 0 in Q_k is the weighted path of its k + 1 distance
    # layers, with couplings sqrt(i (k + 1 - i)): every one, not only the
    # smallest, must come out of the projection to rounding
    couplings = check_pst_conditions(hypercube(k), 0, (1 << k) - 1).walk.couplings
    i = np.arange(1, k + 1)
    np.testing.assert_allclose(couplings, np.sqrt(i * (k + 1 - i)), rtol=1e-12, atol=0)


def _walk_on(monkeypatch, g, kind, dense_max_dim, u=0):
    monkeypatch.setattr(spectral, "WALK_DENSE_MAX_DIM", dense_max_dim)
    return check_pst_conditions(g, u, g.vertex_count - 1, kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["Q7", "signed129", "pst_chain(40)"])
def test_dense_and_csr_operators_agree(monkeypatch, name, kind):
    if name == "Q7":
        g = hypercube(7)
    elif name == "signed129":
        g = random_signed_graph(129, rng=np.random.default_rng(129))
    else:
        couplings = pst_chain(40).couplings
        g = make_graph(40, [(i, i + 1, j) for i, j in enumerate(couplings)])
    n = g.vertex_count
    # a chain walked from an end runs no operator (`spectral._path_walk`);
    # from site 1 it runs Lanczos through all 40 sites
    u = 1 if name == "pst_chain(40)" else 0
    sparse = _walk_on(monkeypatch, g, kind, 0, u)
    assert (kind, "dense") not in g._sparse_matrices
    dense = _walk_on(monkeypatch, g, kind, n, u)
    assert g._sparse_matrices[(kind, "dense")].shape == (n, n)
    scale = 1e-13 * sparse.walk.norm
    # verdict walks stop only at closure: equal dimensions are equal modules
    assert dense.walk.dimension == sparse.walk.dimension
    if u:
        assert dense.walk.dimension == n
    np.testing.assert_allclose(dense.support_eigenvalues, sparse.support_eigenvalues,
                               rtol=0, atol=scale)
    # the late couplings of a walk through all 129 vertices of the signed
    # graph's Laplacian move with rounding: the two products put them about
    # 4e-13 ||L||_1 apart, while T's eigenvalues stay within 3e-16 ||L||_1
    slack = 1e2 if (name, kind) == ("signed129", "laplacian") else 1.0
    np.testing.assert_allclose(dense.walk.couplings, sparse.walk.couplings,
                               rtol=0, atol=slack * scale)


def test_verdicts_solve_no_n_by_n_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n x n solve or matrix")
    monkeypatch.setattr(graphs, "graph_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    # above WALK_DENSE_MAX_DIM the Lanczos steps make no dense copy either
    monkeypatch.setattr(scipy.sparse.csr_array, "toarray", refuse)
    assert spectral.WALK_DENSE_MAX_DIM < 1 << 8
    for k in (8, 9, 10, 11):
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
    assert rep.magnitude >= 1 - spectral.DEFAULT_PST_TOL
    walk = walk_spectrum(g, 0, 255, t=math.pi / 2)
    # closed: the module a verdict walk (closure only) stops at
    closed = walk_spectrum(g, 0, 255)
    assert walk.dimension == closed.dimension == 9
    assert walk.couplings[-1] == closed.couplings[-1]
    assert abs(walk.spectrum.amplitude(0, 1, math.pi / 2) - exact) <= 1e-12


@pytest.mark.parametrize("n,kind", [(100, "adjacency"), (400, "laplacian"),
                                    (1000, "laplacian")])
def test_generic_amplitudes_match_expm(n, kind):
    g = random_signed_graph(n)
    t = 1.3
    u = int(RNG.integers(n))
    column = scipy.linalg.expm(-1j * t * graph_matrix(g, kind))[:, u]
    for v in [u, *RNG.integers(n, size=4).tolist()]:
        assert abs(walk_spectrum(g, u, v, kind, t).amplitude(t) - column[v]) <= 1e-12


def test_tail_bound_holds_where_the_run_stops():
    g = random_signed_graph(300)
    matrix = graph_matrix(g, "adjacency")
    closed = walk_spectrum(g, 7, 11)   # a verdict walk stops only at closure
    for t in (0.05, 0.4, 1.3):
        walk = walk_spectrum(g, 7, 11, t=t)
        assert walk.dimension < closed.dimension
        np.testing.assert_array_equal(walk.couplings, closed.couplings[:walk.dimension - 1])
        exact = scipy.linalg.expm(-1j * t * matrix)[:, 7]
        # the bound is on the whole column, so it holds entry by entry
        for v in (7, 11):
            got = walk_spectrum(g, 7, v, t=t).spectrum.amplitude(0, 1, t)
            assert abs(got - exact[v]) <= WALK_AMPLITUDE_TOL + 1e-14


def _tail_steps(x):
    """Fewest Lanczos vectors m with X^m / (m! (1 - X/m)) <= WALK_AMPLITUDE_TOL,
    found by doubling then bisection: the search `_walk_fits` replaces."""
    goal, factor = math.log(WALK_AMPLITUDE_TOL), spectral._tail_log_factor
    lo = math.floor(x) + 1
    if factor(x, lo) <= goal:
        return lo
    hi = 2 * lo
    while factor(x, hi) > goal:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if factor(x, mid) <= goal else (mid, hi)
    return hi


@pytest.mark.parametrize("n", [8193, 16384, 65536, 1 << 20, 1 << 26, (1 << 26) + 1])
def test_walk_fits_is_the_tail_search_evaluated_once(n):
    cap = spectral.WALK_BASIS_MAX_ENTRIES
    steps = cap // n
    xs = [0.0, 0.3, 1.0, 7.5, 34.6, 120.0, *np.geomspace(1e-3, 1e15, 300)]
    xs += [steps * (1 - 1e-12), float(steps), steps * (1 + 1e-12)]
    # the largest X that `steps` vectors still cover, to the last bit
    lo, hi = 0.0, float(max(steps, 1))
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _tail_steps(mid) <= steps else (lo, mid)
    xs += [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, math.inf)]
    fits = [spectral._walk_fits(n, x) for x in xs]
    assert fits == [n * _tail_steps(x) <= cap for x in xs]
    assert any(fits) == (steps > 0)
    for x in (2.0 ** 53, 1e300, math.inf):
        with pytest.raises(ValueError, match=r"^walk amplitude at \|t\| \|\|M\|\|_1 = "
                                             r".* is refused: past 2\^53"):
            spectral._walk_fits(n, x)
    # the search itself failed there
    with pytest.raises((ValueError, OverflowError)):
        _tail_steps(2.0 ** 53)
    with pytest.raises(OverflowError):
        _tail_steps(math.inf)


def test_basis_cap_refuses_verdicts_and_routes_amplitudes(monkeypatch, krylov_columns):
    g = factor_free_hypercube(4)   # n = 16, D = 5
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 16 * 4)
    with pytest.raises(ValueError, match="needs more than 4 Lanczos vectors of "
                                         "length 16, above the basis cap of 64"):
        check_pst_conditions(g, 0, 15)
    # n min(n, m_tail) > 64 is decided before any Lanczos work
    monkeypatch.setattr(spectral, "walk_spectrum", lambda *a, **k: pytest.fail("walk ran"))
    rep = transfer_amplitude(g, 0, 15, math.pi / 2)
    assert len(krylov_columns) == 1
    assert rep.magnitude == pytest.approx(1.0, abs=1e-10)


def test_walk_amplitude_past_two_to_the_53_is_refused_at_every_size():
    # P_5's basis fits at any time, but at X = 2e17 the phase is noise: it
    # used to read 0.474847 where the exact magnitude is 0.611406
    line = ("walk amplitude at |t| ||M||_1 = 2e+17 is refused: past 2^53 its "
            "phase has no digit below a radian")
    with pytest.raises(ValueError) as info:
        transfer_amplitude(path_graph(5), 0, 4, 1e17)
    assert str(info.value) == line
    walk = check_pst_conditions(path_graph(5), 0, 4).walk
    with pytest.raises(ValueError) as info:
        walk.amplitude(np.array([0.0, -1e17]))
    assert str(info.value) == line
    # below 2^53 it still answers, off by up to its X 2^-52 rounding floor
    assert abs(walk.amplitude(1e15)) <= 1.0


@pytest.mark.parametrize("call,x", [
    (lambda: walk_spectrum(path_graph(5), 0, 4, t=1e17), "2e+17"),
    # ||T||_1 = 2 + 2 and about 2 * 150: the tridiagonal and the Krylov backend
    (lambda: chain_pst_verify(ChainSpec((1.0, 2.0, 2.0, 1.0)), 1e17), "4e+17"),
    (lambda: chain_pst_verify(pst_chain(300), 1e17), "3e+19"),
    # cycle:5 with unit couplings is the all-ones matrix, eigenvalues 5 and 0
    (lambda: transfer_amplitude_qudit(cycle_family(5), 1, 1e300), "5e+300"),
    (lambda: max_fidelity_scan(path_graph(5), 0, 4, 1e300, 1e296), "2e+300"),
    (lambda: fidelity_vs_m(complete_graph(2), (0, 1), 2, t_max=1e300, dt=1e296), "1e+300"),
    (lambda: max_fidelity_scan_spectrum(corona_seed_spectrum(complete_graph(2), 2),
                                        1e300, 1e296), "3.29e+300"),
    (lambda: all_pairs_max_fidelity(graph_matrix(cycle_graph(5), "adjacency"),
                                    1e300, 1e296), "2e+300"),
], ids=["walk", "chain", "chain-krylov", "qudit", "scan", "corona", "recursion", "all-pairs"])
def test_every_amplitude_evaluator_refuses_a_phase_past_two_to_the_53(call, x):
    # each used to answer with phase noise, or die in an OverflowError
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == (f"walk amplitude at |t| ||M||_1 = {x} is refused: "
                               f"past 2^53 its phase has no digit below a radian")


def test_walk_fits_up_to_the_dense_limit_at_any_time():
    # n min(n, m_tail) <= DENSE_MAX_DIM^2 whenever n <= DENSE_MAX_DIM
    for x in (0.0, 40.0, 1e6):
        assert spectral._walk_fits(spectral.DENSE_MAX_DIM, x)
    assert not spectral._walk_fits(spectral.DENSE_MAX_DIM + 1, 1e6)
    # Q_16: 17 vectors close the module, but m_tail(1e4) is about 27,000
    assert spectral._walk_fits(65536, 30.0)
    assert not spectral._walk_fits(65536, 1e4)
    # up to n^2 <= cap nothing is counted, so no time is refused
    assert spectral._walk_fits(spectral.DENSE_MAX_DIM, math.inf)


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
        assert rep.walk.couplings.min() == pytest.approx(eps, rel=1e-9)


def test_overflowing_walk_is_refused_at_its_first_step():
    # ||w||^2 = 2e320 overflows: the walk refuses with one line at step 1
    # instead of carrying inf and NaN into the tridiagonal solve
    g = path_graph(4)
    big = make_graph(4, [(0, 1, 1e160), (1, 2, 1e160), (2, 3, 1e160)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="walk module of vertex 0 overflows at "
                                             "Lanczos step 1: alpha 0, beta inf"):
            check_pst_conditions(big, 0, 3)
        with pytest.raises(ValueError, match="overflows at Lanczos step 1"):
            transfer_amplitude(big, 0, 3, 1e-200)
    # 1e150 still squares within range, and scales the verdict by 1e150
    scaled = make_graph(4, [(0, 1, 1e150), (1, 2, 1e150), (2, 3, 1e150)])
    assert check_pst_conditions(scaled, 0, 3).walk.dimension == \
        check_pst_conditions(g, 0, 3).walk.dimension == 4


# --- paths walked from an end: T read off the matrix ----------------------------------

def _chain_graph(n):
    return make_graph(n, [(i, i + 1, j) for i, j in enumerate(pst_chain(n).couplings)])


def _signed_path(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 48))
    return make_graph(n, [(i, i + 1, float(rng.uniform(0.1, 3.0)), int(rng.choice([-1, 1])))
                          for i in range(n - 1)])


PATHS = {**{f"pst_chain({n})": (_chain_graph, n) for n in range(2, 41)},
         **{f"P{n}": (path_graph, n) for n in range(2, 13)},
         **{f"signed{seed}": (_signed_path, seed) for seed in range(6)}}


def _walk_bits(g, u, v, kind, t):
    """Every number a walk hands on, as bytes, or its one-line refusal."""
    try:
        walk = walk_spectrum(g, u, v, kind, t)
    except ValueError as err:
        return str(err)
    spec = walk.spectrum
    return (spec.eigenvalues.tobytes(), spec.eigenvectors.tobytes(),
            walk.couplings.tobytes(), walk.dimension, walk.norm)


def _path_and_lanczos_bits(monkeypatch, g, u, v, kind, t):
    path = _walk_bits(g, u, v, kind, t)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_path_entries", lambda *args: None)
        return path, _walk_bits(g, u, v, kind, t)


@pytest.mark.parametrize("name", PATHS)
def test_path_walks_are_lanczos_to_the_bit(monkeypatch, name):
    build, arg = PATHS[name]
    g = build(arg)
    n = g.vertex_count
    early = 0
    for kind in KINDS:
        norm = graphs.sparse_matrix(g, kind)[1]
        # X = 0.1 and 2: the tail bound stops these before n on longer paths
        for t in (None, 0.1 / norm, 2.0 / norm):
            for u in (0, n - 1):
                for v in range(n):
                    path, lanczos = _path_and_lanczos_bits(monkeypatch, g, u, v, kind, t)
                    assert path == lanczos
                    early += t is not None and path[3] < n
    assert early or n < 12


@pytest.mark.parametrize("weights,kind,t", [
    # the middle beta is under the closure threshold: D = 2, v outside
    ((1.0, 1e-13, 1.0), "adjacency", None),
    ((1.0, 1e-13, 1.0), "laplacian", 0.7),
    # within the nearly-closes margin: the same refusal, and a timed answer
    ((1.0, 1e-9, 1.0), "adjacency", None),
    ((1.0, 1e-9, 1.0), "laplacian", None),
    ((1.0, 1e-9, 1.0), "adjacency", 0.7),
    # x^2 underflows to 0: closure
    ((1.0, 1e-200, 1.0), "adjacency", None),
    # x^2 is subnormal, so beta is off |x|: the walk hands over to Lanczos
    ((1e-160, 1e-160, 1e-160), "adjacency", None),
    ((1e-160, 1e-160, 1e-160), "laplacian", 1e150),
    # x^2 overflows: the same one-line refusal at step 1
    ((1e160, 1e160, 1e160), "adjacency", None),
    ((1.0, 1e160, 1.0), "laplacian", 1e-200),
])
def test_path_walks_stop_and_refuse_as_lanczos_does(monkeypatch, weights, kind, t):
    g = make_graph(4, [(i, i + 1, w, (-1) ** i) for i, w in enumerate(weights)])
    with np.errstate(over="ignore", invalid="ignore"):
        for u in (0, 3):
            for v in range(4):
                path, lanczos = _path_and_lanczos_bits(monkeypatch, g, u, v, kind, t)
                assert path == lanczos


def test_subnormal_beta_hands_the_path_walk_to_lanczos():
    g = make_graph(3, [(0, 1, 1e-160), (1, 2, 1e-160)])
    assert math.sqrt(1e-160 * 1e-160) != 1e-160
    entries = spectral._path_entries(g, "adjacency", 0)
    assert spectral._path_walk(*entries, 2, lambda m, alpha, beta: m == 3) is None


def test_paths_past_the_basis_cap_refuse_before_any_lanczos_work(monkeypatch):
    monkeypatch.setattr(spectral, "_walk_operator", _refuse)
    # the cap allows 8192^2 // 20000 = 3355 vectors: the same line as Lanczos
    with pytest.raises(ValueError) as info:
        check_pst_conditions(path_graph(20000), 0, 19999)
    assert str(info.value) == ("walk module of vertex 0 needs more than 3355 Lanczos "
                               "vectors of length 20000, above the basis cap of 67108864 "
                               "entries")
    with pytest.raises(ValueError, match="needs more than 3355 Lanczos vectors"):
        walk_spectrum(path_graph(20000), 19999, 0, t=1e6)
    monkeypatch.undo()
    # under a cap of 4 vectors the path and Lanczos refuse with the same
    # line: a verdict at its fourth step, t = 3 before any step; t = 1e-9
    # stops at the tail bound with 2 vectors
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 16 * 4)
    g = _chain_graph(16)
    for kind in KINDS:
        for t in (None, 1e-9, 3.0):
            path, lanczos = _path_and_lanczos_bits(monkeypatch, g, 15, 0, kind, t)
            assert path == lanczos
            if t == 1e-9:
                assert path[3] == 2
            else:
                assert path.endswith("needs more than 4 Lanczos vectors of length 16, "
                                     "above the basis cap of 64 entries")


def test_paths_walked_from_an_end_run_no_operator(monkeypatch):
    monkeypatch.setattr(spectral, "_walk_operator", _refuse)
    for g in (_chain_graph(40), path_graph(12), _signed_path(3)):
        n = g.vertex_count
        for kind in KINDS:
            check_pst_conditions(g, 0, n - 1, kind)
            check_pst_conditions(g, n - 1, 1, kind)
        transfer_amplitude(g, n - 1, 0, 1.3)
        max_fidelity_scan(g, 0, n - 1, 5.0, 0.01)
    unmodulated_no_pst_scan(6, 5.0)
    with pytest.raises(AssertionError, match="n x n solve or matrix"):
        check_pst_conditions(path_graph(12), 1, 11)


@pytest.mark.parametrize("n", [5, 12, 40])
def test_relabelled_paths_take_lanczos_to_the_same_verdict(monkeypatch, n):
    g = _chain_graph(n)
    perm = np.random.default_rng(n).permutation(n).tolist()
    relabelled = make_graph(n, [(perm[i], perm[i + 1], j)
                                for i, j in enumerate(pst_chain(n).couplings)])
    calls = []
    real = spectral._walk_operator
    monkeypatch.setattr(spectral, "_walk_operator",
                        lambda *args: calls.append(args) or real(*args))
    for kind in KINDS:
        want = check_pst_conditions(g, 0, n - 1, kind)
        assert not calls
        got = check_pst_conditions(relabelled, perm[0], perm[-1], kind)
        assert len(calls) == 1
        calls.clear()
        for rep in (want, got):
            rep.support_eigenvalues = rep.support_eigenvalues.tobytes()
            rep.walk = (rep.walk.couplings.tobytes(), rep.walk.dimension)
        assert got == want


def test_pst_answers_q14_beyond_the_dense_limit(capsys):
    assert run(["pst", "--graph", "q14", "--from", "0", "--to", "16383", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_time"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert payload["vector_condition"] and payload["eigenvalue_condition"]


# --- time series and grid scans on the walk module ---------------------------------

EXAMPLES = Path(pstnet.__file__).resolve().parent / "data" / "corona_examples"
ORACLE_GRAPHS = ([complete_graph(n) for n in range(2, 6)]
                 + [path_graph(n) for n in range(2, 10)]
                 + [hypercube(k) for k in range(1, 6)]
                 + [cycle_graph(n) for n in range(3, 10)]
                 + [parse_graph_file(str(p)) for p in sorted(EXAMPLES.glob("*.graph"))])


def _refuse(*args, **kwargs):
    raise AssertionError("n x n solve or matrix")


def test_series_and_scans_solve_no_n_by_n_matrix(monkeypatch):
    monkeypatch.setattr(graphs, "graph_matrix", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    ts = np.arange(13) * 0.25
    walk = check_pst_conditions(hypercube(10), 0, 1023).walk
    np.testing.assert_allclose(np.abs(walk.amplitude(ts)), np.abs(np.sin(ts)) ** 10,
                               rtol=0, atol=1e-12)
    assert walk.amplitude([]).shape == (0,)
    # |sin t|^10 is flat at its peak: t* is fixed only to about 1e-8
    t_star, f_star = max_fidelity_scan(hypercube(10), 0, 1023, 3.0, 0.01)
    assert t_star == pytest.approx(math.pi / 2, abs=1e-7)
    assert f_star == pytest.approx(1.0, abs=1e-12)
    t_star, f_star = unmodulated_no_pst_scan(2, 10.0)
    assert (t_star, f_star) == pytest.approx((math.pi / 2, 1.0), abs=1e-9)
    assert unmodulated_no_pst_scan(6, 50.0)[1] < 0.999
    # P3 is not net-regular, so the corona theorem fails before any eigh
    table = fidelity_vs_m(path_graph(3), (0, 2), 3, "adjacency")
    assert [row.provenance for row in table.rows] == ["direct"] * 4
    assert table.rows[0].t_star == pytest.approx(math.pi / math.sqrt(2), abs=1e-7)
    assert table.rows[0].f_star == pytest.approx(1.0, abs=1e-12)


def test_series_and_scans_refuse_a_basis_past_the_cap_before_lanczos(monkeypatch):
    g = hypercube(4)   # n = 16; the tail bound at |t| = 20 may need all 16 vectors
    norm = spectral.sparse_matrix(g, "adjacency")[1]

    class NoSteps:
        def __matmul__(self, other):
            raise AssertionError("a Lanczos step ran")

    monkeypatch.setattr(spectral, "sparse_matrix", lambda *a: (NoSteps(), norm))
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 16 * 15)
    message = "needs more than 15 Lanczos vectors of length 16, above the basis cap of 240"
    with pytest.raises(ValueError, match=message):
        max_fidelity_scan(g, 0, 15, 19.99, 0.01)
    # the grid is checked first
    with pytest.raises(ValueError, match="scan dt must be finite and > 0"):
        max_fidelity_scan(g, 0, 15, 20.0, 0.0)


def _assert_same_scan(got, want, dense, u, v):
    """(t*, f*) of a walk scan against the dense oracle's scan of the same grid.

    f* agrees to 1e-12.  t* is an argmax of a magnitude that is flat at its
    peak, f* - c (t - t*)^2 / 2, so the ~1e-14 rounding of either path moves
    it by up to sqrt(2e-14 / c), about 1e-7 here: where f* > 1e-6 the walk's
    t* must be the same peak (to 1e-6) and reach the oracle's f* there.
    """
    (t_star, f_star), (t_want, f_want) = got, want
    assert abs(f_star - f_want) <= 1e-12
    if f_want > 1e-6:
        assert abs(t_star - t_want) <= 1e-6
        assert abs(abs(dense.amplitude(u, v, t_star)) - f_want) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_series_and_scans_match_the_dense_oracle(kind):
    ts = np.arange(2001) * 0.01
    for g in ORACLE_GRAPHS:
        dense = graph_spectrum(g, kind)
        for v in range(g.vertex_count):
            got = np.abs(check_pst_conditions(g, 0, v, kind).walk.amplitude(ts))
            want = np.abs(dense.amplitude(0, v, ts))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            _assert_same_scan(max_fidelity_scan(g, 0, v, 20.0, 0.01, kind),
                              max_fidelity_scan_spectrum(pair_rows(dense, 0, v), 20.0, 0.01),
                              dense, 0, v)


def test_chain_and_corona_scans_match_the_dense_oracle():
    for n in range(2, 17):
        dense = graph_spectrum(path_graph(n))
        _assert_same_scan(unmodulated_no_pst_scan(n, 50.0),
                          max_fidelity_scan_spectrum(pair_rows(dense, 0, n - 1), 50.0, 0.0005),
                          dense, 0, n - 1)
    # seeds outside the corona theorem: every row builds G^(m) and walks it
    direct = 0
    signed_p3 = make_graph(3, [(0, 1, 1.0, -1), (1, 2, 1.0, 1)])
    signed_p4 = make_graph(4, [(0, 1, 1.0, -1), (1, 2, 0.5, 1), (2, 3, 1.0, 1)])
    for seed in (path_graph(3), path_graph(4), signed_p3, signed_p4):
        for kind in ("adjacency", "laplacian"):
            for v in range(1, seed.vertex_count):
                table = fidelity_vs_m(seed, (0, v), 2, kind, t_max=10.0, dt=0.01)
                for row in table.rows:
                    if row.provenance != "direct":
                        continue
                    direct += row.m > 0
                    dense = graph_spectrum(iterate_corona(seed, row.m), kind)
                    want = max_fidelity_scan_spectrum(pair_rows(dense, 0, v), 10.0, 0.01)
                    if want[1] <= 1e-12:   # the rows' noise floor
                        want = (0.0, 0.0)
                    _assert_same_scan((row.t_star, row.f_star), want, dense, 0, v)
    assert direct == 30
