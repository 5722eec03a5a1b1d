import math
from pathlib import Path

import numpy as np
import pytest

import pstnet
from pstnet import corona_lab, spectral
from pstnet.corona_lab import (CORONA_SIZE_GUARD,
                               RECURSION_MAX_TERMS, TheoremHypothesisError,
                               all_pairs_max_fidelity,
                               corona_seed_spectrum, corona_spectrum,
                               corona_vertex_count, fidelity_vs_m,
                               iterate_corona, net_regularity)
from pstnet.fileio import parse_graph_file
from pstnet.graphs import (MarkingScheme, SignedWeightedGraph,
                           complete_graph, corona, cycle_graph, graph_matrix,
                           hypercube, laplacian, make_graph, path_graph)
from pstnet.spectral import max_fidelity_scan_spectrum

from oracles import adjacency, corona_edge_count, expm_amplitude, graph_spectrum, pair_rows

EXAMPLES = Path(pstnet.__file__).resolve().parent / "data" / "corona_examples"

GOLDEN = math.sqrt(5.0)
KINDS = ("adjacency", "laplacian")


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
    got = sorted(corona_spectrum(k2, k1).eigenvalues)
    want = sorted([(1 + GOLDEN) / 2, (1 - GOLDEN) / 2,
                   (-1 + GOLDEN) / 2, (-1 - GOLDEN) / 2])
    np.testing.assert_allclose(got, want, atol=1e-12)
    direct = np.linalg.eigvalsh(adjacency(corona(k2, k1)))
    np.testing.assert_allclose(got, direct, atol=1e-9)


def test_adjacency_pairs_complete_and_validated(signed_square):
    spec = corona_spectrum(signed_square, signed_square)
    assert spec.dimension == 4 * (1 + 4)
    product = adjacency(corona(signed_square, signed_square))
    for value, vector in zip(spec.eigenvalues, spec.eigenvectors.T):
        residual = np.max(np.abs(product @ vector - value * vector))
        assert residual <= 1e-8
    direct = np.linalg.eigvalsh(product)
    np.testing.assert_allclose(np.sort(spec.eigenvalues), direct, atol=1e-8)


def test_adjacency_pairs_unbalanced_seed(unbalanced_k4):
    spec = corona_spectrum(unbalanced_k4, unbalanced_k4)
    direct = np.linalg.eigvalsh(adjacency(corona(unbalanced_k4, unbalanced_k4)))
    np.testing.assert_allclose(np.sort(spec.eigenvalues), direct, atol=1e-8)


def test_adjacency_refusal_for_irregular_g2():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(TheoremHypothesisError):
        corona_spectrum(complete_graph(2), star)


# --- laplacian eigenpairs ------------------------------------------------------

def test_laplacian_unsigned_formula():
    g1, g2 = complete_graph(2), path_graph(3)
    spec = corona_spectrum(g1, g2, "laplacian")
    w1 = np.linalg.eigvalsh(laplacian(g1))
    k = 3
    explicit = []
    for li in w1:
        disc = math.sqrt((1 - li - k) ** 2 + 4 * k)
        explicit += [(1 + li + k + disc) / 2, (1 + li + k - disc) / 2]
    got = sorted(spec.eigenvalues)
    for val in explicit:
        assert any(abs(val - g) < 1e-9 for g in got)
    direct = np.linalg.eigvalsh(laplacian(corona(g1, g2)))
    np.testing.assert_allclose(got, direct, atol=1e-8)


def test_laplacian_k3_self_corona():
    k3 = complete_graph(3)
    spec = corona_spectrum(k3, k3, "laplacian")
    direct = np.linalg.eigvalsh(laplacian(corona(k3, k3)))
    np.testing.assert_allclose(np.sort(spec.eigenvalues), direct, atol=1e-8)


def test_laplacian_signed_square(signed_square):
    spec = corona_spectrum(signed_square, signed_square, "laplacian")
    direct = np.linalg.eigvalsh(laplacian(corona(signed_square, signed_square)))
    np.testing.assert_allclose(np.sort(spec.eigenvalues), direct, atol=1e-8)


def test_laplacian_refusal_for_uneven_negative_degree():
    g2 = make_graph(3, [(0, 1, 1.0, -1), (1, 2, 1.0, 1)])
    with pytest.raises(TheoremHypothesisError):
        corona_spectrum(complete_graph(2), g2, "laplacian")


# --- one builder: shape, validation, limits -------------------------------------

def _criterion_7_instances(signed_square):
    return [
        (complete_graph(2), SignedWeightedGraph(1, ())),
        (complete_graph(2), complete_graph(2)),
        (path_graph(3), complete_graph(3)),
        (complete_graph(3), cycle_graph(4)),
        (signed_square, signed_square),
        (cycle_graph(5), complete_graph(2)),
        (signed_square, complete_graph(3)),
        (complete_graph(2), cycle_graph(5)),
        (path_graph(4), cycle_graph(6)),
        (complete_graph(4), complete_graph(4)),
    ]


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_corona_spectrum_is_sorted_and_orthonormal(signed_square, kind):
    for g1, g2 in _criterion_7_instances(signed_square):
        spec = corona_spectrum(g1, g2, kind)
        n = g1.vertex_count * (1 + g2.vertex_count)
        assert spec.eigenvectors.shape == (n, n)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        np.testing.assert_allclose(spec.eigenvectors.T @ spec.eigenvectors,
                                   np.eye(n), rtol=0, atol=1e-12)


def test_non_uniform_marking_gives_the_full_spectrum():
    # mu2 = (+, +, -, -) on two disjoint K2s is an eigenvector of A(g2) for
    # d = 1 and of L(g2) for 2 d- = 0 without being uniform; the lifted
    # eigenvectors need only be orthogonal to mu2
    g1 = SignedWeightedGraph(2, [(0, 1, 1, 1)], markings=(1, -1))
    g2 = SignedWeightedGraph(4, [(0, 1, 1, 1), (2, 3, 1, 1)], markings=(1, 1, -1, -1))
    product = corona(g1, g2, MarkingScheme.EXPLICIT)
    for kind, matrix in (("adjacency", adjacency), ("laplacian", laplacian)):
        spec = corona_spectrum(g1, g2, kind, MarkingScheme.EXPLICIT)
        assert spec.dimension == 2 * (1 + 4)
        np.testing.assert_allclose(spec.eigenvalues,
                                   np.linalg.eigvalsh(matrix(product)), atol=1e-8)


def test_perturbed_lifted_eigenvalue_is_refused(signed_square, monkeypatch):
    honest = corona_lab._basis_orthogonal_to_marking

    def perturbed(matrix, mu):
        values, vectors = honest(matrix, mu)
        values[0] += 1e-6
        return values, vectors

    monkeypatch.setattr(corona_lab, "_basis_orthogonal_to_marking", perturbed)
    with pytest.raises(TheoremHypothesisError, match="eigenpair residual 5.000e-07 exceeds"):
        corona_spectrum(signed_square, signed_square)


def _qr_deflation(matrix, mu):
    """The per-eigenvalue-group QR deflation the one shifted eigh replaced."""
    mu_dir = mu / np.linalg.norm(mu)
    w, v = np.linalg.eigh(matrix)
    atol = 1e-9 * max(1.0, float(np.max(np.abs(w))))
    groups, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > atol:
            groups.append(np.arange(start, i))
            start = i
    values, blocks = [], []
    for idx in groups:
        block = v[:, idx]
        overlap = block.T @ mu_dir
        if np.linalg.norm(overlap) > 1e-8:
            q, r = np.linalg.qr(block - np.outer(mu_dir, overlap))
            block = q[:, np.abs(np.diagonal(r)) > 1e-10]
        values += [float(np.mean(w[idx]))] * block.shape[1]
        blocks.append(block)
    assert len(values) == len(w) - 1
    return np.array(values), np.hstack(blocks)


DEFLATION_SEEDS = {
    **{f"k{n}": (lambda n=n: complete_graph(n)) for n in range(2, 8)},
    **{f"c{n}": (lambda n=n: cycle_graph(n)) for n in range(3, 10)},
    **{f"q{n}": (lambda n=n: hypercube(n)) for n in range(1, 5)},
    **{name: (lambda name=name: parse_graph_file(str(EXAMPLES / f"{name}.graph")))
       for name in ("example01", "example02", "example03", "example04")},
}


@pytest.mark.parametrize("name", sorted(DEFLATION_SEEDS))
def test_marking_deflation_matches_the_qr_oracle(name):
    g = DEFLATION_SEEDS[name]()
    for kind in ("adjacency", "laplacian"):
        for scheme in (MarkingScheme.CANONICAL, MarkingScheme.PLURALITY):
            _, _, mu = corona_lab._g2_constants(g, kind, scheme)
            matrix = graph_matrix(g, kind)
            eta, y = corona_lab._basis_orthogonal_to_marking(matrix, mu)
            want_eta, want_y = _qr_deflation(matrix, mu)
            np.testing.assert_allclose(eta, want_eta, rtol=0, atol=1e-12)
            np.testing.assert_allclose((y * eta) @ y.T, (want_y * want_eta) @ want_y.T,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(y.T @ y, np.eye(len(eta)), rtol=0, atol=1e-12)
            assert np.max(np.abs(mu @ y)) <= 1e-12


def test_marking_that_is_no_eigenvector_is_not_deflated():
    with pytest.raises(TheoremHypothesisError, match="marking direction could not"):
        corona_lab._basis_orthogonal_to_marking(adjacency(path_graph(3)),
                                                np.ones(3))


def test_dense_limit_refuses_before_building_the_product(signed_square, monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_MAX_DIM", 19)

    def built(*args, **kwargs):
        pytest.fail("the product was built before the size check")

    monkeypatch.setattr(corona_lab, "corona", built)
    monkeypatch.setattr(corona_lab, "sparse_matrix", built)
    with pytest.raises(ValueError, match="20 exceeds the limit of 19"):
        corona_spectrum(signed_square, signed_square)


def test_unknown_matrix_kind_is_refused(signed_square):
    with pytest.raises(ValueError, match="signless_laplacian"):
        corona_spectrum(signed_square, signed_square, "signless_laplacian")


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
    assert [r.provenance for r in table.rows] == ["direct", "recursion"]
    # the paper's closed-form eigenpairs of the one-level product give the
    # same dynamics as the recursion's seed rows
    theorem = corona_spectrum(signed_square, signed_square)
    t_star, f_star = max_fidelity_scan_spectrum(pair_rows(theorem, 0, 2), 20.0, 0.005)
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


def test_path_adjacency_scans_directly():
    table = fidelity_vs_m(path_graph(3), (0, 2), 2)
    assert [r.provenance for r in table.rows] == ["direct"] * 3


def test_laplacian_corona_below_unity():
    g = path_graph(3)
    table = fidelity_vs_m(g, (0, 2), 1, matrix_kind="laplacian", t_max=20.0)
    assert table.rows[1].f_star < 1 - 1e-6
    # an unsigned seed has d- = 0 and L 1 = 0, so it meets the Laplacian
    # hypotheses: its coronas scan through the recursion
    assert [r.provenance for r in table.rows] == ["direct", "recursion"]


def test_scan_rejects_foreign_pair(signed_square):
    with pytest.raises(ValueError):
        fidelity_vs_m(signed_square, (0, 5), 1)


# --- seed-block recursion ----------------------------------------------------------

SEEDS = {
    "k3": lambda: complete_graph(3),
    "c4": lambda: cycle_graph(4),
    "p3": lambda: path_graph(3),
    "star": lambda: make_graph(4, [(0, 1), (0, 2), (0, 3)]),
    **{name: (lambda name=name: parse_graph_file(str(EXAMPLES / f"{name}.graph")))
       for name in ("example01", "example02", "example03", "example04")},
}
RECURSION_CASES = [(name, kind) for name in ("k3", "c4", "example01", "example02",
                                             "example03", "example04")
                   for kind in ("adjacency", "laplacian")]
# unsigned seeds meet the Laplacian hypotheses whatever their degrees
RECURSION_CASES += [("p3", "laplacian"), ("star", "laplacian")]


@pytest.mark.parametrize("name, kind", RECURSION_CASES)
def test_recursion_matches_the_direct_solve(name, kind):
    """Seed blocks of U(t) and scan rows (0, v) against G^(m) solved densely, m <= 3."""
    seed = SEEDS[name]()
    n = seed.vertex_count
    m_max = max(m for m in range(4) if corona_vertex_count(n, m) <= CORONA_SIZE_GUARD)
    tables = {v: fidelity_vs_m(seed, (0, v), m_max, kind).rows for v in range(1, n)}
    rng = np.random.default_rng(n * 10 + m_max)
    for m in range(m_max + 1):
        direct = graph_spectrum(iterate_corona(seed, m), kind)
        recursion = corona_seed_spectrum(seed, m, kind)
        assert recursion.dimension == n * 2 ** m
        assert np.all(np.diff(recursion.eigenvalues) >= 0)
        rows = direct.eigenvectors[:n]
        for t in rng.uniform(0.0, 20.0, 4):
            block = (rows * np.exp(-1j * t * direct.eigenvalues)) @ rows.T
            np.testing.assert_allclose(recursion.apply(t, np.eye(n)), block, rtol=0, atol=1e-12)
        for v, table in tables.items():
            row = table[m]
            assert row.provenance == ("recursion" if m else "direct")
            t_star, f_star = max_fidelity_scan_spectrum(pair_rows(direct, 0, v), 20.0, 0.005)
            assert abs(row.f_star - f_star) <= 1e-12
            if f_star > 1e-6:   # where the amplitude vanishes t* means nothing
                assert abs(row.t_star - t_star) <= 1e-8


@pytest.mark.parametrize("name, kind", RECURSION_CASES)
def test_recursion_rows_scan_the_seed_rows_of_the_spectrum(name, kind):
    """Mapping only rows u and v per order scans exactly as all n rows do."""
    seed = SEEDS[name]()
    n = seed.vertex_count
    spectra = [corona_seed_spectrum(seed, m, kind) for m in (1, 2, 3)]
    for u in range(n):
        for v in range(n):
            rows = fidelity_vs_m(seed, (u, v), 3, kind, t_max=5.0).rows[1:]
            assert [row.provenance for row in rows] == ["recursion"] * 3
            for row, spec in zip(rows, spectra):
                assert (row.t_star, row.f_star) == max_fidelity_scan_spectrum(
                    pair_rows(spec, u, v), 5.0, 0.005)


def test_recursion_builds_no_product_and_solves_only_the_seed(signed_square, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("iterate_corona called for a seed that meets the theorem")

    dims = []
    honest = np.linalg.eigh

    def recorded(matrix, *args, **kwargs):
        dims.append(np.shape(matrix)[0])
        return honest(matrix, *args, **kwargs)

    monkeypatch.setattr(corona_lab, "iterate_corona", refuse)
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    for kind in ("adjacency", "laplacian"):
        table = fidelity_vs_m(signed_square, (0, 2), 6, kind)
        assert [r.provenance for r in table.rows] == ["direct"] + ["recursion"] * 6
        assert [r.m for r in table.rows] == list(range(7))
    assert max(dims) == signed_square.vertex_count


def test_recursion_weights_keep_the_seed_block_unitary(unbalanced_k4):
    for kind in ("adjacency", "laplacian"):
        spec = corona_seed_spectrum(unbalanced_k4, 8, kind)
        np.testing.assert_allclose(spec.eigenvectors @ spec.eigenvectors.T,
                                   np.eye(4), rtol=0, atol=1e-12)


def test_recursion_past_the_size_guard_matches_krylov(signed_square):
    g = signed_square
    for _ in range(5):
        g = corona(g, signed_square)
    assert g.vertex_count == 12500 > CORONA_SIZE_GUARD
    table = fidelity_vs_m(signed_square, (0, 2), 5)
    row = table.rows[5]
    assert row.provenance == "recursion"
    assert abs(abs(expm_amplitude(g, 0, 2, row.t_star)) - row.f_star) <= 1e-9


def test_recursion_refuses_above_its_term_cap(signed_square, monkeypatch):
    def scanned(*args, **kwargs):
        pytest.fail("an order was scanned before the cap was checked")

    monkeypatch.setattr(corona_lab, "max_fidelity_scan_spectrum", scanned)
    m = RECURSION_MAX_TERMS.bit_length() - 2   # 4 * 2^m = 2 * RECURSION_MAX_TERMS
    for order in (m, 10 ** 9):
        with pytest.raises(ValueError, match=f"above the limit of {RECURSION_MAX_TERMS}"):
            fidelity_vs_m(signed_square, (0, 2), order)
        with pytest.raises(ValueError, match=f"above the limit of {RECURSION_MAX_TERMS}"):
            corona_seed_spectrum(signed_square, order)


def test_recursion_refuses_a_seed_outside_the_hypotheses():
    with pytest.raises(TheoremHypothesisError, match="not net-regular"):
        corona_seed_spectrum(path_graph(3), 2)


def _decision_cases():
    """The examples, K2..K7, C3..C9, P2..P6, Q1..Q4 and 400 random signed
    graphs on 2..7 vertices."""
    seeds = [SEEDS[f"example0{i}"]() for i in range(1, 5)]
    seeds += [complete_graph(n) for n in range(2, 8)]
    seeds += [cycle_graph(n) for n in range(3, 10)]
    seeds += [path_graph(n) for n in range(2, 7)]
    seeds += [hypercube(d) for d in range(1, 5)]
    rng = np.random.default_rng(2007)
    for _ in range(400):
        n = int(rng.integers(2, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 1.0)
        signs = rng.choice((-1, 1), len(pairs))
        seeds.append(make_graph(n, [(i, j, 1, int(sign)) for (i, j), sign, k
                                    in zip(pairs, signs, keep) if k]))
    return seeds


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheme", [MarkingScheme.CANONICAL, MarkingScheme.PLURALITY])
def test_recursion_is_chosen_exactly_where_the_one_level_theorem_holds(
        kind, scheme, monkeypatch):
    """The hypotheses decide as the dense one-level check used to, without it."""
    seeds = _decision_cases()
    wanted = []
    for seed in seeds:
        try:
            corona_spectrum(seed, seed, kind, scheme)
            wanted.append("recursion")
        except TheoremHypothesisError:
            wanted.append("direct")
    assert 0 < wanted.count("recursion") < len(wanted)

    def refuse(*args, **kwargs):
        pytest.fail("fidelity_vs_m solved the one-level product")

    monkeypatch.setattr(corona_lab, "corona_spectrum", refuse)
    for seed, want in zip(seeds, wanted):
        table = fidelity_vs_m(seed, (0, seed.vertex_count - 1), 1, kind,
                              t_max=0.0, dt=1.0, scheme=scheme)
        assert table.rows[1].provenance == want


@pytest.mark.parametrize("kind", KINDS)
def test_recursion_past_the_dense_reach_matches_krylov(kind):
    """C_100's one-level product has 10100 vertices, past DENSE_MAX_DIM."""
    seed = cycle_graph(100)
    product = corona(seed, seed)
    assert product.vertex_count > spectral.DENSE_MAX_DIM
    for v in (5, 50):
        table = fidelity_vs_m(seed, (0, v), 2, kind)
        assert [r.provenance for r in table.rows] == ["direct", "recursion", "recursion"]
        row = table.rows[1]
        amp = expm_amplitude(product, 0, v, row.t_star, kind)
        assert abs(abs(amp) - row.f_star) <= 1e-9


@pytest.mark.parametrize("seed_fn", [lambda: complete_graph(1), lambda: complete_graph(2),
                                     lambda: cycle_graph(4), SEEDS["example01"]])
@pytest.mark.parametrize("kind", KINDS)
def test_self_pairs_peak_at_time_zero(seed_fn, kind):
    """|<u|U(t)|u>| <= 1 = |<u|U(0)|u>|; the bounded peak search never returns
    its endpoint t = 0, so the scan keeps it whenever the search finds no more."""
    seed = seed_fn()
    for u in range(seed.vertex_count):
        for row in fidelity_vs_m(seed, (u, u), 2, kind).rows:
            assert row.t_star == 0.0
            assert row.f_star == pytest.approx(1.0, abs=1e-12)


# --- all-pairs grid maxima ---------------------------------------------------------

def test_all_pairs_matches_the_per_time_loop(signed_square, monkeypatch):
    rng = np.random.default_rng(7)
    matrices = [laplacian(corona(signed_square, signed_square)),
                adjacency(cycle_graph(7)), adjacency(hypercube(3))]
    for n in (3, 5):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        seed = make_graph(n, edges + [(i, i + 1) for i in range(n - 1)
                                      if (i, i + 1) not in edges])
        matrices.append(laplacian(corona(seed, seed)))
    for matrix in matrices:
        w, vecs = np.linalg.eigh(matrix)
        want = np.zeros(matrix.shape)
        for t in np.arange(0.0, 50.0 + 0.005, 0.005):
            np.maximum(want, np.abs((vecs * np.exp(-1j * t * w)) @ vecs.T), out=want)
        # one block of pairs, then blocks of a few pairs each; the 10001
        # times are no multiple of the time block at either scale
        for block_entries, scale in ((spectral.AMPLITUDE_BLOCK_ENTRIES,
                                      spectral.SCAN_BLOCK_SCALE), (256, 1)):
            monkeypatch.setattr(corona_lab, "AMPLITUDE_BLOCK_ENTRIES", block_entries)
            monkeypatch.setattr(spectral, "SCAN_BLOCK_SCALE", scale)
            best = all_pairs_max_fidelity(matrix, 50.0, 0.005)
            np.testing.assert_allclose(best, want, rtol=0, atol=1e-12)
            assert np.array_equal(best, best.T)


def test_all_pairs_scans_through_the_grid_kernel(monkeypatch):
    calls = []
    honest = corona_lab._grid_magnitudes

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return honest(*args, **kwargs)

    monkeypatch.setattr(corona_lab, "_grid_magnitudes", recorded)
    monkeypatch.setattr(corona_lab, "AMPLITUDE_BLOCK_ENTRIES", 20)
    best = all_pairs_max_fidelity(adjacency(cycle_graph(5)), 3.0, 0.01)
    # 15 pairs a <= b in blocks of 20 // 5 = 4
    assert calls == [{"running_max": True}] * 4
    np.testing.assert_allclose(np.diag(best), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["example01", "example02", "example03", "example04"])
def test_fidelity_rows_equal_the_direct_grid(name, direct_grid_scan):
    seed = SEEDS[name]()
    n = seed.vertex_count
    # the m = 0 row scans the walk module of vertex 0 up to t_max = 20, the
    # grid's last point 4000 dt; its rows are (0, 1)
    span = 20.0
    for kind in ("adjacency", "laplacian"):
        spectra = [corona_seed_spectrum(seed, m, kind) for m in (1, 2, 3)]
        for v in range(1, n):
            table = fidelity_vs_m(seed, (0, v), 3, kind)
            assert [row.provenance for row in table.rows] == ["direct"] + ["recursion"] * 3
            walk = spectral.walk_spectrum(seed, 0, v, kind, span).spectrum
            for row, spec in zip(table.rows,
                                 [walk] + [pair_rows(spec, 0, v) for spec in spectra]):
                want = direct_grid_scan(spec, 20.0, 0.005)
                if want[1] > 1e-12:
                    assert (row.t_star, row.f_star) == want
                else:   # an amplitude that vanishes: its t* is rounding noise
                    assert row.f_star <= 1e-12
