import contextlib
import math
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from pstnet import corona_lab, spectral
from pstnet.chains import pst_chain, unmodulated_no_pst_scan
from pstnet.corona_lab import all_pairs_max_fidelity, fidelity_vs_m
from pstnet.graphs import (SignedWeightedGraph, cartesian, complete_graph, corona,
                           cycle_graph, edge_table, graph_matrix, hypercube, laplacian,
                           make_graph, path_graph)
from pstnet.routing import swap_baseline
from pstnet.spectral import (Spectrum, check_pst_conditions, hypercube_apply, max_fidelity_scan,
                             max_fidelity_scan_spectrum, rationality_check,
                             transfer_amplitude)

import oracles
from oracles import (adjacency, balanced_equivalent_amplitude, bipartite_phase_audit,
                     eigenspace_rows, evolve, graph_spectrum, pair_rows,
                     periodicity_check, spin_oracle_check, symmetry_operator)

RNG = np.random.default_rng(1851)


def random_symmetric(n):
    m = RNG.normal(size=(n, n))
    return (m + m.T) / 2


# --- evolve ------------------------------------------------------------------

def test_evolve_identity_at_t0():
    g = cycle_graph(5)
    spec = graph_spectrum(g)
    state = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    state /= np.linalg.norm(state)
    np.testing.assert_allclose(evolve(spec, 0.0, state), state, atol=1e-12)


def test_k2_full_swap_at_half_pi():
    spec = graph_spectrum(complete_graph(2))
    out = evolve(spec, math.pi / 2, np.array([1.0, 0.0], dtype=complex))
    assert abs(abs(out[1]) - 1.0) < 1e-12
    # transfer phase is -i for the odd-distance pair
    np.testing.assert_allclose(out[1], -1j, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 9))
def test_hypercube_kernel_matches_spectrum(d):
    n = 1 << d
    for _ in range(3):
        w, t = RNG.uniform(0.1, 3.0), RNG.uniform(-5.0, 5.0)
        host = hypercube(d)
        weighted = make_graph(n, [(e.u, e.v, w) for e in host.edges])
        state = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        state /= np.linalg.norm(state)
        np.testing.assert_allclose(hypercube_apply(d, w, t, state),
                                   graph_spectrum(weighted).apply(t, state),
                                   atol=1e-12, rtol=0)


def test_hypercube_kernel_antipodal_phase_and_shape_check():
    for d in range(0, 7):
        start = np.zeros(1 << d, dtype=complex)
        start[0] = 1.0
        out = hypercube_apply(d, 2.0, math.pi / 4, start)
        np.testing.assert_allclose(out[-1], (-1j) ** d, atol=1e-15)
    with pytest.raises(ValueError, match="Q_3"):
        hypercube_apply(3, 1.0, 1.0, np.ones(6))


def test_p3_end_to_end_closed_form():
    spec = graph_spectrum(path_graph(3))
    for t in (0.3, 1.0, 2.0, math.pi / math.sqrt(2)):
        out = evolve(spec, t, np.array([1.0, 0, 0], dtype=complex))
        np.testing.assert_allclose(out[2], -math.sin(t / math.sqrt(2)) ** 2,
                                   atol=1e-12)


def test_evolve_requires_normalized_state():
    spec = graph_spectrum(complete_graph(2))
    with pytest.raises(ValueError):
        evolve(spec, 1.0, np.array([1.0, 1.0], dtype=complex))


def test_evolve_rejects_dimension_mismatch():
    spec = graph_spectrum(complete_graph(2))
    with pytest.raises(ValueError):
        evolve(spec, 1.0, np.array([1.0, 0, 0], dtype=complex))


def test_dense_limit_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_MAX_DIM", 8)
    assert graph_spectrum(hypercube(3)).dimension == 8
    with pytest.raises(ValueError, match="16 exceeds the limit of 8"):
        Spectrum.from_matrix(np.eye(16))
    monkeypatch.setattr(oracles, "graph_matrix", lambda g, kind: pytest.fail(
        "the graph matrix was built before the size check"))
    with pytest.raises(ValueError, match="16 exceeds the limit of 8"):
        graph_spectrum(hypercube(4))


def test_spectrum_eigen_residual():
    m = random_symmetric(8)
    spec = Spectrum.from_matrix(m)
    for j in range(8):
        res = m @ spec.eigenvectors[:, j] - spec.eigenvalues[j] * spec.eigenvectors[:, j]
        assert np.max(np.abs(res)) <= 1e-9 * max(1.0, abs(spec.eigenvalues[j]))
    np.testing.assert_allclose(spec.eigenvectors.T @ spec.eigenvectors,
                               np.eye(8), atol=1e-9)


# --- transfer amplitude ------------------------------------------------------

def test_amplitude_trivial_self_overlap():
    g = cycle_graph(6)
    rep = transfer_amplitude(g, 2, 2, 0.0)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-12)
    assert rep.phase == pytest.approx(0.0, abs=1e-12)
    assert rep.magnitude >= 1 - spectral.DEFAULT_PST_TOL


@pytest.mark.parametrize("d", range(1, 11))
def test_hypercube_antipodal_transfer(d):
    g = hypercube(d)
    rep = transfer_amplitude(g, 0, (1 << d) - 1, math.pi / 2)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-8)


def test_signed_square_amplitude_is_sine_squared(signed_square):
    for t in (0.3, 0.7, 1.2):
        rep = transfer_amplitude(signed_square, 0, 2, t)
        assert rep.magnitude == pytest.approx(math.sin(t) ** 2, abs=1e-9)


def test_amplitude_matches_expm():
    g = make_graph(4, [(0, 1, 1.3, -1), (1, 2, 0.7, 1), (0, 2, 0.9, 1),
                       (2, 3, 1.1, -1)])
    u = expm(-1j * adjacency(g) * 1.7)
    rep = transfer_amplitude(g, 0, 3, 1.7)
    assert rep.magnitude == pytest.approx(abs(u[3, 0]), abs=1e-12)
    assert rep.phase == pytest.approx(np.angle(u[3, 0]), abs=1e-9)


# --- conditions ---------------------------------------------------------------

def test_k2_conditions_all_true():
    rep = check_pst_conditions(complete_graph(2), 0, 1)
    assert rep.vector_condition and rep.eigenvalue_condition and rep.rationality
    assert rep.best_time == pytest.approx(math.pi / 2, abs=1e-6)


def test_p4_rationality_fails():
    rep = check_pst_conditions(path_graph(4), 0, 3)
    assert rep.vector_condition
    assert not rep.rationality
    assert not rep.eigenvalue_condition


def test_q3_vector_condition_under_degeneracy():
    rep = check_pst_conditions(hypercube(3), 0, 7)
    assert rep.vector_condition
    assert rep.eigenvalue_condition
    assert rep.best_time == pytest.approx(math.pi / 2, abs=1e-6)


def test_condition_fails_for_non_cospectral_pair():
    rep = check_pst_conditions(path_graph(3), 0, 1)
    assert not rep.vector_condition


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
@pytest.mark.parametrize("q", [99, 999, 9999])
def test_k2_box_weak_k2_has_pst_at_q_half_pi(q, kind):
    # K2(1) box K2(1/q): both factors swap at odd multiples of q pi/2 and
    # pi/2, so 0 -> 3 first transfers at q pi/2 (q odd)
    g = cartesian(make_graph(2, [(0, 1, 1.0)]), make_graph(2, [(0, 1, 1.0 / q)]))
    rep = check_pst_conditions(g, 0, 3, matrix_kind=kind)
    assert rep.vector_condition and rep.rationality and rep.eigenvalue_condition
    assert rep.best_time == pytest.approx(q * math.pi / 2, rel=1e-9)
    assert rep.best_magnitude == pytest.approx(1.0, abs=1e-9)
    oracle = expm(-1j * rep.best_time * graph_matrix(g, kind))
    assert abs(oracle[3, 0]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("g", [complete_graph(2), path_graph(4), cycle_graph(6)])
def test_pair_with_itself_transfers_at_time_zero(g):
    rep = check_pst_conditions(g, 1, 1)
    assert rep.vector_condition and rep.eigenvalue_condition
    assert rep.best_time == 0.0 and rep.best_magnitude == 1.0


@pytest.mark.parametrize("g,u,v", [(cycle_graph(6), 0, 3), (path_graph(3), 0, 1)])
def test_rational_pair_without_pst_reports_no_time(g, u, v):
    # C6 0 -> 3 is strongly cospectral but fails the parity rule; P3 0 -> 1
    # fails the vector condition
    rep = check_pst_conditions(g, u, v)
    assert rep.rationality and not rep.eigenvalue_condition
    assert rep.best_time is None and rep.best_magnitude == 0.0


@pytest.mark.parametrize("call", [
    lambda g: check_pst_conditions(g, -1, 1),
    lambda g: check_pst_conditions(g, 0, 2),
    lambda g: transfer_amplitude(g, 0, 2, 1.0),
    lambda g: symmetry_operator(g, 2, 0),
], ids=["pst-negative", "pst-high", "transfer", "symmetry"])
def test_vertices_outside_the_graph_are_refused(call):
    with pytest.raises(ValueError, match="outside 0..1"):
        call(complete_graph(2))


# --- rationality ---------------------------------------------------------------

def test_rationality_trivial_single_gap():
    assert rationality_check([-1.0, 1.0]) == [1]


def test_rationality_integer_spectrum():
    assert rationality_check([-3.0, -1.0, 1.0, 3.0]) == [1, 2, 3]


@pytest.mark.parametrize("n", range(4, 12))
def test_rationality_rejects_surd_spectra(n):
    eigs = np.linalg.eigvalsh(adjacency(path_graph(n)))
    assert rationality_check(eigs) is None


@pytest.mark.parametrize("q", [9999, 99999])
def test_rationality_accepts_large_denominators(q):
    # gaps 2/q, 2, 2 + 2/q: ratios 1/(q + 1), q/(q + 1) and 1
    assert rationality_check([-1 - 1 / q, -1 + 1 / q, 1 - 1 / q, 1 + 1 / q]) == [1, q, q + 1]


@pytest.mark.parametrize("eigs", [[1.0, 1.0], [0.0, 2.0, 1.0], [3.0, -3.0]])
def test_rationality_refuses_values_out_of_order(eigs):
    with pytest.raises(ValueError, match="ascending distinct"):
        rationality_check(eigs)


def test_rationality_accepts_noisy_rationals():
    # ratios 1/4, 5/8 and 1 over L = 8
    assert rationality_check([0.0, 1.0 + 3e-13, 2.5, 4.0 - 2e-13]) == [2, 5, 8]


REDUCED_RATIOS = st.lists(
    st.builds(lambda p, q: Fraction(p % q + 1, q + 1), st.integers(0, 10 ** 4),
              st.integers(1, 1000)),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ratios=REDUCED_RATIOS)
def test_rationality_steps_are_coprime_over_the_lcm(ratios):
    # 0 < p/q <= 1 in lowest terms over q <= 1001, placed as eigenvalues
    # 0 and p/q, with 1 the spread; the steps are n_r = (p_r/q_r) L
    fracs = sorted({*ratios, Fraction(1)})
    scale = math.lcm(*(f.denominator for f in fracs))
    steps = rationality_check([0.0, *(float(f) for f in fracs)])
    assert steps == [int(f * scale) for f in fracs]
    assert math.gcd(*steps) == 1 and steps[-1] == scale


def oracle_steps(eigs):
    """The steps of ascending distinct values with each ratio recognised by
    `Fraction.limit_denominator` (`oracles.limit_denominator_rule`)."""
    low, spread = eigs[0], eigs[-1] - eigs[0]
    fracs = [oracles.limit_denominator_rule((e - low) / spread, spectral.DEFAULT_PST_TOL,
                                            spectral.DEFAULT_MAX_DENOMINATOR)
             for e in eigs[1:]]
    if None in fracs:
        return None
    scale = math.lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


# p/q with q <= 1000 on an offset and a spread, each value moved by a relative
# noise of at most 1e-13; or the same with surds sqrt(k) among the values
NOISY_RATIONALS = st.builds(
    lambda fracs, noise, low, spread: [low + spread * float(f) * (1 + e)
                                       for f, e in zip(sorted({0, 1, *fracs}), noise)],
    st.lists(st.builds(lambda p, q: Fraction(p % q + 1, q + 1), st.integers(0, 10 ** 4),
                       st.integers(1, 999)), min_size=0, max_size=8),
    st.lists(st.floats(-1e-13, 1e-13), min_size=10, max_size=10),
    st.sampled_from([0.0, -3.0, 2.5]), st.sampled_from([1.0, 0.3, 7.0]))
SURD_SPECTRA = st.builds(
    lambda values, surds: sorted({*values, *(math.sqrt(k) for k in surds)}),
    st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=5),
    st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(eigs=st.one_of(NOISY_RATIONALS, SURD_SPECTRA))
@example(eigs=[-1 - 1 / 9999, -1 + 1 / 9999, 1 - 1 / 9999, 1 + 1 / 9999])
@example(eigs=[-1 - 1 / 99999, -1 + 1 / 99999, 1 - 1 / 99999, 1 + 1 / 99999])
def test_certified_ratios_give_the_limit_denominator_steps(eigs):
    assert rationality_check(eigs) == oracle_steps(eigs)


@pytest.mark.parametrize("g,u,v", [
    (path_graph(8), 0, 7),
    (make_graph(40, [(i, i + 1, j) for i, j in enumerate(pst_chain(40).couplings)]), 0, 39),
], ids=["P8", "pst_chain(40)"])
def test_one_continued_fraction_per_verdict(g, u, v, monkeypatch):
    # P8 stops at its first surd ratio; pst_chain(40)'s ratios k/39 are
    # certified against the 39 of the first
    calls = []
    recognize = spectral._recognize_rational
    monkeypatch.setattr(spectral, "_recognize_rational",
                        lambda *args: calls.append(args) or recognize(*args))
    check_pst_conditions(g, u, v)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdicts_construct_no_fraction(seed, monkeypatch):
    # every verdict of the benchmark's `verdict` workload, decided in ints
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    ops = [op for op in workloads.verdict_setup(np.random.default_rng(seed))
           if op.run is workloads._verdict]
    assert ops

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a verdict constructed a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="constructed a Fraction"):
        Fraction(1, 2)
    for op in ops:
        op.check(op.run(*op.args), *op.args)


DENOMINATORS = st.sampled_from([1, 10, 999, 10 ** 6])
TOLERANCES = st.sampled_from([spectral.DEFAULT_PST_TOL, 1e-6])


def _nudged(frac, ulps):
    x = float(frac)
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


# near-ties: the midpoint of two fractions with small denominators, which is
# a float itself when its denominator is a power of two (0.5 at q = 1), a few
# ulps either side; near-rationals: p/q moved by up to 1e-12
NEAR_TIES = st.builds(
    lambda a, b, c, d, ulps: _nudged((Fraction(a % (b + 1), b) + Fraction(c % (d + 1), d)) / 2,
                                     ulps),
    st.integers(0, 2000), st.integers(1, 2000), st.integers(0, 2000), st.integers(1, 2000),
    st.integers(-3, 3))
NEAR_RATIONALS = st.builds(
    lambda p, q, e: min(1.0, max(0.0, p % (q + 1) / q + e)),
    st.integers(0, 10 ** 7), st.integers(1, 10 ** 7), st.floats(-1e-12, 1e-12))
RATIOS = st.one_of(st.floats(min_value=0.0, max_value=1.0), NEAR_TIES, NEAR_RATIONALS)


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(x=RATIOS, q=DENOMINATORS, tol=TOLERANCES)
# an exact tie, 1/2 between 0/1 and 1/1, accepted and refused
@example(x=0.5, q=1, tol=0.5)
@example(x=0.5, q=1, tol=1e-9)
def test_recognize_rational_is_the_limit_denominator_rule(x, q, tol):
    # the rule reads its bound and tolerance from the module constants
    with mock.patch.object(spectral, "DEFAULT_MAX_DENOMINATOR", q), \
            mock.patch.object(spectral, "DEFAULT_PST_TOL", tol):
        got = spectral._recognize_rational(x)
    want = oracles.limit_denominator_rule(x, tol, q)
    assert got == (None if want is None else (want.numerator, want.denominator))
    assert got is None or all(type(k) is int for k in got)


def test_recognize_rational_breaks_an_exact_tie_toward_the_convergent():
    # 1/2 lies halfway between 0/1 and 1/1; limit_denominator keeps the
    # convergent 0/1, and the surd floor then refuses it
    assert Fraction(0.5).limit_denominator(1) == 0
    with mock.patch.object(spectral, "DEFAULT_MAX_DENOMINATOR", 1):
        with mock.patch.object(spectral, "DEFAULT_PST_TOL", 0.5):
            assert spectral._recognize_rational(0.5) == (0, 1)
        assert spectral._recognize_rational(0.5) is None


# --- scans ---------------------------------------------------------------------

def test_scan_k2():
    t_star, f_star = max_fidelity_scan(complete_graph(2), 0, 1, math.pi, 0.01)
    assert t_star == pytest.approx(math.pi / 2, abs=1e-9)
    assert f_star == pytest.approx(1.0, abs=1e-9)


def test_scan_p3():
    t_star, f_star = max_fidelity_scan(path_graph(3), 0, 2, 2 * math.pi, 0.01)
    assert t_star == pytest.approx(math.pi / math.sqrt(2), abs=1e-9)
    assert f_star == pytest.approx(1.0, abs=1e-9)


def test_scan_p5_never_perfect():
    # the 5-site uniform chain admits pretty good transfer (peaks 0.9998 near
    # t = 47) but never perfect transfer
    _, f_star = max_fidelity_scan(path_graph(5), 0, 4, 100.0, 0.005)
    assert 0.99 < f_star < 1 - 1e-6


def test_scan_rejects_bad_dt():
    with pytest.raises(ValueError):
        max_fidelity_scan(complete_graph(2), 0, 1, 1.0, 0.0)


@pytest.mark.parametrize("t_max, dt, message", [
    (-1.0, 0.01, "scan t_max must be finite and >= 0, got -1.0"),
    (math.nan, 0.01, "scan t_max must be finite and >= 0, got nan"),
    (math.inf, 0.01, "scan t_max must be finite and >= 0, got inf"),
    (1.0, -0.1, "scan dt must be finite and > 0, got -0.1"),
    (1.0, 0.0, "scan dt must be finite and > 0, got 0.0"),
    (1.0, math.nan, "scan dt must be finite and > 0, got nan"),
    (1.0, math.inf, "scan dt must be finite and > 0, got inf"),
    (1e9, 0.01, "scan of [0, 1000000000.0] at dt = 0.01 asks for more than "
                "10000000 time points"),
])
def test_scans_refuse_a_bad_grid(t_max, dt, message):
    # these used to give an all-zero matrix, ZeroDivisionError, numpy's
    # "arange: cannot compute length" or a reduction over an empty grid
    g = path_graph(3)
    for scan in (lambda: max_fidelity_scan(g, 0, 2, t_max, dt),
                 lambda: max_fidelity_scan_spectrum(pair_rows(graph_spectrum(g), 0, 2),
                                                    t_max, dt),
                 lambda: all_pairs_max_fidelity(adjacency(g), t_max, dt)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scan()


def test_scan_points_count_the_grid_up_to_t_max():
    """K + 1 points k dt, K the largest integer with K dt <= t_max up to
    rounding: the row rule of `pstnet pst --csv`."""
    rng = np.random.default_rng(5)
    for _ in range(2000):
        dt = float(10.0 ** rng.uniform(-4, 1))
        t_max = float(rng.choice([0.0, rng.uniform(0, 50), round(rng.uniform(0, 50), 2)]))
        last = spectral._scan_points(t_max, dt) - 1
        assert last * dt <= t_max * (1 + 1e-12)
        assert (last + 1) * dt > t_max * (1 + 1e-13)
    for t_max, dt, points in [(0.7, 0.1, 8), (0.3, 0.1, 4), (0.65, 0.1, 7), (0.0, 0.1, 1),
                              (20.0, 0.01, 2001), (20.0, 0.005, 4001),
                              (50.0, 0.005, 10001), (200.0, 0.002, 100001)]:
        assert spectral._scan_points(t_max, dt) == points
    assert spectral._scan_points(spectral.SCAN_MAX_POINTS - 1.0, 1.0) == spectral.SCAN_MAX_POINTS
    with pytest.raises(ValueError, match="asks for more than"):
        spectral._scan_points(float(spectral.SCAN_MAX_POINTS), 1.0)
    with pytest.raises(ValueError, match="asks for more than"):
        spectral._scan_points(1e308, 1e-300)


def test_p2_scans_end_at_t_max():
    # <1|U(t)|0> = -i sin t on P2 rises on [0, pi/2], so over [0, t_max] the
    # best time is t_max itself; the scans used to refine past it (1.5708 and
    # f* = 1 for 1.5; 1.1 for 1.0; 0.300003 for 0.3)
    p2 = path_graph(2)
    assert max_fidelity_scan(p2, 0, 1, 1.5, 0.1) == (1.5, pytest.approx(math.sin(1.5),
                                                                         abs=1e-12))
    row = fidelity_vs_m(p2, (0, 1), 1, t_max=1.0, dt=0.1).rows[0]
    assert (row.t_star, row.f_star) == (1.0, pytest.approx(math.sin(1.0), abs=1e-12))
    assert unmodulated_no_pst_scan(2, 0.3) == (0.3, pytest.approx(math.sin(0.3), abs=1e-12))
    # t_max between grid points, and below the first step
    for t_max in (1.05, 0.05):
        assert max_fidelity_scan(p2, 0, 1, t_max, 0.1) == (
            t_max, pytest.approx(math.sin(t_max), abs=1e-12))


@contextlib.contextmanager
def latest_time_evaluated():
    """Record the largest |t| at which `Spectrum.amplitude` or the grid kernel
    (as `spectral` and `corona_lab` call it) evaluates an amplitude."""
    latest = [0.0]
    amplitude, kernel = Spectrum.amplitude, spectral._grid_magnitudes

    def recorded_amplitude(self, u, v, t):
        latest[0] = max(latest[0], float(np.max(np.abs(t), initial=0.0)))
        return amplitude(self, u, v, t)

    def recorded_kernel(eigenvalues, coeffs, dt, count, *args, **kwargs):
        latest[0] = max(latest[0], (count - 1) * dt)
        return kernel(eigenvalues, coeffs, dt, count, *args, **kwargs)

    with mock.patch.object(Spectrum, "amplitude", recorded_amplitude), \
            mock.patch.object(spectral, "_grid_magnitudes", recorded_kernel), \
            mock.patch.object(corona_lab, "_grid_magnitudes", recorded_kernel):
        yield latest


def test_all_pairs_grid_ends_at_t_max():
    # 20 / 0.01 used to count 2002 points, the last at 20.01
    with latest_time_evaluated() as latest:
        all_pairs_max_fidelity(adjacency(path_graph(3)), 20.0, 0.01)
    assert latest[0] == 20.0


HORIZON_GRAPHS = {"P2": path_graph(2), "P3": path_graph(3), "C4": cycle_graph(4),
                  "K3": complete_graph(3)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(HORIZON_GRAPHS)),
       t_max=st.one_of(st.floats(0.0, 4.0),
                       st.integers(0, 40).map(lambda k: k / 10),
                       st.sampled_from([0.3, 0.7, 1.5, math.pi / 2, math.pi])),
       dt=st.one_of(st.floats(0.005, 1.0), st.sampled_from([0.1, 0.01, 0.3])))
def test_scans_evaluate_no_time_past_t_max(name, t_max, dt):
    """Every scan evaluates amplitudes only on [0, t_max], and its t* lies
    there; the grid's last point K dt is t_max up to rounding (7 * 0.1 =
    0.7000000000000001)."""
    g = HORIZON_GRAPHS[name]
    n = g.vertex_count
    scans = [lambda: [max_fidelity_scan(g, 0, n - 1, t_max, dt)[0]],
             lambda: [max_fidelity_scan(g, 0, n - 1, t_max, dt, "laplacian")[0]],
             lambda: [unmodulated_no_pst_scan(n, t_max)[0]]]
    scans += [lambda kind=kind: [row.t_star for row in fidelity_vs_m(
                  g, (0, n - 1), 1, matrix_kind=kind, t_max=t_max, dt=dt).rows]
              for kind in ("adjacency", "laplacian")]
    for scan in scans:
        with latest_time_evaluated() as latest:
            t_stars = scan()
        assert all(0.0 <= t_star <= t_max for t_star in t_stars)
        assert latest[0] <= t_max * (1 + 1e-12)
    with latest_time_evaluated() as latest:
        all_pairs_max_fidelity(adjacency(g), t_max, dt)
    assert latest[0] <= t_max * (1 + 1e-12)


# --- the factored-phase grid kernel --------------------------------------------------

def _kernel_spectra():
    yield Spectrum.from_matrix(random_symmetric(9))
    yield Spectrum.from_matrix(random_symmetric(23))
    # Q_4: eigenvalues 4, 2, 0, -2, -4 with multiplicities 1, 4, 6, 4, 1
    yield graph_spectrum(hypercube(4))
    yield Spectrum.from_matrix(laplacian(corona(cycle_graph(4), cycle_graph(4))))


@pytest.mark.parametrize("scale", [spectral.SCAN_BLOCK_SCALE, 1])
def test_grid_kernel_matches_the_amplitude_grid(monkeypatch, scale):
    # 997 and 2000 points are no multiple of the block at either scale
    monkeypatch.setattr(spectral, "SCAN_BLOCK_SCALE", scale)
    dt = 0.013
    for spec in _kernel_spectra():
        n = spec.dimension
        pairs = [(0, 0), (0, 3), (2, 5), (1, n - 1), (n - 1, n - 1)]
        coeffs = np.column_stack([spec.eigenvectors[a] * spec.eigenvectors[b]
                                  for a, b in pairs])
        for count in (1, 2, 997, 2000):
            ts = np.arange(count) * dt
            want = np.column_stack([np.abs(spec.amplitude(a, b, ts)) for a, b in pairs])
            got = spectral._grid_magnitudes(spec.eigenvalues, coeffs, dt, count)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            top = spectral._grid_magnitudes(spec.eigenvalues, coeffs, dt, count,
                                            running_max=True)
            np.testing.assert_allclose(top, want.max(axis=0), rtol=0, atol=1e-12)


def test_grid_kernel_keeps_a_near_degenerate_beat():
    # delta t_max = 1e-5 for 1 and 1 + 1e-9 over [0, 1e4]: far above the
    # merge bound, so the two terms stay apart and |<1|U(t)|0>| =
    # |sin(5e-10 t)| climbs to sin(5e-6); merged they would cancel to 0
    half = math.sqrt(0.5)
    spec = Spectrum(np.array([1.0, 1.0 + 1e-9]), np.array([[half, half], [half, -half]]))
    dt, count = 0.5, 20001
    ts = np.arange(count) * dt
    want = np.abs(spec.amplitude(0, 1, ts))
    coeffs = (spec.eigenvectors[0] * spec.eigenvectors[1])[:, None]
    got = spectral._grid_magnitudes(spec.eigenvalues, coeffs, dt, count)[:, 0]
    # phases of angle 1e4 round to about 1e-12 in either evaluation
    np.testing.assert_allclose(got, want, rtol=0, atol=5e-12)
    assert got.max() == pytest.approx(math.sin(5e-6), rel=1e-5)
    top = spectral._grid_magnitudes(spec.eigenvalues, coeffs, dt, count, running_max=True)
    assert abs(top[0] - want.max()) <= 5e-12


def test_grid_kernel_merges_within_its_bound():
    # 1 and 1 + 1e-14 over [0, 50]: delta t_max = 5e-13, merged into one term
    half = math.sqrt(0.5)
    spec = Spectrum(np.array([1.0, 1.0 + 1e-14, 3.0]),
                    np.array([[half, 0.5, 0.5], [0.0, half, -half], [half, -0.5, -0.5]]))
    dt, count = 0.01, 5001
    ts = np.arange(count) * dt
    for a, b in ((0, 1), (0, 2), (2, 2)):
        coeffs = (spec.eigenvectors[a] * spec.eigenvectors[b])[:, None]
        got = spectral._grid_magnitudes(spec.eigenvalues, coeffs, dt, count)[:, 0]
        np.testing.assert_allclose(got, np.abs(spec.amplitude(a, b, ts)), rtol=0, atol=1e-12)


def test_run_starts_are_greedy_within_the_width():
    starts = spectral._run_starts(np.array([0.0, 0.6, 1.2, 1.8, 5.0]), 1.0)
    assert starts.tolist() == [0, 2, 4]
    assert spectral._run_starts(np.array([0.0, 0.0, 0.0, 3.0]), 0.0).tolist() == [0, 3]
    assert spectral._run_starts(np.array([-1.0, 2.0, 7.0]), 0.5).tolist() == [0, 1, 2]
    assert spectral._run_starts(np.array([2.0, 2.0]), math.inf).tolist() == [0]


def test_grid_kernel_drops_zero_rows_and_handles_no_terms():
    lam = np.array([0.0, 1.0, 2.0])
    got = spectral._grid_magnitudes(lam, np.zeros((3, 2)), 0.1, 7)
    assert got.shape == (7, 2) and not got.any()
    coeffs = np.array([[0.0], [0.5], [0.0]])
    np.testing.assert_allclose(spectral._grid_magnitudes(lam, coeffs, 0.1, 7), 0.5,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(4, 11))
def test_uniform_chain_scan_equals_the_direct_grid(n, direct_grid_scan):
    spec = graph_spectrum(path_graph(n))
    assert unmodulated_no_pst_scan(n, 200.0) == direct_grid_scan(pair_rows(spec, 0, n - 1),
                                                                 200.0, 0.002)


# --- pair table ------------------------------------------------------------------

def switched(g, flip):
    """g with the sign of every edge (a, b) for which flip(a, b) holds negated."""
    a, b, sw = g.edge_arrays
    signs = np.array([-1.0 if flip(x, y) else 1.0 for x, y in zip(a.tolist(), b.tolist())])
    return SignedWeightedGraph(g.vertex_count, edge_table(a, b, sw * signs))


DEGENERATE_SIGNED = {
    # a switching by the vertices x = 0 (mod 3) keeps the spectrum; one
    # negative edge makes the graph unbalanced, with eigenvalues that still repeat
    "C8-switched": switched(cycle_graph(8), lambda x, y: (x % 3 == 0) != (y % 3 == 0)),
    "C7-one-negative": switched(cycle_graph(7), lambda x, y: (x, y) == (0, 1)),
    "K6-switched": switched(complete_graph(6), lambda x, y: (x % 3 == 0) != (y % 3 == 0)),
    "K6-one-negative": switched(complete_graph(6), lambda x, y: (x, y) == (0, 1)),
    "Q4-switched": switched(hypercube(4), lambda x, y: (x % 3 == 0) != (y % 3 == 0)),
    "Q4-one-negative": switched(hypercube(4), lambda x, y: (x, y) == (0, 1)),
}


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
@pytest.mark.parametrize("name", sorted(DEGENERATE_SIGNED))
def test_pair_table_matches_the_eigenspace_oracle(name, kind):
    g = DEGENERATE_SIGNED[name]
    spec = Spectrum.from_matrix(graph_matrix(g, kind))
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            group, norm_u, norm_v, overlap = eigenspace_rows(spec, u, v)
            assert np.bincount(group).max() > 1
            lam, a, b, c = np.array(spectral._pair_table(pair_rows(spec, u, v))).T
            means = np.bincount(group, weights=spec.eigenvalues) / np.bincount(group)
            for got, want in ((lam, means), (a, norm_u ** 2), (b, overlap), (c, norm_v ** 2)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --- symmetry --------------------------------------------------------------------

def test_k2_symmetry_is_swap():
    rep = symmetry_operator(complete_graph(2), 0, 1)
    assert rep.commutes and rep.maps_pair
    np.testing.assert_allclose(rep.operator, [[0, 1], [1, 0]], atol=1e-10)


def test_p3_symmetry():
    rep = symmetry_operator(path_graph(3), 0, 2)
    assert rep.commutes and rep.maps_pair


@pytest.mark.parametrize("g,u,v", [(complete_graph(2), 0, 1),
                                   (path_graph(3), 0, 2),
                                   (hypercube(3), 0, 7)])
def test_symmetry_squares_to_identity_for_real_hamiltonians(g, u, v):
    rep = symmetry_operator(g, u, v)
    n = g.vertex_count
    np.testing.assert_allclose(rep.operator @ rep.operator, np.eye(n), atol=1e-8)


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
@pytest.mark.parametrize("g,u,v", [(complete_graph(5), 0, 0), (cycle_graph(8), 0, 4),
                                   (hypercube(3), 0, 7)], ids=["K5", "C8", "Q3"])
def test_symmetry_operator_on_degenerate_eigenspaces(g, u, v, kind):
    m = graph_matrix(g, kind)
    spec = Spectrum.from_matrix(m)
    _, a, b, _ = np.array(spectral._pair_table(pair_rows(spec, u, v))).T
    norm_u = np.sqrt(a)
    support = norm_u > spectral.DEFAULT_CONDITION_TOL
    sign = np.where(support & (b < 0), -1, 1)
    group, oracle_u, norm_v, overlap = eigenspace_rows(spec, u, v)
    assert np.bincount(group).max() > 1
    # E_r e_u = sign_r E_r e_v: equal norms, parallel, and u's weights sum to 1
    np.testing.assert_allclose(oracle_u, norm_v, atol=1e-12)
    np.testing.assert_allclose(overlap, sign * oracle_u ** 2, atol=1e-12)
    assert np.sum(norm_u[support] ** 2) == pytest.approx(1.0, abs=1e-12)
    rep = symmetry_operator(g, u, v, kind)
    assert rep.commutes and rep.maps_pair
    s = rep.operator
    np.testing.assert_allclose(s @ m, m @ s, atol=1e-12)
    np.testing.assert_allclose(s[:, u], np.eye(g.vertex_count)[v], atol=1e-12)


def test_symmetry_operator_solves_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    symmetry_operator(hypercube(3), 0, 7)
    assert calls == [(8, 8)]


def test_symmetry_refuses_without_vector_condition():
    with pytest.raises(ValueError, match="impossible"):
        symmetry_operator(path_graph(3), 0, 1)


# --- bipartite phases --------------------------------------------------------------

def test_k2_phase_class_odd():
    rep = bipartite_phase_audit(complete_graph(2), 0, 1, math.pi / 2)
    assert rep.distance_parity == "odd"
    assert rep.phase_class == "-i"


def test_p3_phase_class_even():
    rep = bipartite_phase_audit(path_graph(3), 0, 2, math.pi / math.sqrt(2))
    assert rep.distance_parity == "even"
    assert rep.phase_class in ("+1", "-1")


def test_q2_phase_class_even():
    rep = bipartite_phase_audit(hypercube(2), 0, 3, math.pi / 2)
    assert rep.distance_parity == "even"
    assert rep.phase_class == "-1"


def test_phase_audit_rejects_odd_cycle():
    with pytest.raises(ValueError, match="bipartite"):
        bipartite_phase_audit(cycle_graph(3), 0, 1, 1.0)


# --- spin oracle ----------------------------------------------------------------------

@pytest.mark.parametrize("g,t", [(complete_graph(2), 0.7),
                                 (path_graph(3), math.pi / math.sqrt(2)),
                                 (hypercube(3), math.pi / 2)])
def test_spin_oracle_small_graphs(g, t):
    for u in range(g.vertex_count):
        assert spin_oracle_check(g, t, u) <= 1e-9


def test_spin_oracle_weighted_signed():
    g = make_graph(4, [(0, 1, 1.3, -1), (1, 2, 0.7, 1), (0, 2, 0.9, 1),
                       (2, 3, 1.1, -1)])
    assert spin_oracle_check(g, 1.234, 0) <= 1e-9


def test_spin_oracle_guard():
    with pytest.raises(ValueError):
        spin_oracle_check(path_graph(13), 0.1, 0)


# --- periodicity ---------------------------------------------------------------------

def test_periodicity():
    assert periodicity_check(complete_graph(2), 0, math.pi / 2)
    assert periodicity_check(path_graph(3), 0, math.pi / math.sqrt(2))


def test_p5_not_periodic_at_scan_peak():
    t_star, _ = max_fidelity_scan(path_graph(5), 0, 4, 50.0, 0.005)
    assert not periodicity_check(path_graph(5), 0, t_star)


# --- invariants ------------------------------------------------------------------------

def test_unitarity_and_inverse():
    for _ in range(5):
        spec = Spectrum.from_matrix(random_symmetric(6))
        t = float(RNG.uniform(0, 10))
        state = RNG.normal(size=6) + 1j * RNG.normal(size=6)
        state /= np.linalg.norm(state)
        out = evolve(spec, t, state)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9
        back = evolve(spec, -t, out)
        np.testing.assert_allclose(back, state, atol=1e-8)


def test_composition():
    m = random_symmetric(5)
    spec = Spectrum.from_matrix(m)
    t1, t2 = 0.83, 1.91
    u = spec.apply(t1 + t2, np.eye(5))
    np.testing.assert_allclose(u, spec.apply(t1, np.eye(5)) @ spec.apply(t2, np.eye(5)),
                               atol=1e-8)
    np.testing.assert_allclose(u, expm(-1j * (t1 + t2) * m), atol=1e-8)


def test_fidelity_trace_distance_sandwich():
    for _ in range(10):
        psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        phi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        fid = abs(np.vdot(psi, phi))
        rho = np.outer(psi, psi.conj())
        sig = np.outer(phi, phi.conj())
        dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sig)))
        assert 1 - fid <= dist + 1e-12
        assert dist <= math.sqrt(1 - fid ** 2) + 1e-12
        assert dist == pytest.approx(math.sqrt(1 - fid ** 2), abs=1e-9)


@pytest.mark.parametrize("g,u,v,t_uv", [
    (path_graph(3), 0, 2, math.pi / math.sqrt(2)),
    (hypercube(2), 0, 3, math.pi / 2),
    (hypercube(3), 0, 7, math.pi / 2),
])
def test_no_routing_to_third_vertex_before_pst(g, u, v, t_uv):
    spec = graph_spectrum(g)
    ts = np.arange(0.0, t_uv, 0.001)
    for w in range(g.vertex_count):
        if w in (u, v):
            continue
        coeffs = spec.eigenvectors[w] * spec.eigenvectors[u]
        mags = np.abs(np.exp(-1j * np.outer(ts, spec.eigenvalues)) @ coeffs)
        assert mags.max() < 1 - 1e-6


def test_balanced_signing_equivalence(signed_square):
    for t in (0.4, 1.1, 2.0, 3.7):
        signed, unsigned = balanced_equivalent_amplitude(signed_square, 0, 2, t)
        assert signed == pytest.approx(unsigned, abs=1e-12)


def test_graph_distance():
    assert swap_baseline(path_graph(4), 0, 3) == 3
    assert swap_baseline(hypercube(3), 0, 7) == 3
    with pytest.raises(ValueError, match="disconnected"):
        swap_baseline(make_graph(3, [(0, 1)]), 0, 2)


def test_walk_amplitude_rows():
    amps = check_pst_conditions(complete_graph(2), 0, 1).walk.amplitude([0.0, math.pi / 2])
    assert abs(amps[0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(amps[1]) == pytest.approx(1.0, abs=1e-12)


def test_grid_amplitudes_are_the_same_in_time_blocks(monkeypatch):
    spec = Spectrum.from_matrix(random_symmetric(40))
    ts = np.linspace(0.0, 30.0, 1001)
    whole = np.exp(-1j * np.outer(ts, spec.eigenvalues)) @ (spec.eigenvectors[5]
                                                            * spec.eigenvectors[2])
    # 7 times per block: 143 blocks, the last one short
    monkeypatch.setattr(spectral, "AMPLITUDE_BLOCK_ENTRIES", 40 * 7)
    np.testing.assert_array_equal(spec.amplitude(2, 5, ts), whole)
    # the verdict's walk module of vertex 2 has 21 terms: the blocks change
    # no amplitude, and the amplitudes match the dense oracle to rounding
    walk = check_pst_conditions(cycle_graph(40), 2, 5).walk
    amps = walk.amplitude(ts)
    monkeypatch.undo()
    np.testing.assert_array_equal(amps, walk.amplitude(ts))
    whole = np.abs(graph_spectrum(cycle_graph(40)).amplitude(2, 5, ts))
    np.testing.assert_allclose(np.abs(amps), whole, rtol=0, atol=1e-13)


def test_polar_prints_phases_in_the_half_open_range():
    floor = spectral.FIDELITY_NOISE_FLOOR
    assert spectral.polar(complex(floor, floor) / 2) == (0.0, 0.0)
    assert spectral.polar(-0.5 - 1e-13j) == (0.5, math.pi)
    assert spectral.polar(-0.5 + 1e-13j) == (0.5, math.pi)
    assert spectral.polar(np.complex128(-1.0)) == (1.0, math.pi)
    assert spectral.polar(-0.5 - 1e-9j)[1] == pytest.approx(-math.pi, abs=1e-8)
    assert spectral.polar(1j) == (1.0, math.pi / 2)
    # the rows of `pstnet pst --csv` go through the same rule: the P3
    # end-to-end amplitude is a negative real -t^2/2 + O(t^4) at short times
    walk = check_pst_conditions(path_graph(3), 0, 2).walk
    rows = [spectral.polar(a) for a in walk.amplitude([0.0, 0.01, 0.02])]
    assert rows[0] == (0.0, 0.0)
    assert [r[1] for r in rows[1:]] == [math.pi, math.pi]
