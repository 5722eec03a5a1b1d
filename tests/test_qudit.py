import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from pstnet.chains import pst_chain
from pstnet.qudit import (MAX_FAMILY_ENTRIES, QuditState, check_family_size,
                          commuting_family, complete_family, cycle_family,
                          family_spectrum, qudit_transfer, transfer_amplitude_qudit,
                          unitarity_audit)

from oracles import (chain_matrix, complete_matrices, cycle_matrices, effective_couplings,
                     hopping_hamiltonian, qudit_chain_charges, su_d_generators)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def qudit_chain_hamiltonian(n: int, d: int) -> np.ndarray:
    """Single-particle Hamiltonian of the weighted qudit chain on n*d states.

    Basis |site i, level m>; each internal level hops identically with
    J_i = sqrt(i (n - i)) / 2, so the matrix is the half-strength transfer
    chain tensored with the identity on levels.  Each internal-level charge
    I_n kron eta^{r,r} commutes with it, the d-level analogue of total-spin
    conservation (`oracles.qudit_chain_charges`).
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 sites and d >= 2 levels")
    if n * d > 1024:
        raise ValueError("single-particle sector larger than 1024")
    return np.kron(chain_matrix(pst_chain(n)) / 2, np.eye(d))


# --- generators -----------------------------------------------------------------

def test_d2_generators_are_pauli():
    gens = su_d_generators(2)
    np.testing.assert_allclose(gens.theta[0], PAULI_X)
    np.testing.assert_allclose(gens.beta[0], PAULI_Y)
    np.testing.assert_allclose(gens.eta[0], PAULI_Z)


def test_d3_generators_are_gell_mann():
    gens = su_d_generators(3)
    assert len(gens.all()) == 8
    lambda_8 = np.diag([1.0, 1.0, -2.0]) / math.sqrt(3)
    np.testing.assert_allclose(gens.eta[1], lambda_8, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_generator_count_and_structure(d):
    gens = su_d_generators(d)
    mats = gens.all()
    assert len(mats) == d * d - 1
    for m in mats:
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m)) <= 1e-12
    for i in range(len(mats)):
        for j in range(i):
            assert abs(np.trace(mats[i].conj().T @ mats[j])) <= 1e-10


def test_generator_dimension_guard():
    with pytest.raises(ValueError):
        su_d_generators(9)


# --- qudit chain ------------------------------------------------------------------

def test_chain_reduces_to_half_weighted_chain():
    h = qudit_chain_hamiltonian(5, 2)
    np.testing.assert_allclose(h, np.kron(chain_matrix(pst_chain(5)) / 2,
                                          np.eye(2)))


def test_chain_equals_the_coupling_loop_bit_for_bit():
    for n in range(2, 12):
        hop = np.zeros((n, n))
        for i in range(1, n):
            hop[i - 1, i] = hop[i, i - 1] = math.sqrt(i * (n - i)) / 2.0
        for d in range(2, 5):
            assert qudit_chain_hamiltonian(n, d).tobytes() == np.kron(hop, np.eye(d)).tobytes()


def test_two_site_coupling_value():
    h = qudit_chain_hamiltonian(2, 2)
    assert h[0, 2] == pytest.approx(0.5)


def test_chain_conserves_level_charges():
    h = qudit_chain_hamiltonian(4, 3)
    for q in qudit_chain_charges(4, 3):
        assert np.max(np.abs(h @ q - q @ h)) <= 1e-9


def test_chain_sector_guard():
    with pytest.raises(ValueError):
        qudit_chain_hamiltonian(600, 2)


# --- commuting families ---------------------------------------------------------------

def test_cycle_family_distance_classes():
    fam = cycle_family(4)
    assert len(fam.eigen_table) - 1 == 2
    # sum_k A_k = V diag(sum_k eigen_table[k]) V^T
    total = (fam.basis * fam.eigen_table.sum(axis=0)) @ fam.basis.T
    np.testing.assert_allclose(total, np.ones((4, 4)), atol=1e-12)


def test_family_rejects_noncommuting():
    a1 = np.zeros((3, 3))
    a1[0, 1] = a1[1, 0] = 1.0
    a2 = np.ones((3, 3)) - np.eye(3) - a1
    with pytest.raises(ValueError, match="joint diagonalization residual exceeds 1e-9"):
        commuting_family([np.eye(3), a1, a2], [1.0, 1.0, 1.0])


def test_family_requires_identity_first():
    with pytest.raises(ValueError, match="identity"):
        commuting_family([np.ones((2, 2)) - np.eye(2), np.eye(2)], [1.0, 1.0])


def test_family_requires_all_ones_sum():
    with pytest.raises(ValueError, match="all-ones"):
        commuting_family([np.eye(2), np.zeros((2, 2))], [1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_family_refuses_a_non_finite_coupling_before_the_solve(bad, monkeypatch):
    # a NaN coupling used to reach the phase check as X = nan
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("solved"))
    with pytest.raises(ValueError, match=f"^coupling J_1 is not finite: {bad}$"):
        cycle_family(4, [1.0, bad, 1.0])


@pytest.mark.parametrize("n", [0, -3])
def test_complete_family_refuses_no_sites(n):
    # complete:0 used to leak numpy's zero-size reduction error
    with pytest.raises(ValueError, match="^complete family needs at least 1 site$"):
        complete_family(n)


def test_simultaneous_diagonalization_residual():
    for n in range(3, 9):
        fam = cycle_family(n)
        for k, a in enumerate(cycle_matrices(n)):
            recon = (fam.basis * fam.eigen_table[k]) @ fam.basis.T
            assert np.max(np.abs(recon - a)) <= 1e-9


def test_cycle_family_classes_are_circular_distances():
    for n in range(2, 13):
        fam = cycle_family(n)
        assert len(fam.eigen_table) == n // 2 + 1
        for k, row in enumerate(fam.eigen_table):
            want = [[float(min((i - j) % n, (j - i) % n) == k) for j in range(n)]
                    for i in range(n)]
            np.testing.assert_allclose((fam.basis * row) @ fam.basis.T, want,
                                       rtol=0, atol=1e-12)


def _scheme_family(points, relation):
    """A_k[x, y] = 1 where relation(x, y) == k, for every relation value k."""
    rel = np.array([[relation(x, y) for y in points] for x in points])
    return [(rel == k).astype(float) for k in range(int(rel.max()) + 1)]


def _hamming(k):
    return _scheme_family(range(1 << k), lambda x, y: bin(x ^ y).count("1"))


def _johnson(v, k):
    return _scheme_family([set(c) for c in itertools.combinations(range(v), k)],
                          lambda x, y: k - len(x & y))


JOINT_BASIS_CASES = (
    [(f"cycle{n}", lambda n=n: cycle_matrices(n)) for n in range(2, 65)]
    + [(f"complete{n}", lambda n=n: complete_matrices(n)) for n in range(2, 33)]
    + [(f"H({k},2)", lambda k=k: _hamming(k)) for k in range(1, 8)]
    + [(f"J({v},{k})", lambda v=v, k=k: _johnson(v, k))
       for v, k in ((5, 2), (6, 2), (6, 3), (7, 3), (8, 2), (8, 3), (9, 4))])


@pytest.mark.parametrize("name, build", JOINT_BASIS_CASES,
                         ids=[name for name, _ in JOINT_BASIS_CASES])
def test_joint_basis_matches_the_matrix_exponential(name, build):
    mats = build()
    rng = np.random.default_rng(len(mats) * 1000 + mats[0].shape[0])
    fam = commuting_family(mats, rng.uniform(0.1, 1.5, len(mats)))
    for k, a in enumerate(mats):
        recon = (fam.basis * fam.eigen_table[k]) @ fam.basis.T
        assert np.max(np.abs(recon - a)) <= 1e-9
    spec, h = family_spectrum(fam), hopping_hamiltonian(fam, mats)
    start = np.eye(fam.site_count)[0]
    for t in (0.37, 1.9, 5.2):
        want = expm(-1j * h * t)[:, 0]
        assert np.max(np.abs(spec.apply(t, start) - want)) <= 1e-12


@pytest.mark.parametrize("eigh_of", ["rotated", "merged"])
def test_basis_that_does_not_diagonalize_the_family_is_refused(monkeypatch, eigh_of):
    # a basis rotated off the joint eigenspaces, and the basis of a
    # combination that failed to separate any of them (the identity)
    honest = np.linalg.eigh

    def perturbed(matrix):
        if eigh_of == "merged":
            return honest(np.eye(len(matrix)))
        w, v = honest(matrix)
        c, s = math.cos(1e-6), math.sin(1e-6)
        v[:, [0, -1]] = v[:, [0, -1]] @ np.array([[c, -s], [s, c]])
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ValueError, match="^joint diagonalization residual exceeds 1e-9$"):
        cycle_family(6)


@pytest.mark.parametrize("build, n, d", [(cycle_family, 203, 101),
                                         (complete_family, 1449, 1),
                                         (cycle_family, 10 ** 6, 500000),
                                         (complete_family, 10 ** 6, 1)])
def test_family_too_large_is_refused_before_it_is_built(build, n, d):
    # a million-site family would need terabytes: refused, not allocated
    with pytest.raises(ValueError, match=f"^family of {d + 1} matrices on {n} sites "
                                         f"has {(d + 1) * n * n} entries, above the "
                                         f"limit of {MAX_FAMILY_ENTRIES}$"):
        build(n)


def test_family_size_bound_is_inclusive():
    check_family_size(202, 101)       # 4,162,008 entries, the largest cycle
    check_family_size(2048, 0)        # exactly 2^22
    with pytest.raises(ValueError):
        check_family_size(2048, 1)


def test_adjacency_reconstruction_from_pair_matrices():
    # A_k as a sum of elementary E_ij over its adjacent pairs
    for a in cycle_matrices(6)[1:]:
        recon = np.zeros_like(a)
        for i in range(6):
            for j in range(6):
                if a[i, j]:
                    e = np.zeros_like(a)
                    e[i, j] = 1.0
                    recon += e
        np.testing.assert_allclose(recon, a)


def test_bogoliubov_round_trip():
    fam = cycle_family(5)
    np.testing.assert_allclose(fam.basis.T @ fam.basis, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(fam.basis @ fam.basis.T, np.eye(5), atol=1e-12)


# --- effective couplings ----------------------------------------------------------------

def test_identity_only_coupling():
    fam = complete_family(3, [2.5, 0.0])
    # J_0-only: every effective coupling equals J_0 plus nothing
    h = hopping_hamiltonian(fam, complete_matrices(3))
    np.testing.assert_allclose(h, 2.5 * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(effective_couplings(fam, complete_matrices(3)), 2.5,
                               atol=1e-12)


def test_k2_effective_couplings():
    fam = cycle_family(2, [0.0, 1.0])
    np.testing.assert_allclose(np.sort(effective_couplings(fam, cycle_matrices(2))),
                               [-1.0, 1.0], atol=1e-12)


def test_c4_circulant_couplings():
    fam = cycle_family(4, [0.0, 1.0, 0.0])
    got = np.sort(effective_couplings(fam, cycle_matrices(4)))
    want = np.sort([2 * math.cos(2 * math.pi * l / 4) for l in range(4)])
    np.testing.assert_allclose(got, want, atol=1e-9)


# --- amplitudes ------------------------------------------------------------------------

@pytest.mark.parametrize("fam", [cycle_family(2, [0.1, 1.0]),
                                 cycle_family(4, [0.3, 1.0, 0.7]),
                                 cycle_family(6, [0.2, 1.0, 0.6, 0.4])])
def test_amplitude_matches_matrix_exponential(fam):
    h = hopping_hamiltonian(fam, cycle_matrices(fam.site_count))
    for t in (0.0, 0.37, 1.9, 5.2):
        u = expm(-1j * h * t)
        for j in range(fam.site_count):
            got = transfer_amplitude_qudit(fam, j, t)
            assert got == pytest.approx(complex(u[j, 0]), abs=1e-10)


def test_amplitude_at_zero_time():
    fam = cycle_family(4)
    assert transfer_amplitude_qudit(fam, 0, 0.0) == pytest.approx(1.0)
    for j in (1, 2, 3):
        assert abs(transfer_amplitude_qudit(fam, j, 0.0)) <= 1e-12


def test_k2_full_transfer():
    fam = cycle_family(2, [0.0, 1.0])
    amp = transfer_amplitude_qudit(fam, 1, math.pi / 2)
    assert abs(amp) == pytest.approx(1.0, abs=1e-12)


def test_probability_conservation():
    fam = cycle_family(4, [0.3, 1.0, 0.7])
    for t in np.linspace(0.0, 12.0, 30):
        total = sum(abs(transfer_amplitude_qudit(fam, j, t)) ** 2
                    for j in range(4))
        assert total == pytest.approx(1.0, abs=1e-9)


# --- unitarity audit --------------------------------------------------------------------

def test_audit_corrected_vs_uncorrected():
    fam = cycle_family(2, [0.0, 1.0])
    audit = unitarity_audit(fam, [math.pi / 2, 0.3, 1.7])
    assert audit.corrected <= 1e-9
    assert audit.uncorrected > 0.1


def test_audit_on_c6():
    fam = cycle_family(6, [0.2, 1.0, 0.6, 0.4])
    audit = unitarity_audit(fam, np.linspace(0.0, 10.0, 50))
    assert audit.corrected <= 1e-9


# --- qudit transport ---------------------------------------------------------------------

def test_qubit_transfer_on_k2():
    fam = cycle_family(2, [0.0, 1.0])
    state = QuditState((0.6, 0.8), 0)
    res = qudit_transfer(fam, state, 1, math.pi / 2)
    assert res.condition_met
    assert res.fidelity == pytest.approx(1.0)
    assert res.state.site == 1
    assert abs(res.state.amplitudes[0]) == pytest.approx(0.6)
    assert abs(res.state.amplitudes[1]) == pytest.approx(0.8)


def test_vacuum_component_is_invariant():
    fam = cycle_family(2, [0.0, 1.0])
    state = QuditState((1.0, 0.0), 0)
    res = qudit_transfer(fam, state, 1, math.pi / 2)
    assert res.state.amplitudes[0] == pytest.approx(1.0)


def test_level_two_phase_doubles():
    fam = cycle_family(2, [0.0, 1.0])
    state = QuditState((0.5, 0.5, math.sqrt(0.5)), 0)
    res = qudit_transfer(fam, state, 1, math.pi / 2)
    phi1 = np.angle(res.state.amplitudes[1] / state.amplitudes[1])
    phi2 = np.angle(res.state.amplitudes[2] / state.amplitudes[2])
    assert math.remainder(phi2 - 2 * phi1, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_transfer_reports_best_fidelity_when_condition_fails():
    fam = cycle_family(4, [0.3, 1.0, 0.7])
    state = QuditState((0.6, 0.8), 0)
    res = qudit_transfer(fam, state, 2, 0.4)
    assert not res.condition_met
    assert res.state is None
    assert 0.0 <= res.fidelity < 1.0


def test_qudit_state_normalization():
    with pytest.raises(ValueError):
        QuditState((1.0, 1.0), 0)
