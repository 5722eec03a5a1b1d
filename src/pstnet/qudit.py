"""d-level transfer: SU(d) generator sets, the weighted qudit chain, and
single-particle hopping on commuting adjacency families.

The hopping Hamiltonian H = sum_k J_k A_k over a family of commuting
symmetric matrices diagonalizes in one orthogonal basis, the eigenbasis of
one generic combination (`commuting_family`); the transfer amplitude to
site j from site 0 is

    f_j(t) = sum_l V[j,l] V[0,l] exp(-i t Jt_l),    Jt_l = sum_k J_k l_l^(k),

which matches the direct matrix exponential and conserves sum_j |f_j|^2.
The pairs (Jt_l, V[:, l]) form a `spectral.Spectrum` (`family_spectrum`),
so the amplitudes come from the same kernels as every other walk.  The
module also evaluates the broken variant that replaces the first
eigenbasis column with all ones, whose probability sum drifts from 1,
for comparison against the corrected amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import chain_matrix, pst_chain
from .spectral import Spectrum, _check_times, polar

MAX_GENERATOR_DIM = 8
# most entries (d + 1) n^2 of a family's dense matrices: 32 MiB of float64
MAX_FAMILY_ENTRIES = 1 << 22


@dataclass(frozen=True)
class GeneratorSet:
    """The d^2 - 1 traceless Hermitian generators of SU(d)."""

    dimension: int
    theta: tuple[np.ndarray, ...]     # symmetric off-diagonal family
    beta: tuple[np.ndarray, ...]      # antisymmetric off-diagonal family
    eta: tuple[np.ndarray, ...]       # diagonal (Cartan) family

    def all(self) -> list[np.ndarray]:
        return list(self.theta) + list(self.beta) + list(self.eta)


def su_d_generators(d: int) -> GeneratorSet:
    """Generalized Pauli set: for d=2 the Pauli matrices, d=3 the Gell-Mann set.

    theta^{k,j} = |k><j| + |j><k|, beta^{k,j} = -i(|k><j| - |j><k|) for
    k < j, and eta^{r,r} = sqrt(2/(r(r+1))) (sum_{m<=r} |m><m| - r |r+1><r+1|).
    """
    if not 2 <= d <= MAX_GENERATOR_DIM:
        raise ValueError(f"need 2 <= d <= {MAX_GENERATOR_DIM}")
    theta, beta, eta = [], [], []
    for k in range(d):
        for j in range(k + 1, d):
            p_kj = np.zeros((d, d), dtype=complex)
            p_kj[k, j] = 1.0
            theta.append(p_kj + p_kj.T)
            beta.append(-1j * (p_kj - p_kj.T))
    for r in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(r):
            m[j, j] = 1.0
        m[r, r] = -r
        eta.append(math.sqrt(2.0 / (r * (r + 1))) * m)
    return GeneratorSet(d, tuple(theta), tuple(beta), tuple(eta))


def qudit_chain_hamiltonian(n: int, d: int) -> np.ndarray:
    """Single-particle Hamiltonian of the weighted qudit chain on n*d states.

    Basis |site i, level m>; each internal level hops identically with
    J_i = sqrt(i (n - i)) / 2, so the matrix is the half-strength transfer
    chain tensored with the identity on levels.  Each internal-level charge
    I_n kron eta^{r,r} commutes with it, the d-level analogue of total-spin
    conservation; the library does not build the charges, the tests do.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 sites and d >= 2 levels")
    if n * d > 1024:
        raise ValueError("single-particle sector larger than 1024")
    return np.kron(chain_matrix(pst_chain(n)) / 2, np.eye(d))


# ---------------------------------------------------------------------------
# commuting adjacency families

@dataclass
class CommutingFamily:
    """Matrices A_0..A_d (A_0 = I) with couplings, jointly diagonalized.

    basis columns are the common eigenvectors; eigen_table[k, l] is the
    eigenvalue of A_k on column l.
    """

    matrices: list[np.ndarray]
    couplings: np.ndarray
    basis: np.ndarray
    eigen_table: np.ndarray

    @property
    def site_count(self) -> int:
        return self.matrices[0].shape[0]


def check_family_size(n: int, d: int) -> None:
    """ValueError when d + 1 matrices on n sites pass MAX_FAMILY_ENTRIES;
    called before any of them is built."""
    entries = (d + 1) * n * n
    if entries > MAX_FAMILY_ENTRIES:
        raise ValueError(f"family of {d + 1} matrices on {n} sites has {entries} "
                         f"entries, above the limit of {MAX_FAMILY_ENTRIES}")


def commuting_family(matrices: Sequence[np.ndarray],
                     couplings: Sequence[float]) -> CommutingFamily:
    """Validate and diagonalize a family of commuting adjacency matrices.

    Requires A_0 = I, symmetry and the all-ones completeness sum.  The
    joint basis is the eigenbasis of one combination sum_k phi^-k A_k, phi
    the golden ratio: a generic element of a commutative matrix algebra
    separates its joint eigenspaces (Bannai & Ito, Algebraic Combinatorics
    I, 1984).  Every A_k must be diagonal in that basis to 1e-9.  Matrices
    diagonal in one orthonormal basis commute, so this one check refuses a
    family that does not commute as well as a combination that merged two
    joint eigenspaces.
    """
    mats = [np.asarray(a, dtype=float) for a in matrices]
    n = mats[0].shape[0]
    if len(couplings) != len(mats):
        raise ValueError("need one coupling per matrix")
    if not np.allclose(mats[0], np.eye(n), atol=1e-12):
        raise ValueError("A_0 must be the identity")
    for a in mats:
        if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("family matrices must be symmetric, equal size")
    if np.max(np.abs(sum(mats) - np.ones((n, n)))) > 1e-9:
        raise ValueError("family must sum to the all-ones matrix")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    _, basis = np.linalg.eigh(sum(phi ** -k * a for k, a in enumerate(mats)))
    table = np.zeros((len(mats), n))
    for k, a in enumerate(mats):
        diag = basis.T @ a @ basis
        if np.max(np.abs(diag - np.diag(np.diagonal(diag)))) > 1e-9:
            raise ValueError("joint diagonalization residual exceeds 1e-9")
        table[k] = np.diagonal(diag)
    return CommutingFamily(mats, np.asarray(couplings, dtype=float), basis, table)


def cycle_family(n: int, couplings: Optional[Sequence[float]] = None
                 ) -> CommutingFamily:
    """Distance-class adjacency family of the n-cycle (circulant, commuting)."""
    if n < 2:
        raise ValueError("cycle family needs at least 2 sites")
    diam = n // 2
    check_family_size(n, diam)
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    distance = np.minimum(gap, n - gap)
    mats = [(distance == k).astype(float) for k in range(diam + 1)]
    if couplings is None:
        couplings = [1.0] * (diam + 1)
    return commuting_family(mats, couplings)


def complete_family(n: int, couplings: Optional[Sequence[float]] = None
                    ) -> CommutingFamily:
    """{I, J - I} family of the complete graph."""
    check_family_size(n, 1)
    mats = [np.eye(n), np.ones((n, n)) - np.eye(n)]
    if couplings is None:
        couplings = [1.0, 1.0]
    return commuting_family(mats, couplings)


def effective_couplings(family: CommutingFamily) -> np.ndarray:
    """Jt_l = sum_k J_k lambda_l^(k); reproduces H = V diag(Jt) V^T."""
    jt = family.couplings @ family.eigen_table
    h = hopping_hamiltonian(family)
    recon = (family.basis * jt) @ family.basis.T
    if np.max(np.abs(recon - h)) > 1e-9:
        raise AssertionError("effective couplings do not reproduce the Hamiltonian")
    return jt


def hopping_hamiltonian(family: CommutingFamily) -> np.ndarray:
    return sum(j * a for j, a in zip(family.couplings, family.matrices))


def family_spectrum(family: CommutingFamily) -> Spectrum:
    """H = V diag(Jt) V^T as a `Spectrum`: Jt ascending, V's columns to match."""
    jt = family.couplings @ family.eigen_table
    order = np.argsort(jt, kind="stable")
    return Spectrum(jt[order], family.basis[:, order])


def transfer_amplitude_qudit(family: CommutingFamily, j: int, t: float,
                             source: int = 0) -> complex:
    """f_{j,source}(t) = sum_l V[j,l] V[source,l] e^{-i t Jt_l}."""
    n = family.site_count
    if not (0 <= j < n and 0 <= source < n):
        raise ValueError("site out of range")
    _check_times(t)
    return family_spectrum(family).amplitude(source, j, t)


def _uncorrected_amplitudes(family: CommutingFamily, t: float) -> np.ndarray:
    """The flawed f_j(t) = sum_l V[j,l] e^{-i t Jt_l}: V[0, l] read as 1."""
    jt = family.couplings @ family.eigen_table
    return family.basis @ np.exp(-1j * t * jt)


@dataclass(frozen=True)
class UnitarityAudit:
    corrected: float
    uncorrected: float


def unitarity_audit(family: CommutingFamily,
                    t_samples: Sequence[float]) -> UnitarityAudit:
    """Max deviation of sum_j |f_j0(t)|^2 from 1 over the samples.

    The corrected amplitudes stay within 1e-9 of unit total probability;
    the variant with the eigenbasis column replaced by all ones does not,
    which is the reported flaw in the earlier derivation.
    """
    _check_times(t_samples)
    spec = family_spectrum(family)
    start = np.eye(family.site_count)[0]
    dev_c = dev_u = 0.0
    for t in t_samples:
        flawed = _uncorrected_amplitudes(family, t)
        dev_c = max(dev_c, abs(np.sum(np.abs(spec.apply(t, start)) ** 2) - 1.0))
        dev_u = max(dev_u, abs(np.sum(np.abs(flawed) ** 2) - 1.0))
    return UnitarityAudit(float(dev_c), float(dev_u))


# ---------------------------------------------------------------------------
# qudit transport

@dataclass(frozen=True)
class QuditState:
    """Level amplitudes alpha_0..alpha_d localized at one site."""

    amplitudes: tuple[complex, ...]
    site: int

    def __post_init__(self):
        total = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(total - 1.0) > 1e-10:
            raise ValueError("level amplitudes must be normalized to 1e-10")


@dataclass(frozen=True)
class QuditTransferResult:
    state: Optional[QuditState]
    fidelity: float
    base_phase: float
    condition_met: bool


def qudit_transfer(family: CommutingFamily, state: QuditState, m: int,
                   t0: float) -> QuditTransferResult:
    """Transport a qudit from its site to site m under the hopping Hamiltonian.

    Each excitation level rides the single-particle amplitude independently,
    level j picking up f^j.  When |f_m(t0)| = 1 within 1e-8 the output is the
    input spectrum relocated to m with level phases j*arg(f); otherwise the
    achievable fidelity |sum_j |alpha_j|^2 f^j| is reported instead.
    """
    f = transfer_amplitude_qudit(family, m, t0, source=state.site)
    phase = polar(f)[1]
    if abs(abs(f) - 1.0) <= 1e-8:
        amps = tuple(a * np.exp(1j * j * phase)
                     for j, a in enumerate(state.amplitudes))
        return QuditTransferResult(QuditState(amps, m), 1.0, phase, True)
    fid = abs(sum(abs(a) ** 2 * f ** j for j, a in enumerate(state.amplitudes)))
    return QuditTransferResult(None, float(fid), phase, False)
