"""d-level transfer: single-particle hopping on commuting adjacency
families, and qudit transport by that hopping.

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

from .spectral import Spectrum, _check_phase_resolution, _check_times, polar

# most entries (d + 1) n^2 of a family's dense matrices: 32 MiB of float64
MAX_FAMILY_ENTRIES = 1 << 22


# ---------------------------------------------------------------------------
# commuting adjacency families

@dataclass
class CommutingFamily:
    """Matrices A_0..A_d (A_0 = I) with couplings, jointly diagonalized.

    basis columns are the common eigenvectors; eigen_table[k, l] is the
    eigenvalue of A_k on column l, so A_k = basis diag(eigen_table[k])
    basis^T and the matrices themselves are not kept.
    """

    couplings: np.ndarray
    basis: np.ndarray
    eigen_table: np.ndarray

    @property
    def site_count(self) -> int:
        return self.basis.shape[0]


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

    Requires finite couplings, A_0 = I, symmetry and the all-ones
    completeness sum, each refused with its own line before the solve.  The
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
    for k, j in enumerate(couplings):
        if not math.isfinite(j):
            raise ValueError(f"coupling J_{k} is not finite: {j}")
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
    return CommutingFamily(np.asarray(couplings, dtype=float), basis, table)


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
    if n < 1:
        raise ValueError("complete family needs at least 1 site")
    check_family_size(n, 1)
    mats = [np.eye(n), np.ones((n, n)) - np.eye(n)]
    if couplings is None:
        couplings = [1.0, 1.0]
    return commuting_family(mats, couplings)


def family_spectrum(family: CommutingFamily) -> Spectrum:
    """H = V diag(Jt) V^T as a `Spectrum`: Jt ascending, V's columns to match."""
    jt = family.couplings @ family.eigen_table
    order = np.argsort(jt, kind="stable")
    return Spectrum(jt[order], family.basis[:, order])


def transfer_amplitude_qudit(family: CommutingFamily, j: int, t: float,
                             source: int = 0) -> complex:
    """f_{j,source}(t) = sum_l V[j,l] V[source,l] e^{-i t Jt_l}.

    A time that is NaN or infinite raises ValueError, and so does
    X = |t| max |Jt| >= 2^53 (`spectral._check_phase_resolution`).
    """
    n = family.site_count
    if not (0 <= j < n and 0 <= source < n):
        raise ValueError("site out of range")
    _check_times(t)
    spec = family_spectrum(family)
    _check_phase_resolution(abs(t) * float(np.max(np.abs(spec.eigenvalues))))
    return spec.amplitude(source, j, t)


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
    if abs(abs(f) - 1.0) <= 1e-8:
        phase = polar(f)[1]
        amps = tuple(a * np.exp(1j * j * phase)
                     for j, a in enumerate(state.amplitudes))
        return QuditTransferResult(QuditState(amps, m), 1.0, True)
    fid = abs(sum(abs(a) ** 2 * f ** j for j, a in enumerate(state.amplitudes)))
    return QuditTransferResult(None, float(fid), False)
