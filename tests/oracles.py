"""Reference formulas and audits the tests check pstnet against.

None of these is called by the library, the CLI or the benchmark, so they
live with the tests.  The module name does not match `test_*.py`, so pytest
imports it only through the tests that use it.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import expm_multiply

from pstnet import graphs, transmon
from pstnet.graphs import SignedWeightedGraph, edge_table, is_balanced, sparse_matrix
from pstnet.qudit import su_d_generators
from pstnet.spectral import graph_distance, transfer_amplitude
from pstnet.transmon import CouplerConfig


# --- graphs and networks ------------------------------------------------------------

def degree_matrix(g: SignedWeightedGraph) -> np.ndarray:
    return np.diag(graphs._weighted_degrees(g))


def corona_edge_count(n: int, k: int, m: int) -> int:
    """Edges of G^(m) for a seed with n vertices and k edges."""
    return k + (k + n) * ((n + 1) ** m - 1)


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b, strict=True))


def network_edge_count(n: int) -> int:
    """Closed-form T(n): the network joins one cube Q_b per set bit b of n,
    largest first; each has its own b 2^(b-1) edges plus one bridge per
    vertex into each larger cube."""
    if n < 2:
        raise ValueError("network needs at least 2 vertices")
    dims = [b for b in reversed(range(n.bit_length())) if n >> b & 1]
    return sum(b * (1 << b) // 2 + i * (1 << b) for i, b in enumerate(dims))


def switch_off_count(k: int, i: int) -> int:
    """Edges cut when reducing a full Q_k to an induced Q_i: k 2^(k-1) - i 2^(i-1)."""
    if not 0 <= i <= k:
        raise ValueError("need 0 <= i <= k")
    return k * (1 << (k - 1)) - (i * (1 << (i - 1)) if i else 0)


# --- spectra and amplitudes ---------------------------------------------------------

def unmodulated_chain_spectrum(n: int) -> np.ndarray:
    """Closed-form eigenvalues -2 cos(k pi / (n+1)), k = 1..n, ascending."""
    return np.sort(np.array([-2.0 * math.cos(k * math.pi / (n + 1))
                             for k in range(1, n + 1)]))


def expm_amplitude(g: SignedWeightedGraph, u: int, v: int, t: float,
                   matrix_kind: str = "adjacency") -> complex:
    """<v| exp(-i t M) |u> from scipy's `expm_multiply` on the sparse matrix."""
    start = np.zeros(g.vertex_count, dtype=complex)
    start[u] = 1.0
    return complex(expm_multiply(-1j * t * sparse_matrix(g, matrix_kind)[0], start)[v])


def balanced_equivalent_amplitude(g: SignedWeightedGraph, u: int, v: int,
                                  t: float) -> tuple[float, float]:
    """Amplitude magnitudes on (g, unsigned version of g) for balanced g."""
    flag, _ = is_balanced(g)
    if not flag:
        raise ValueError("graph is not balanced")
    a, b, sw = g.edge_arrays
    unsigned = SignedWeightedGraph(g.vertex_count, edge_table(a, b, np.abs(sw)))
    return (transfer_amplitude(g, u, v, t).magnitude,
            transfer_amplitude(unsigned, u, v, t).magnitude)


@dataclass
class BipartitePhaseReport:
    distance_parity: str        # 'even' or 'odd'
    phase_class: str            # '+1', '-1', '+i' or '-i'
    phase: float


def bipartite_phase_audit(g: SignedWeightedGraph, u: int, v: int, t0: float,
                          matrix_kind: str = "adjacency") -> BipartitePhaseReport:
    """Classify the transfer phase of a bipartite PST pair.

    Real Hamiltonians on bipartite graphs transfer with phase +/-1 at even
    distance and +/-i at odd distance; the measured phase must land in the
    parity-allowed set within 1e-6 radians.
    """
    # bipartite iff the all-negative signing is balanced
    all_negative = SignedWeightedGraph(g.vertex_count, edge_table(*g.edge_arrays[:2], -1.0))
    if not is_balanced(all_negative)[0]:
        raise ValueError("graph is not bipartite")
    rep = transfer_amplitude(g, u, v, t0, matrix_kind)
    if rep.magnitude < 1.0 - 1e-6:
        raise ValueError(f"no PST at t0={t0}: magnitude {rep.magnitude}")
    d = graph_distance(g, u, v)
    parity = "even" if d % 2 == 0 else "odd"
    phase = rep.phase
    classes = {"+1": 0.0, "-1": math.pi, "+i": math.pi / 2, "-i": -math.pi / 2}
    allowed = ("+1", "-1") if parity == "even" else ("+i", "-i")
    best = min(allowed, key=lambda c: abs(_angle_diff(phase, classes[c])))
    if abs(_angle_diff(phase, classes[best])) > 1e-6:
        raise ValueError(
            f"transfer phase {phase} not within 1e-06 of the "
            f"{parity}-distance classes {allowed}")
    return BipartitePhaseReport(parity, best, phase)


def _angle_diff(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


# --- qudits -------------------------------------------------------------------------

def qudit_chain_charges(n: int, d: int) -> list[np.ndarray]:
    """Conserved level charges I_n kron eta^{r,r} of the qudit chain."""
    return [np.kron(np.eye(n), e) for e in su_d_generators(d).eta]


# --- transmons ----------------------------------------------------------------------

def identical_qubit_coupling(cfg: CouplerConfig) -> float:
    """Shortcut for omega_i = omega_j = omega:
    g = [omega_c^2 eta / (Delta Sigma) + eta + 1] C_ij omega / (2 sqrt(C_i C_j))."""
    if cfg.omega_i != cfg.omega_j:
        raise ValueError("shortcut requires identical qubit frequencies")
    transmon._check_detuned(cfg)
    omega = cfg.omega_i
    eta = cfg.c_ic * cfg.c_jc / (cfg.c_ij * cfg.c_c)
    delta = omega - cfg.omega_c
    sigma = omega + cfg.omega_c
    return 0.5 * (cfg.omega_c ** 2 * eta / (delta * sigma) + eta + 1.0) \
        * (cfg.c_ij / math.sqrt(cfg.c_i * cfg.c_j)) * omega


def reference_parameters(omega_c: float = 5.0) -> CouplerConfig:
    """Typical experimental parameter set used by the tests."""
    return CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2,
                         c_ij=0.1, omega_i=4.0, omega_j=4.0, omega_c=omega_c)


# --- files --------------------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back an emitted CSV, skipping blank and comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if line.strip("\n") and not line.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows
