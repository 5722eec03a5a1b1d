"""Reference formulas, audits and builders the tests check pstnet against.

None of these is called by the library, the CLI or the benchmark, so they
live with the tests.  The module name does not match `test_*.py`, so pytest
imports it only through the tests that use it.
"""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import expm_multiply

from pstnet import graphs, spectral, transmon
from pstnet.chains import ChainSpec
from pstnet.fileio import fmt
from pstnet.graphs import (SignedWeightedGraph, edge_table, graph_matrix, is_balanced,
                           sparse_matrix)
from pstnet.qudit import CommutingFamily
from pstnet.spectral import Spectrum, transfer_amplitude
from pstnet.transmon import CouplerConfig

SPIN_ORACLE_MAX_VERTICES = 12
MAX_GENERATOR_DIM = 8


# --- graphs and networks ------------------------------------------------------------

def adjacency(g: SignedWeightedGraph) -> np.ndarray:
    """Signed weighted adjacency matrix, A[u,v] = sign * weight."""
    return graph_matrix(g, "adjacency")


def degree_matrix(g: SignedWeightedGraph) -> np.ndarray:
    return np.diag(graphs._weighted_degrees(g))


def disjoint_union(g: SignedWeightedGraph, h: SignedWeightedGraph) -> SignedWeightedGraph:
    """Block-diagonal union; h's vertices are shifted after g's."""
    off = g.vertex_count
    a, b, sw = h.edge_arrays
    rows = np.vstack((edge_table(*g.edge_arrays), edge_table(a + off, b + off, sw)))
    labels = None
    if g.labels is not None and h.labels is not None:
        cand = g.labels + h.labels
        if len(set(cand)) == len(cand) and len({len(l) for l in cand}) <= 1:
            labels = cand
    markings = None
    if g.markings is not None and h.markings is not None:
        markings = g.markings + h.markings
    return SignedWeightedGraph(g.vertex_count + h.vertex_count, rows,
                               labels=labels, markings=markings)


def add_isolated(g: SignedWeightedGraph, count: int) -> SignedWeightedGraph:
    """Append isolated vertices; labels are dropped, markings pad with +1."""
    if count < 0:
        raise ValueError("count must be non-negative")
    markings = g.markings + (1,) * count if g.markings is not None else None
    return SignedWeightedGraph(g.vertex_count + count, edge_table(*g.edge_arrays),
                               markings=markings)


def induced_subgraph(g: SignedWeightedGraph, vertices: Iterable[int]) -> SignedWeightedGraph:
    """Induced subgraph on the given vertex set.

    Kept vertices are re-indexed in ascending order of their original
    indices, which is the index remapping contract used everywhere else.
    """
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("vertex set must be non-empty")
    if keep[0] < 0 or keep[-1] >= g.vertex_count:
        raise ValueError("vertex set out of range")
    position = np.full(g.vertex_count, -1)
    position[keep] = np.arange(len(keep))
    a, b, sw = g.edge_arrays
    pu, pv = position[a], position[b]
    inside = (pu >= 0) & (pv >= 0)
    sub = lambda t: tuple(t[v] for v in keep) if t is not None else None
    return SignedWeightedGraph(len(keep), edge_table(pu[inside], pv[inside], sw[inside]),
                               labels=sub(g.labels), markings=sub(g.markings))


def factor_free_hypercube(k: int) -> SignedWeightedGraph:
    """Q_k with the matrix of `graphs.hypercube(k)` and no recorded factors:
    amplitudes on it take the walk or the Krylov column of all 2^k vertices."""
    n = 1 << k
    return SignedWeightedGraph(n, graphs.hamming_table(n, k))


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


# --- chains -------------------------------------------------------------------------

def chain_matrix(spec: ChainSpec) -> np.ndarray:
    n = spec.length
    m = np.zeros((n, n))
    for i, j in enumerate(spec.couplings):
        m[i, i + 1] = m[i + 1, i] = j
    return m


# --- spectra and amplitudes ---------------------------------------------------------

def graph_spectrum(g: SignedWeightedGraph, kind: str = "adjacency") -> Spectrum:
    """The dense eigendecomposition of one graph matrix, refused above
    DENSE_MAX_DIM vertices before the matrix is built."""
    spectral._check_dense_dim(g.vertex_count)
    return Spectrum.from_matrix(graph_matrix(g, kind))


def evolve(spectrum: Spectrum, t: float, state: np.ndarray) -> np.ndarray:
    """Apply U(t) = sum_j e^{-i lambda_j t} |v_j><v_j| to a normalized state."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (spectrum.dimension,):
        raise ValueError("state dimension does not match spectrum")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("state must be normalized to 1e-9")
    spectral._check_times(t)
    return spectrum.apply(t, state)


def periodicity_check(g: SignedWeightedGraph, u: int, t0: float) -> bool:
    """True iff the adjacency walk revives at u after 2*t0 (mirror-symmetry
    periodicity)."""
    rep = transfer_amplitude(g, u, u, 2.0 * t0)
    return rep.magnitude >= 1.0 - 1e-8


def pair_rows(spec: Spectrum, u: int, v: int) -> Spectrum:
    """Rows u and v of a spectrum as the two-row `Spectrum` (e_u first) that
    the pair readers of `spectral` take."""
    return Spectrum(spec.eigenvalues, spec.eigenvectors[[u, v]])


def eigenspace_rows(spec: Spectrum, u: int, v: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(group, ||E_r e_u||, ||E_r e_v||, <u|E_r|v>) over the eigenspaces E_r
    of spec, one eigenspace at a time.

    group[j] = r names the eigenspace of eigenvalue j: an eigenvalue within
    EIGENSPACE_REL_TOL max |l| of the one before shares its eigenspace, the
    rule of `spectral._pair_table`.
    """
    values = spec.eigenvalues.tolist()
    width = spectral.EIGENSPACE_REL_TOL * max(map(abs, values))
    group = [0]
    for low, high in zip(values, values[1:]):
        group.append(group[-1] + int(high - low > width))
    group = np.array(group)
    pu, pv = spec.eigenvectors[u], spec.eigenvectors[v]
    spaces = [group == r for r in range(group[-1] + 1)]
    return (group, np.array([math.sqrt(pu[s] @ pu[s]) for s in spaces]),
            np.array([math.sqrt(pv[s] @ pv[s]) for s in spaces]),
            np.array([pu[s] @ pv[s] for s in spaces]))


@dataclass
class SymmetryReport:
    operator: np.ndarray
    commutes: bool
    maps_pair: bool


def symmetry_operator(g: SignedWeightedGraph, u: int, v: int,
                      matrix_kind: str = "adjacency") -> SymmetryReport:
    """Construct S = sum e^{i phi_j} |l_j><l_j| mapping |u> to |v>.

    Phases are fixed per eigenspace by phi = arg<u|P|v>; eigenspaces with
    no overlap on |u> enter with phase 0.  Raises when the eigenvector
    magnitude condition fails, since then no such diagonal symmetry exists
    and PST between u and v is impossible by this route.
    """
    spectral._check_vertices(g.vertex_count, u, v)
    m = graph_matrix(g, matrix_kind)
    spec = Spectrum.from_matrix(m)
    tol = spectral.DEFAULT_CONDITION_TOL
    signs = []
    for _, a, b, c in spectral._pair_table(pair_rows(spec, u, v)):
        norm_u, norm_v = math.sqrt(a), math.sqrt(c)
        skew = abs(abs(b) - norm_u * norm_v) > tol * max(1.0, norm_u * norm_v)
        if abs(norm_u - norm_v) > tol or (norm_u > tol and norm_v > tol and skew):
            raise ValueError(
                "eigenvector magnitude condition fails for this pair; "
                "no diagonal symmetry maps u to v and PST is impossible by this route")
        signs.append(-1 if norm_u > tol and b < 0 else 1)
    n = spec.dimension
    vecs = spec.eigenvectors
    group = eigenspace_rows(spec, u, v)[0]
    s = ((vecs * np.array(signs)[group]) @ vecs.T).astype(complex)
    eu, ev = np.eye(n)[u], np.eye(n)[v]
    commutes = np.max(np.abs(s @ m - m @ s)) <= 1e-8
    maps_pair = np.linalg.norm(s @ eu - ev) <= 1e-8
    return SymmetryReport(s, commutes, maps_pair)


def xy_spin_hamiltonian(g: SignedWeightedGraph) -> np.ndarray:
    """Full 2^n XY Hamiltonian sum_E w_ij (s+_i s-_j + s-_i s+_j).

    Qubit i maps to bit i of the basis index (LSB first).  The exchange
    constants are J_ij = w_ij/2 so that 2 J_ij equals the edge weight.
    """
    n = g.vertex_count
    if n > SPIN_ORACLE_MAX_VERTICES:
        raise ValueError(f"{n} vertices exceeds spin-oracle guard "
                         f"{SPIN_ORACLE_MAX_VERTICES}")
    dim = 1 << n
    h = np.zeros((dim, dim))
    basis = np.arange(dim)
    # distinct edges flip distinct bit pairs, so each entry is written once
    for u, v, sw in zip(*(a.tolist() for a in g.edge_arrays)):
        hops = basis[((basis >> u) ^ (basis >> v)) & 1 == 1]
        h[hops ^ (1 << u) ^ (1 << v), hops] = sw
    return h


def spin_oracle_check(g: SignedWeightedGraph, t: float, excitation_vertex: int
                      ) -> float:
    """Max deviation between full-spin and adjacency dynamics.

    Evolves the one-excitation basis state of the given vertex under the
    full 2^n XY Hamiltonian and compares the whole 2^n column against the
    single-excitation embedding of exp(-i A t)|u>; leakage out of the
    sector therefore counts as deviation.
    """
    n = g.vertex_count
    if not 0 <= excitation_vertex < n:
        raise ValueError("excitation vertex out of range")
    start = np.zeros(1 << n)
    start[1 << excitation_vertex] = 1.0
    full = evolve(Spectrum.from_matrix(xy_spin_hamiltonian(g)), t, start)
    small = evolve(graph_spectrum(g), t, np.eye(n)[excitation_vertex])
    embedded = np.zeros(1 << n, dtype=complex)
    for j in range(n):
        embedded[1 << j] = small[j]
    return float(np.max(np.abs(full - embedded)))


def unmodulated_chain_spectrum(n: int) -> np.ndarray:
    """Closed-form eigenvalues -2 cos(k pi / (n+1)), k = 1..n, ascending."""
    return np.sort(np.array([-2.0 * math.cos(k * math.pi / (n + 1))
                             for k in range(1, n + 1)]))


def limit_denominator_rule(x: float, tol: float, q: int) -> Fraction | None:
    """The recognition rule on `Fraction.limit_denominator`: the best fraction
    with denominator at most q, if it lies within max(tol/den^2, 1e-13) of x."""
    frac = Fraction(x).limit_denominator(q)
    return frac if abs(x - frac) <= max(tol / frac.denominator ** 2, 1e-13) else None


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


def bipartite_phase_audit(g: SignedWeightedGraph, u: int, v: int, t0: float
                          ) -> BipartitePhaseReport:
    """Classify the transfer phase of a bipartite PST pair.

    Real Hamiltonians on bipartite graphs transfer with phase +/-1 at even
    distance and +/-i at odd distance; the measured phase must land in the
    parity-allowed set within 1e-6 radians.
    """
    # bipartite iff the all-negative signing is balanced
    all_negative = SignedWeightedGraph(g.vertex_count, edge_table(*g.edge_arrays[:2], -1.0))
    if not is_balanced(all_negative)[0]:
        raise ValueError("graph is not bipartite")
    rep = transfer_amplitude(g, u, v, t0)
    if rep.magnitude < 1.0 - 1e-6:
        raise ValueError(f"no PST at t0={t0}: magnitude {rep.magnitude}")
    d = shortest_path(sparse_matrix(g, "adjacency")[0], unweighted=True, indices=u)[v]
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


def qudit_chain_charges(n: int, d: int) -> list[np.ndarray]:
    """Conserved level charges I_n kron eta^{r,r} of the qudit chain."""
    return [np.kron(np.eye(n), e) for e in su_d_generators(d).eta]


def effective_couplings(family: CommutingFamily, matrices) -> np.ndarray:
    """Jt_l = sum_k J_k lambda_l^(k); reproduces H = V diag(Jt) V^T."""
    jt = family.couplings @ family.eigen_table
    h = hopping_hamiltonian(family, matrices)
    recon = (family.basis * jt) @ family.basis.T
    if np.max(np.abs(recon - h)) > 1e-9:
        raise AssertionError("effective couplings do not reproduce the Hamiltonian")
    return jt


def hopping_hamiltonian(family: CommutingFamily, matrices) -> np.ndarray:
    """H = sum_k J_k A_k from the family's couplings and its matrices A_k,
    which the family does not keep (`cycle_matrices`, `complete_matrices`)."""
    return sum(j * a for j, a in zip(family.couplings, matrices))


def cycle_matrices(n: int) -> list[np.ndarray]:
    """A_k[i, j] = 1 where the circular distance of i and j is k, k = 0..n // 2."""
    return [np.array([[float(min((i - j) % n, (j - i) % n) == k) for j in range(n)]
                      for i in range(n)]) for k in range(n // 2 + 1)]


def complete_matrices(n: int) -> list[np.ndarray]:
    """{I, J - I}: the distance classes of the complete graph K_n."""
    return [np.eye(n), np.ones((n, n)) - np.eye(n)]


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

def serialize_graph(g: SignedWeightedGraph) -> str:
    lines = [f"graph {g.vertex_count}"]
    if g.labels is not None:
        lines += [f"label {i} {lab}" for i, lab in enumerate(g.labels)]
    if g.markings is not None:
        lines += [f"mark {i} {'+' if m > 0 else '-'}" for i, m in enumerate(g.markings)]
    u, v, sw = g.edge_arrays
    lines += [f"edge {a} {b} {_weight_text(abs(x))} {'+' if x > 0 else '-'}"
              for a, b, x in zip(u.tolist(), v.tolist(), sw.tolist())]
    return "\n".join(lines) + "\n"


def _weight_text(w: float) -> str:
    """`fmt(w)`, or the shortest text that reads back as w where that loses it."""
    text = fmt(w)
    return text if float(text) == w else repr(w)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back an emitted CSV, skipping blank and comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if line.strip("\n") and not line.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows
