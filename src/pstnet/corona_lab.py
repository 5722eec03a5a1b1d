"""Signed corona products: closed-form eigenpairs, iterated self-products,
and the fidelity-versus-order scan harness.

The corona G1 o G2 keeps G1's vertices first, then groups the copies by
G2 node, matching the block adjacency

    [[A(G1),              mu[V2] kron diag(mu[V1])],
     [mu[V2]^T kron diag(mu[V1]), A(G2) kron I_n  ]].

When G2 is net-regular and its marking vector is an eigenvector of the
corresponding matrix, the product's full spectrum assembles from the seed
spectra (the paper's theorems, reproduced by the eigenpair functions here).
The fidelity scans do not use them: at every order they solve the
directly built product, which is faster than assembling and validating
the theorem eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (MarkingScheme, SignedWeightedGraph, adjacency, corona,
                     laplacian, markings_under)
from .spectral import Spectrum, max_fidelity_scan_spectrum

CORONA_SIZE_GUARD = 5000
EIGENPAIR_RESIDUAL_TOL = 1e-8


class TheoremHypothesisError(ValueError):
    """The closed-form eigenpair construction does not apply to these graphs."""


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class ScanRow:
    m: int
    pair: tuple[int, int]
    t_star: float
    f_star: float
    provenance: str      # always 'direct': the product is solved directly


@dataclass(frozen=True)
class ScanTable:
    rows: tuple[ScanRow, ...]


def net_regularity(g: SignedWeightedGraph) -> Optional[int]:
    """d+ - d- when constant across vertices, else None."""
    if g.vertex_count == 0:
        return None
    u, v, sw = g.edge_arrays
    signs = np.sign(sw)
    net = np.bincount(np.concatenate((u, v)), weights=np.concatenate((signs, signs)),
                      minlength=g.vertex_count)
    return int(net[0]) if np.all(net == net[0]) else None


def _validated(pairs: list[EigenPair], matrix: np.ndarray) -> list[EigenPair]:
    for p in pairs:
        norm = np.linalg.norm(p.vector)
        if norm == 0:
            raise TheoremHypothesisError("constructed eigenvector vanished")
        p.vector = p.vector / norm
        residual = np.max(np.abs(matrix @ p.vector - p.value * p.vector))
        if residual > EIGENPAIR_RESIDUAL_TOL:
            raise TheoremHypothesisError(
                f"eigenpair residual {residual:.3e} exceeds "
                f"{EIGENPAIR_RESIDUAL_TOL}; hypotheses likely unmet")
    return pairs


def _marking_eigenvector_check(matrix: np.ndarray, mu: np.ndarray,
                               value: float) -> bool:
    return bool(np.max(np.abs(matrix @ mu - value * mu)) <= 1e-9)


def _basis_orthogonal_to_marking(matrix: np.ndarray, mu: np.ndarray
                                 ) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a symmetric matrix restricted to the complement of mu.

    mu must be an eigenvector; its direction is deflated out of the matching
    (possibly degenerate) eigenspace so exactly dim-1 pairs come back, each
    orthogonal to mu.
    """
    k = matrix.shape[0]
    mu_dir = mu / np.linalg.norm(mu)
    w, v = np.linalg.eigh(matrix)
    out: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, k + 1):
        if i == k or w[i] - w[i - 1] > 1e-9 * max(1.0, abs(w[i])):
            block = v[:, start:i]
            overlap = block.T @ mu_dir
            if np.linalg.norm(overlap) > 1e-8:
                deflated = block - np.outer(mu_dir, overlap)
                q, r = np.linalg.qr(deflated)
                keep = [c for c in range(q.shape[1])
                        if abs(r[c, c]) > 1e-10]
                block = q[:, keep]
            val = float(np.mean(w[start:i]))
            for c in range(block.shape[1]):
                out.append((val, block[:, c]))
            start = i
    if len(out) != k - 1:
        raise TheoremHypothesisError(
            "marking direction could not be deflated from the g2 spectrum")
    return out


def corona_adjacency_eigenpairs(g1: SignedWeightedGraph, g2: SignedWeightedGraph,
                                scheme: MarkingScheme = MarkingScheme.CANONICAL
                                ) -> list[EigenPair]:
    """Adjacency eigenpairs of corona(g1, g2) from the seeds' spectra.

    Requires g2 net-regular with regularity d and its marking vector an
    eigenvector of A(g2) for d.  Each seed pair (l_i, X_i) yields the two
    roots of (l - l_i)(l - d) = k with the stacked vectors
    [X_i; mu2(v_j)/(l - d) diag(mu1) X_i]; with uniformly marked g2 the
    remaining eigenvectors of A(g2) lift to (eta_j, [0; Y_j kron e_i]).
    Every returned pair is validated against the directly built product.
    """
    n, k = g1.vertex_count, g2.vertex_count
    d = net_regularity(g2)
    if d is None:
        raise TheoremHypothesisError("g2 is not net-regular")
    mu1 = np.array(markings_under(g1, scheme), dtype=float)
    mu2 = np.array(markings_under(g2, scheme), dtype=float)
    a2 = adjacency(g2)
    if not _marking_eigenvector_check(a2, mu2, float(d)):
        raise TheoremHypothesisError(
            "marking vector of g2 is not an adjacency eigenvector "
            "for the net-regularity")
    w1, v1 = np.linalg.eigh(adjacency(g1))
    product = adjacency(corona(g1, g2, scheme))
    pairs: list[EigenPair] = []
    for i in range(n):
        li, xi = w1[i], v1[:, i]
        theta_x = mu1 * xi
        disc = np.sqrt((d - li) ** 2 + 4 * k)
        for lam in ((d + li + disc) / 2.0, (d + li - disc) / 2.0):
            tail = [mu2[j] / (lam - d) * theta_x for j in range(k)]
            pairs.append(EigenPair(float(lam), np.concatenate([xi, *tail])))
    if np.all(mu2 == mu2[0]):
        for eta, yj in _basis_orthogonal_to_marking(a2, mu2):
            for i in range(n):
                vec = np.zeros(n * (1 + k))
                vec[n:] = np.kron(yj, np.eye(n)[i])
                pairs.append(EigenPair(eta, vec))
    return _validated(pairs, product)


def corona_laplacian_eigenpairs(g1: SignedWeightedGraph, g2: SignedWeightedGraph,
                                scheme: MarkingScheme = MarkingScheme.CANONICAL
                                ) -> list[EigenPair]:
    """Signed Laplacian eigenpairs of corona(g1, g2) from the seeds' spectra.

    Requires every g2 vertex to have the same negative degree d- and the
    marking vector to satisfy L(g2) mu = 2 d- mu.  Seed pairs yield the two
    roots of (l - l_i - k)(l - s) = k with s = 2 d- + 1; uniformly marked
    g2 lifts its remaining Laplacian eigenvectors shifted by one.
    """
    n, k = g1.vertex_count, g2.vertex_count
    dneg = [0] * k
    for u, v, _, s in g2.edges:
        if s < 0:
            dneg[u] += 1
            dneg[v] += 1
    if len(set(dneg)) != 1:
        raise TheoremHypothesisError("g2 negative degree is not constant")
    dm = dneg[0]
    shift = 2 * dm + 1
    mu1 = np.array(markings_under(g1, scheme), dtype=float)
    mu2 = np.array(markings_under(g2, scheme), dtype=float)
    l2 = laplacian(g2)
    if not _marking_eigenvector_check(l2, mu2, 2.0 * dm):
        raise TheoremHypothesisError(
            "marking vector of g2 is not a Laplacian eigenvector for 2 d-")
    w1, v1 = np.linalg.eigh(laplacian(g1))
    product = laplacian(corona(g1, g2, scheme))
    pairs: list[EigenPair] = []
    for i in range(n):
        li, xi = w1[i], v1[:, i]
        theta_x = mu1 * xi
        disc = np.sqrt((shift - li - k) ** 2 + 4 * k)
        for lam in ((shift + li + k + disc) / 2.0, (shift + li + k - disc) / 2.0):
            tail = [-mu2[j] / (lam - shift) * theta_x for j in range(k)]
            pairs.append(EigenPair(float(lam), np.concatenate([xi, *tail])))
    if np.all(mu2 == mu2[0]):
        for eta, yj in _basis_orthogonal_to_marking(l2, mu2):
            for i in range(n):
                vec = np.zeros(n * (1 + k))
                vec[n:] = np.kron(yj, np.eye(n)[i])
                pairs.append(EigenPair(eta + 1.0, vec))
    return _validated(pairs, product)


def iterate_corona(seed: SignedWeightedGraph, m: int,
                   scheme: MarkingScheme = MarkingScheme.CANONICAL
                   ) -> SignedWeightedGraph:
    """Self-corona G^(m) = G^(m-1) o G; G^(0) is the seed itself."""
    if m < 0:
        raise ValueError("order must be non-negative")
    n = seed.vertex_count
    if n * (n + 1) ** m > CORONA_SIZE_GUARD:
        raise ValueError(f"corona order {m} exceeds the {CORONA_SIZE_GUARD}-vertex guard")
    g = seed
    for _ in range(m):
        g = corona(g, seed, scheme)
    return g


def corona_vertex_count(n: int, m: int) -> int:
    return n * (n + 1) ** m


def corona_edge_count(n: int, k: int, m: int) -> int:
    """Edges of G^(m) for a seed with n vertices and k edges."""
    return k + (k + n) * ((n + 1) ** m - 1)


def fidelity_vs_m(seed: SignedWeightedGraph, pair: tuple[int, int], m_max: int,
                  matrix_kind: str = "adjacency", t_max: float = 20.0,
                  scheme: MarkingScheme = MarkingScheme.CANONICAL,
                  dt: float = 0.005) -> ScanTable:
    """Best transfer fidelity between two seed vertices at each corona order.

    Seed vertices keep their indices in every product, so the pair persists.
    Each order m builds G^(m) with iterate_corona and scans the spectrum of
    its chosen matrix; the provenance column records this direct route.
    """
    u, v = pair
    if not (0 <= u < seed.vertex_count and 0 <= v < seed.vertex_count):
        raise ValueError("pair must index seed vertices")
    rows = []
    for m in range(m_max + 1):
        spectrum = Spectrum.from_graph(iterate_corona(seed, m, scheme), matrix_kind)
        t_star, f_star = max_fidelity_scan_spectrum(spectrum, u, v, t_max, dt)
        rows.append(ScanRow(m, (u, v), t_star, f_star, "direct"))
    return ScanTable(tuple(rows))


def all_pairs_max_fidelity(matrix: np.ndarray, t_max: float, dt: float
                           ) -> np.ndarray:
    """Grid maximum of |U(t)[v,u]| per pair, vectorized over the full matrix."""
    spec = Spectrum.from_matrix(matrix)
    best = np.zeros((spec.dimension, spec.dimension))
    for t in np.arange(0.0, t_max + dt, dt):
        np.maximum(best, np.abs(spec.propagator(t)), out=best)
    return best
