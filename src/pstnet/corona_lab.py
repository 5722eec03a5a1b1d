"""Signed corona products: closed-form spectra, iterated self-products,
and the fidelity-versus-order scan harness.

The corona G1 o G2 keeps G1's vertices first, then groups the copies by
G2 node, matching the block adjacency

    [[A(G1),              mu[V2] kron diag(mu[V1])],
     [mu[V2]^T kron diag(mu[V1]), A(G2) kron I_n  ]].

`corona_spectrum` assembles the product's full adjacency or signed
Laplacian spectrum from the seed spectra (Barik, Pati & Sarma, SIAM J.
Discrete Math. 21, 2007, signed as in the paper).  The two theorems differ
only in constants.  Let k = |V2|, lift = 0 for A and 1 for L = D - A (a
corona edge adds 1 to the degree of each copy vertex and k in all to each
G1 vertex), and target the eigenvalue that G2's marking mu2 must have:
d = d+ - d- for A (G2 net-regular), 2 d- for L (constant negative degree).
With s = target + lift, each eigenpair (l_i, x_i) of G1 gives the two
roots l of

    (l - l_i - lift k)(l - s) = k,

each with the eigenvector [x_i; (-1)^lift mu2 kron diag(mu1) x_i / (l - s)],
and each eigenpair (eta, y) of G2 with y orthogonal to mu2 gives eta + lift
with the n eigenvectors [0; y kron e_i]: n(1 + k) pairs in all.
The fidelity scans do not use them: at every order they solve the
directly built product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (MarkingScheme, SignedWeightedGraph, _csr_matrix, corona,
                     graph_matrix, markings_under)
from .spectral import (Spectrum, _check_dense_dim, _eigen_groups,
                       max_fidelity_scan_spectrum)

CORONA_SIZE_GUARD = 5000
EIGENPAIR_RESIDUAL_TOL = 1e-8
# columns per block of the residual check, so its temporaries stay small
RESIDUAL_COLUMNS = 256


class TheoremHypothesisError(ValueError):
    """The closed-form eigenpair construction does not apply to these graphs."""


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


def _basis_orthogonal_to_marking(matrix: np.ndarray, mu: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix restricted to the complement of mu.

    mu must be an eigenvector; its direction is deflated out of the matching
    (possibly degenerate) eigenspace, so exactly dim-1 pairs come back: the
    eigenvalues and, as columns, orthonormal eigenvectors orthogonal to mu.
    """
    mu_dir = mu / np.linalg.norm(mu)
    w, v = np.linalg.eigh(matrix)
    values: list[float] = []
    blocks = []
    for idx in _eigen_groups(w, rel_tol=1e-9):
        block = v[:, idx]
        overlap = block.T @ mu_dir
        if np.linalg.norm(overlap) > 1e-8:
            q, r = np.linalg.qr(block - np.outer(mu_dir, overlap))
            block = q[:, np.abs(np.diagonal(r)) > 1e-10]
        values += [float(np.mean(w[idx]))] * block.shape[1]
        blocks.append(block)
    if len(values) != len(w) - 1:
        raise TheoremHypothesisError(
            "marking direction could not be deflated from the g2 spectrum")
    return np.array(values), np.hstack(blocks)


def corona_spectrum(g1: SignedWeightedGraph, g2: SignedWeightedGraph,
                    matrix_kind: str = "adjacency",
                    scheme: MarkingScheme = MarkingScheme.CANONICAL) -> Spectrum:
    """Adjacency or signed Laplacian spectrum of corona(g1, g2) from the seeds'.

    The adjacency form requires g2 net-regular with regularity d and its
    marking an eigenvector of A(g2) for d; the Laplacian form requires every
    g2 vertex to have the same negative degree d- and L(g2) mu2 = 2 d- mu2.
    The n(1 + k) eigenpairs of the module docstring are normalised, sorted
    and checked together: TheoremHypothesisError is raised when
    max |M V - V diag(w)| exceeds EIGENPAIR_RESIDUAL_TOL, with M the sparse
    product matrix.  No dense product matrix is built.
    """
    if matrix_kind not in ("adjacency", "laplacian"):
        raise ValueError(f"corona spectra cover 'adjacency' and 'laplacian', "
                         f"not {matrix_kind!r}")
    n, k = g1.vertex_count, g2.vertex_count
    _check_dense_dim(n * (1 + k))
    lift = int(matrix_kind == "laplacian")
    if lift:
        u, v, sw = g2.edge_arrays
        neg = sw < 0
        dneg = set(np.bincount(np.concatenate((u[neg], v[neg])), minlength=k).tolist())
        if len(dneg) != 1:
            raise TheoremHypothesisError("g2 negative degree is not constant")
        target, eigen_of = 2.0 * dneg.pop(), "a Laplacian eigenvector for 2 d-"
    else:
        d = net_regularity(g2)
        if d is None:
            raise TheoremHypothesisError("g2 is not net-regular")
        target, eigen_of = float(d), "an adjacency eigenvector for the net-regularity"
    mu1 = np.array(markings_under(g1, scheme), dtype=float)
    mu2 = np.array(markings_under(g2, scheme), dtype=float)
    m2 = graph_matrix(g2, matrix_kind)
    if np.max(np.abs(m2 @ mu2 - target * mu2)) > 1e-9:
        raise TheoremHypothesisError(f"marking vector of g2 is not {eigen_of}")
    w1, x = np.linalg.eigh(graph_matrix(g1, matrix_kind))
    s = target + lift
    disc = np.sqrt((s - w1 - lift * k) ** 2 + 4 * k)
    centre = s + w1 + lift * k
    # the two roots of each seed pair, larger first, in adjacent columns
    roots = np.column_stack((centre + disc, centre - disc)).ravel() / 2.0
    seeds = np.repeat(x, 2, axis=1)
    eta, y = _basis_orthogonal_to_marking(m2, mu2)
    values = np.concatenate((roots, np.repeat(eta + lift, n)))
    vectors = np.zeros((len(values), len(values)))
    vectors[:n, :2 * n] = seeds
    vectors[n:, :2 * n] = (np.kron(mu2[:, None], mu1[:, None] * seeds)
                           * ((-1) ** lift / (roots - s)))
    for i in range(n):   # y kron e_i: node j of copy i is row n + j n + i
        vectors[n + i::n, 2 * n + i::n] = y
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0):
        raise TheoremHypothesisError("constructed eigenvector vanished")
    vectors /= norms
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    product = _csr_matrix(corona(g1, g2, scheme), matrix_kind)
    residual = 0.0
    for c in range(0, len(values), RESIDUAL_COLUMNS):
        cols = slice(c, c + RESIDUAL_COLUMNS)
        r = product @ vectors[:, cols] - vectors[:, cols] * values[cols]
        residual = np.maximum(residual, np.max(np.abs(r)))
    if not residual <= EIGENPAIR_RESIDUAL_TOL:
        raise TheoremHypothesisError(
            f"eigenpair residual {residual:.3e} exceeds "
            f"{EIGENPAIR_RESIDUAL_TOL}; hypotheses likely unmet")
    return Spectrum(values, vectors)


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
