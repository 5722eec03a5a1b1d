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
and each eigenpair (eta, y) of G2 with y orthogonal to mu2 (one eigh of M(G2)
with mu2's eigenvalue shifted to the top) gives eta + lift with the n
eigenvectors [0; y kron e_i]: n(1 + k) pairs in all.

Applied to G^(m) = G^(m-1) o G level by level, the formula gives the seed
rows of G^(m)'s spectrum as n 2^m terms without building G^(m), one
`_corona_level` per order after one dense solve of the seed instead of
one of n(n + 1)^m vertices (`corona_seed_spectrum`).  `fidelity_vs_m`
maps only the pair's two rows, 2 n 2^m entries, by the same level loop
(`_seed_row_levels`), and scans them at every
order m >= 1 of a seed that meets the hypotheses, which are on the seed
alone.  Otherwise it builds the product and scans the walk module of the
pair's source vertex (`spectral.max_fidelity_scan`), as it does for the
seed itself at m = 0, so no n x n matrix is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphs import (MarkingScheme, SignedWeightedGraph, corona, graph_matrix,
                     markings_under, sign_degrees, sparse_matrix)
from .spectral import (AMPLITUDE_BLOCK_ENTRIES, DENSE_MAX_DIM, Spectrum,
                       _check_dense_dim, _grid_magnitudes, _scan_points,
                       max_fidelity_scan, max_fidelity_scan_spectrum)

# largest product `iterate_corona` builds (vertices of G^(m)), so the
# largest graph a direct row scans
CORONA_SIZE_GUARD = 5000
# most terms n 2^m a recursion row scans; each term holds n seed entries
RECURSION_MAX_TERMS = 1 << 20
EIGENPAIR_RESIDUAL_TOL = 1e-8
# columns per block of the residual check, so its temporaries stay small
RESIDUAL_COLUMNS = 256


class TheoremHypothesisError(ValueError):
    """The closed-form eigenpair construction does not apply to these graphs."""


@dataclass(frozen=True)
class ScanRow:
    m: int
    t_star: float
    f_star: float
    provenance: str      # 'direct': G^(m) walked; 'recursion': seed rows mapped


@dataclass(frozen=True)
class ScanTable:
    rows: tuple[ScanRow, ...]


def net_regularity(g: SignedWeightedGraph) -> Optional[int]:
    """d+ - d- when constant across vertices, else None."""
    if g.vertex_count == 0:
        return None
    dpos, dneg = sign_degrees(g)
    net = dpos - dneg
    return int(net[0]) if np.all(net == net[0]) else None


def _basis_orthogonal_to_marking(matrix: np.ndarray, mu: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix restricted to the complement of mu.

    mu must be an eigenvector.  The shift alpha mu mu^T / |mu|^2, with
    alpha = 2 |M|_1 + 1, moves only mu's eigenvalue, and moves it above
    every other one, so one eigh gives mu's direction as its last column
    and orthonormal eigenvectors orthogonal to mu, with their eigenvalues
    unchanged, as the others: exactly dim-1 pairs come back.
    """
    mu_dir = mu / np.linalg.norm(mu)
    alpha = 2.0 * np.max(np.sum(np.abs(matrix), axis=0)) + 1.0
    w, v = np.linalg.eigh(matrix + alpha * np.outer(mu_dir, mu_dir))
    last = v[:, -1] * np.sign(v[:, -1] @ mu_dir)
    if not np.max(np.abs(last - mu_dir)) <= 1e-9:
        raise TheoremHypothesisError(
            "marking direction could not be deflated from the g2 spectrum")
    return w[:-1], v[:, :-1]


def _g2_constants(g2: SignedWeightedGraph, matrix_kind: str, scheme: MarkingScheme
                  ) -> tuple[int, float, np.ndarray]:
    """(lift, s, mu2) of the module formula, once g2 meets the hypotheses.

    The adjacency form requires g2 net-regular with regularity d and its
    marking an eigenvector of A(g2) for d; the Laplacian form requires every
    g2 vertex to have the same negative degree d- and L(g2) mu2 = 2 d- mu2.
    Unmet hypotheses raise TheoremHypothesisError.  The sparse matrix is
    taken first, so an unknown kind raises its ValueError before any test,
    and the eigenvector test runs on it: no dense matrix is built.
    """
    matrix = sparse_matrix(g2, matrix_kind)[0]
    lift = int(matrix_kind == "laplacian")
    if lift:
        dneg = set(sign_degrees(g2)[1].tolist())
        if len(dneg) != 1:
            raise TheoremHypothesisError("g2 negative degree is not constant")
        target, eigen_of = 2.0 * dneg.pop(), "a Laplacian eigenvector for 2 d-"
    else:
        d = net_regularity(g2)
        if d is None:
            raise TheoremHypothesisError("g2 is not net-regular")
        target, eigen_of = float(d), "an adjacency eigenvector for the net-regularity"
    mu2 = np.array(markings_under(g2, scheme), dtype=float)
    if np.max(np.abs(matrix @ mu2 - target * mu2)) > 1e-9:
        raise TheoremHypothesisError(f"marking vector of g2 is not {eigen_of}")
    return lift, target + lift, mu2


def _corona_level(values: np.ndarray, rows: np.ndarray, lift: int, k: int,
                  s: float) -> tuple[np.ndarray, np.ndarray]:
    """Both roots l of (l - l_i - lift k)(l - s) = k for each term (l_i, z_i),
    larger first at positions 2i and 2i + 1, each with the rows z_i
    sqrt(a^2 / (a^2 + k)), a = l - s: the first block of the normalised module
    eigenvector (`corona_seed_spectrum`).  a+ a- = -k, so neither a is 0."""
    disc = np.sqrt((s - values - lift * k) ** 2 + 4 * k)
    centre = s + values + lift * k
    values = np.column_stack((centre + disc, centre - disc)).ravel() / 2.0
    a2 = (values - s) ** 2
    return values, np.repeat(rows, 2, axis=1) * np.sqrt(a2 / (a2 + k))


def corona_spectrum(g1: SignedWeightedGraph, g2: SignedWeightedGraph,
                    matrix_kind: str = "adjacency",
                    scheme: MarkingScheme = MarkingScheme.CANONICAL) -> Spectrum:
    """Adjacency or signed Laplacian spectrum of corona(g1, g2) from the seeds'.

    g2 must meet the hypotheses of `_g2_constants`.  The n(1 + k) eigenpairs
    of the module docstring come normalised (g1's by `_corona_level`, and y
    has unit norm), and are sorted and checked together:
    TheoremHypothesisError is raised when max |M V - V diag(w)| exceeds
    EIGENPAIR_RESIDUAL_TOL, with M the sparse product matrix.  No dense
    product matrix is built.
    """
    n, k = g1.vertex_count, g2.vertex_count
    _check_dense_dim(n * (1 + k))
    lift, s, mu2 = _g2_constants(g2, matrix_kind, scheme)
    mu1 = np.array(markings_under(g1, scheme), dtype=float)
    roots, tops = _corona_level(*np.linalg.eigh(graph_matrix(g1, matrix_kind)),
                                lift, k, s)
    eta, y = _basis_orthogonal_to_marking(graph_matrix(g2, matrix_kind), mu2)
    values = np.concatenate((roots, np.repeat(eta + lift, n)))
    vectors = np.zeros((len(values), len(values)))
    vectors[:n, :2 * n] = tops
    vectors[n:, :2 * n] = (np.kron(mu2[:, None], mu1[:, None] * tops)
                           * ((-1) ** lift / (roots - s)))
    for i in range(n):   # y kron e_i: node j of copy i is row n + j n + i
        vectors[n + i::n, 2 * n + i::n] = y
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    product = sparse_matrix(corona(g1, g2, scheme), matrix_kind)[0]
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


def _check_recursion_size(n: int, m: int, rows: int) -> None:
    """The seed's dense solve, the n 2^m terms and their rows x n 2^m
    entries (one dense solve at the limit) must all fit."""
    _check_dense_dim(n)
    if m > RECURSION_MAX_TERMS.bit_length() or n << m > RECURSION_MAX_TERMS:
        raise ValueError(f"corona order {m} needs {n} * 2^{m} recursion terms, "
                         f"above the limit of {RECURSION_MAX_TERMS}")
    if rows * (n << m) > DENSE_MAX_DIM ** 2:
        raise ValueError(f"corona order {m} needs {rows} seed rows of {n << m} terms, "
                         f"above the limit of {DENSE_MAX_DIM ** 2} entries")


def _seed_row_levels(seed: SignedWeightedGraph, m: int, keep: Sequence[int],
                     matrix_kind: str, scheme: MarkingScheme) -> Iterator[Spectrum]:
    """Yield the rows `keep` of corona_seed_spectrum(seed, j) for j = 0..m.

    The first step checks the hypotheses (`_g2_constants`) and the sizes
    (`_check_recursion_size`, for len(keep) rows) and solves the seed once;
    each later one maps the terms by one `_corona_level`.  The terms stay in
    the order the levels make them, and each yielded `Spectrum` sorts them.
    """
    n = seed.vertex_count
    lift, s, _ = _g2_constants(seed, matrix_kind, scheme)
    _check_recursion_size(n, m, len(keep))
    values, rows = np.linalg.eigh(graph_matrix(seed, matrix_kind))
    rows = rows[list(keep)]
    for level in range(m + 1):
        if level:
            values, rows = _corona_level(values, rows, lift, n, s)
        order = np.argsort(values, kind="stable")
        yield Spectrum(values[order], rows[:, order])


def corona_seed_spectrum(seed: SignedWeightedGraph, m: int,
                         matrix_kind: str = "adjacency",
                         scheme: MarkingScheme = MarkingScheme.CANONICAL) -> Spectrum:
    """The seed rows of the spectrum of G^(m) = iterate_corona(seed, m).

    Returns a `Spectrum` of n 2^m terms (l_j, z_j), z_j the n seed entries
    of an eigenvector, such that the seed block of exp(-i t M(G^(m))) is
    sum_j e^{-i l_j t} z_j z_j^T.  It never builds G^(m): level 0 is the
    eigendecomposition of M(seed), and each level maps a term (l_i, z_i)
    to the two roots l of (l - l_i - lift k)(l - s) = k, with k = n, each
    with rows z_i sqrt(a^2 / (a^2 + k)), a = l - s (`_corona_level`).  The
    seed must meet the hypotheses of `_g2_constants` (TheoremHypothesisError
    otherwise); n may not exceed DENSE_MAX_DIM, nor n 2^m RECURSION_MAX_TERMS,
    nor the n n 2^m entries DENSE_MAX_DIM^2, one dense solve at the limit
    (ValueError, before the seed is solved).  The levels are those of
    `_seed_row_levels`, for all n seed rows.

    Proof, for A (lift = 0) and L (lift = 1) alike.  G^(m) is the corona of
    g1 = G^(m-1) with g2 = the seed, so the hypotheses, which are on g2
    alone, hold at every level once they hold for the seed; of g1 the
    formula only uses mu1(i)^2 = 1, true of every marking.  By the module
    formula each eigenpair (l_i, x_i) of M(G^(m-1)) gives, for both roots
    l, the eigenvector [x_i; (-1)^lift mu2 kron diag(mu1) x_i / a] of
    M(G^(m)).  Its tail has norm^2 |mu2|^2 |diag(mu1) x_i|^2 / a^2 =
    k |x_i|^2 / a^2 whatever the signs of mu1 and of (-1)^lift, so
    normalised, its first block is x_i sqrt(a^2 / (a^2 + k)).  G^(m-1)
    comes first in G^(m) and the seed first in G^(m-1), so the seed rows
    of the two children are those of the parent times these factors.  (The
    roots satisfy a+ a- = -k, so the two weights sum to 1.)  The other
    eigenvectors of this complete orthonormal basis are the lifted
    [0; y kron e_i] at eta + lift, zero on G^(m-1), and at later levels the
    children of any eigenvector already zero on the seed, whose first
    block is that eigenvector: all of them keep a zero seed block, so
    leaving them out of the sum loses nothing.  By induction the terms
    descending from the seed's n eigenpairs give the whole seed block.
    """
    if m < 0:
        raise ValueError("order must be non-negative")
    levels = _seed_row_levels(seed, m, range(seed.vertex_count), matrix_kind, scheme)
    for _ in range(m):
        next(levels)   # each sorted level is dropped before the next is made
    return next(levels)


def iterate_corona(seed: SignedWeightedGraph, m: int,
                   scheme: MarkingScheme = MarkingScheme.CANONICAL
                   ) -> SignedWeightedGraph:
    """Self-corona G^(m) = G^(m-1) o G; G^(0) is the seed itself."""
    if m < 0:
        raise ValueError("order must be non-negative")
    if corona_vertex_count(seed.vertex_count, m) > CORONA_SIZE_GUARD:
        raise ValueError(f"corona order {m} exceeds the {CORONA_SIZE_GUARD}-vertex guard")
    g = seed
    for _ in range(m):
        g = corona(g, seed, scheme)
    return g


def corona_vertex_count(n: int, m: int) -> int:
    return n * (n + 1) ** m


def fidelity_vs_m(seed: SignedWeightedGraph, pair: tuple[int, int], m_max: int,
                  matrix_kind: str = "adjacency", t_max: float = 20.0,
                  scheme: MarkingScheme = MarkingScheme.CANONICAL,
                  dt: float = 0.005) -> ScanTable:
    """Best transfer fidelity between two seed vertices at each corona order.

    Seed vertices keep their indices in every product, so the pair persists.
    Order 0 scans the seed itself.  The recursion applies exactly when the
    seed meets the hypotheses of `_g2_constants`, decided once, on the seed
    alone.  Then the seed is solved once and its rows u and v, advanced one
    level per order m >= 1 (`_seed_row_levels`), are scanned as those of
    corona_seed_spectrum(seed, m): 2 n 2^m entries and no product built,
    for a seed of at most DENSE_MAX_DIM vertices and n 2^m_max <=
    RECURSION_MAX_TERMS (ValueError otherwise, before any scan); those
    rows are 'recursion'.  Otherwise each order builds G^(m) with
    iterate_corona, up to CORONA_SIZE_GUARD vertices.  The seed and every
    built product are scanned by `spectral.max_fidelity_scan` on the walk
    module of u under the chosen matrix; those rows are 'direct'.  A pair whose amplitude vanishes
    identically reads f* = 0 at t* = 0 (`spectral.FIDELITY_NOISE_FLOOR`),
    so its bytes do not depend on rounding.
    """
    u, v = pair
    n = seed.vertex_count
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("pair must index seed vertices")
    if m_max < 0:
        raise ValueError("order must be non-negative")
    levels = None
    if m_max >= 1:
        levels = _seed_row_levels(seed, m_max, (u, v), matrix_kind, scheme)
        try:
            next(levels)   # order 0, scanned directly below: the checks and the solve
        except TheoremHypothesisError:
            levels = None
    recursion = levels is not None
    rows = []
    for m in range(m_max + 1):
        if recursion and m:
            t_star, f_star = max_fidelity_scan_spectrum(next(levels), t_max=t_max, dt=dt)
        else:
            product = iterate_corona(seed, m, scheme) if m else seed
            t_star, f_star = max_fidelity_scan(product, u, v, t_max, dt, matrix_kind)
        rows.append(ScanRow(m, t_star, f_star,
                            "recursion" if recursion and m else "direct"))
    return ScanTable(tuple(rows))


def all_pairs_max_fidelity(matrix: np.ndarray, t_max: float, dt: float
                           ) -> np.ndarray:
    """Grid maximum of |U(t)[a, b]| over t = 0, dt, .., t_max for every pair.

    The coefficients V[a] V[b] of the pairs a <= b are built in blocks of
    at most AMPLITUDE_BLOCK_ENTRIES entries, and each block goes through
    the factored-phase grid kernel `spectral._grid_magnitudes`, which
    merges degenerate eigenvalues (summing the pairs' coefficients into
    eigenprojector entries) and keeps only the running maximum of each
    pair.  The maxima are mirrored into the symmetric result.  A bad grid
    raises ValueError before the solve.
    """
    count = _scan_points(t_max, dt)
    spec = Spectrum.from_matrix(matrix)
    n = spec.dimension
    first, second = np.triu_indices(n)
    best = np.zeros((n, n))
    pair_block = max(1, AMPLITUDE_BLOCK_ENTRIES // max(1, n))
    for p in range(0, len(first), pair_block):
        a, b = first[p:p + pair_block], second[p:p + pair_block]
        coeffs = (spec.eigenvectors[a] * spec.eigenvectors[b]).T
        top = _grid_magnitudes(spec.eigenvalues, coeffs, dt, count, running_max=True)
        best[a, b] = top
        best[b, a] = top
    return best
