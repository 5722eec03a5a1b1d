"""Quantum-walk evolution and perfect state transfer condition checks.

`Spectrum` is the one place that turns eigenpairs into dynamics:
U(t) = V e^{-i t diag(w)} V^T, with two kernels.  `Spectrum.apply`
evolves a vector to one time, and `Spectrum.amplitude` gives <v|U(t)|u>
of one pair at one time or over a grid of times.  Its eigenvectors may be
a block of rows.  A dense solve (`Spectrum.from_matrix`) is refused above
DENSE_MAX_DIM rows.  Only whole-spectrum questions still take one: the
all-pairs grid maxima of `corona_lab` and `corona_spectrum`.

Single-pair questions run on the walk module of u instead,
W_u = span{M^k e_u}, whose dimension D is the number of eigenvalues in
the support of u: d + 1 on the hypercube Q_d, whatever its 2^d vertices
(Godsil, "State transfer on graphs", Discrete Math. 312, 2012).
`walk_spectrum` runs Lanczos from q_1 = e_u with full
reorthogonalisation on the cached matrix, a dense copy of it on at most
WALK_DENSE_MAX_DIM vertices, and returns the two rows
e_u and e_v of U(t) in the eigenbasis of the D x D tridiagonal T.  Its
basis is capped at WALK_BASIS_MAX_ENTRIES = DENSE_MAX_DIM^2 entries
(n D), the memory a dense solve at the limit already takes.  A verdict
costs a few array calls per Lanczos step and per spectrum: each step is
one matrix-vector product and two fixed Gram-Schmidt passes against the
kept basis, and T goes straight to LAPACK's ?stevd (`_tridiagonal_rows`).
The two rows then become one pair table in Python floats
(`_pair_table`), four numbers per eigenspace, from which the verdict
reads the vector condition, support, signs and steps with no array call
per eigenspace.

A path 0 - 1 - ... - (n-1) walked from one of its ends runs no Lanczos
step: its Lanczos basis is the signed site basis, so T is read off the
matrix, alpha_k the diagonal entry at the k-th site and beta_k =
sqrt(x x) for the edge entry x onwards (`_path_walk`).  Every projection
Lanczos would make there is exact and sqrt(fl(x^2)) = |x| in binary
floating point, so T, the rows, the stops and the refusals are Lanczos's
to the bit, at O(1) work per step; a beta that is not |x| (x^2
subnormal) hands the walk back to Lanczos.

- `check_pst_conditions` stops Lanczos only at closure, where the answer
  is exact, so it decides PST on Q_12..Q_16 too and never solves n x n.
  Its report keeps that module, which gives the `pstnet pst --csv` rows.
- Timed questions, `transfer_amplitude` at one time and `max_fidelity_scan`
  up to the largest |t| it evaluates, also stop at a rigorous tail bound
  (derived in `walk_spectrum`).  A basis that bound may need past the cap
  (`_walk_fits`) is known before any work:
  `transfer_amplitude` then takes one `expm_multiply` column of the sparse
  matrix (`_krylov_entry`; Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
  2011); a scan is refused.
- `transfer_amplitude` picks its backend in the order product, walk,
  Krylov.  On a graph that records its Cartesian factors
  (`graphs.cartesian`, `graphs.hypercube`), U(t) is the Kronecker product
  of the factors' U_i(t), so the amplitude is the product of one walk or
  Krylov amplitude per distinct factor digit pair, off by at most the sum
  of their bounds, and ||A||_1 is the sum of the factors': Q_k takes at
  most four K2 walks, not k + 1 Lanczos steps on 2^k vertices.  Verdicts
  and scans still walk the built graph.
- X = |t| N >= 2^53, N a bound on every |l| such as ||M||_1, is refused
  before any work, since rounding l t moves an amplitude by about X 2^-52
  (`_check_phase_resolution`): by `walk_spectrum` and `transfer_amplitude`
  at a time, by the grid kernel at its last time, and by the chain and
  qudit amplitudes.

`hypercube_apply` needs no eigenpairs at all: the uniform-weight
hypercube has A = sum_b X_b over its d bit positions, so exp(-i w t A) is
the tensor product of d single-bit rotations, applied one axis at a time
in O(d 2^d).  Routing hops use it.

Every magnitude scan over a time grid, `max_fidelity_scan_spectrum` for
one pair and `corona_lab.all_pairs_max_fidelity` for all of them, runs
one kernel, `_grid_magnitudes`.  It drops terms with zero coefficients,
merges runs of eigenvalues spanning delta with delta t_max <= 1e-12 (so
no amplitude moves by more than 1e-12), and factors each phase over
blocks of B times as e^{-i l (bB + s) dt} = e^{-i l s dt} e^{-i l bB dt}:
(B + points/B) complex exponentials per term instead of one per time
point, then two real products per block.  `_scan_points` checks the grid
first: finite t_max >= 0, finite dt > 0, at most SCAN_MAX_POINTS points
k dt <= t_max (`grid_steps`).  Peak refinement stays inside [0, t_max].

Transfer amplitudes, fidelities and spectral PST conditions live here.

`check_pst_conditions` decides PST exactly, with no time search.  Let
l_0 < ... < l_max be the eigenvalues whose eigenspaces E_r do not
annihilate e_u, and sigma_r = +-1 the sign with E_r e_u = sigma_r E_r e_v.
The gap ratios (l_r - l_0)/(l_max - l_0) are recognised as fractions, so
the gaps are l_r - l_0 = n_r Delta with integers n_r, gcd(n_r) = 1.  PST
from u to v holds iff every sigma_r exists and n_r is odd exactly where
sigma_r != sigma_0; the first PST time is then pi/Delta.

Conventions: hbar = 1, edge weight = single-excitation matrix element
(so the XY exchange constant is J_ij = weight/2), fidelity of a pure pair
is the amplitude magnitude |<v|U(t)|u>|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import SignedWeightedGraph, _weighted_degrees, sparse_matrix

DEFAULT_PST_TOL = 1e-9
DEFAULT_CONDITION_TOL = 1e-8
DEFAULT_MAX_DENOMINATOR = 10 ** 6
# largest dense eigensolve: 8192^2 doubles are 512 MiB per matrix copy
DENSE_MAX_DIM = 8192
# complex entries per block of a time-grid amplitude (4 MiB of temporaries)
AMPLITUDE_BLOCK_ENTRIES = 1 << 18
KRYLOV_NORM_TOL = 1e-8
# most points of one grid scan: 10^7 magnitudes are 80 MB
SCAN_MAX_POINTS = 10 ** 7
# terms whose eigenvalues spread by delta with delta t_max <= this merge
SCAN_MERGE_TOL = 1e-12
# times per block of `_grid_magnitudes`: this many times sqrt(points)
SCAN_BLOCK_SCALE = 8
# a scan maximum at or below this is rounding, not transfer: the grid kernel
# is only exact to its 1e-12 merge bound, so such a scan reads f* = 0 at t* = 0
FIDELITY_NOISE_FLOOR = 1e-12
# Lanczos closure: beta_k <= WALK_CLOSURE_TOL ||M||_1 ends the walk module;
# exact closure leaves only rounding, about 1e-16 ||M||_1
WALK_CLOSURE_TOL = 1e-12
# a verdict whose smallest kept beta is at most this many closure
# thresholds is refused: the module nearly closed there
WALK_CLOSURE_MARGIN = 1e4
# smallest nonzero ||M||_1 a walk takes: from there up the closure threshold
# WALK_CLOSURE_TOL ||M||_1 squares to at least 2^-1022, the least normal double
WALK_MIN_NORM = 2.0 ** -511 / WALK_CLOSURE_TOL
# error bound at which a tail-stopped walk amplitude ends
WALK_AMPLITUDE_TOL = 1e-13
# most entries n D of a Lanczos basis: 512 MiB, one dense matrix at the limit
WALK_BASIS_MAX_ENTRIES = DENSE_MAX_DIM ** 2
# walks on at most this many vertices multiply by a dense copy of M.  On
# Q_6, Q_7 and Q_8 (one BLAS thread, 2-CPU Xeon, numpy 2.4, scipy 1.17)
# ndarray.dot took 0.8-1.2, 2.0-2.7 and 8.6-9.0 us, the CSR product 3.3,
# 3.7-3.9 and 4.6 us, most of it scipy.sparse dispatch: dense loses at 256
WALK_DENSE_MAX_DIM = 128
# eigenvalues closer than this times max |l| share an eigenspace
EIGENSPACE_REL_TOL = 1e-8


@dataclass
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    The eigenvectors may also be a block of rows of them, with one column
    per term: `amplitude` and `apply` then act on that block of U(t), as
    for the seed rows of an iterated corona (`corona_lab.corona_seed_spectrum`).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Spectrum":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        _check_dense_dim(m.shape[0])
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("matrix must be symmetric to 1e-12")
        w, v = np.linalg.eigh(m)
        return cls(w, v)

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    def apply(self, t: float, state: np.ndarray) -> np.ndarray:
        """U(t) @ state at one time; the caller vouches for the state."""
        v = self.eigenvectors
        return (v * np.exp(-1j * t * self.eigenvalues)) @ (v.T @ state)

    def amplitude(self, u: int, v: int, t):
        """<v|U(t)|u>: a complex for a scalar t, an array for an array of times."""
        coeffs = self.eigenvectors[v] * self.eigenvectors[u]
        if np.ndim(t) == 0:
            return _amplitude_at(self.eigenvalues, coeffs, t)
        times = np.asarray(t, dtype=float)
        out = np.empty(len(times), dtype=complex)
        # time blocks keep the phase matrix within AMPLITUDE_BLOCK_ENTRIES
        step = max(1, AMPLITUDE_BLOCK_ENTRIES // max(1, len(coeffs)))
        for c in range(0, len(times), step):
            phases = np.exp(-1j * np.outer(times[c:c + step], self.eigenvalues))
            out[c:c + step] = phases @ coeffs
        return out


def _amplitude_at(eigenvalues: np.ndarray, coeffs: np.ndarray, t) -> complex:
    """sum_j C_j e^{-i l_j t} at one time t: the scalar kernel of
    `Spectrum.amplitude`, and of the scan's refinement and end checks."""
    return complex(np.sum(coeffs * np.exp(-1j * t * eigenvalues)))


def hypercube_apply(dimension: int, weight: float, t: float,
                    state: np.ndarray) -> np.ndarray:
    """exp(-i t w A(Q_d)) @ state for the uniform-weight hypercube Q_d.

    Position p of the state is the hypercube vertex whose d bits are the
    bits of p, so positions differing in one bit are adjacent.  Each pass
    applies [[cos(wt), -i sin(wt)], [-i sin(wt), cos(wt)]] to the leading
    bit of the (2, 2^(d-1)) view and rotates that bit to the end; after d
    passes every bit is rotated once and back in place.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << dimension,):
        raise ValueError(f"state of shape {state.shape} does not fit Q_{dimension}")
    c, s = math.cos(weight * t), -1j * math.sin(weight * t)
    gate = np.array([[c, s], [s, c]])
    for _ in range(dimension):
        state = (gate @ state.reshape(2, -1)).T
    return state.reshape(-1)


def _krylov_entry(matrix, u: int, v: int, t: float) -> complex:
    """Entry v of exp(-i t M) e_u by `expm_multiply`, its norm checked."""
    # imported here: `import pstnet` loads no scipy
    from scipy.sparse.linalg import expm_multiply
    start = np.zeros(matrix.shape[0], dtype=complex)
    start[u] = 1.0
    column = expm_multiply(-1j * t * matrix, start)
    drift = abs(float(np.linalg.norm(column)) - 1.0)
    if drift > KRYLOV_NORM_TOL:
        raise ValueError(f"Krylov column at t = {t} has norm drift {drift:.3g}, "
                         f"above {KRYLOV_NORM_TOL}")
    return complex(column[v])


def _check_phase_resolution(x: float) -> None:
    """ValueError unless X = |t| N < 2^53: doubles that large lie 1 apart.

    N bounds every |eigenvalue|: ||M||_1 for a walk or a chain, and max |l|
    (the 2-norm, at most ||M||_1) where the eigenvalues are at hand, as for
    a time grid or a qudit family.
    """
    if not x < 2.0 ** 53:
        raise ValueError(f"walk amplitude at |t| ||M||_1 = {x:.3g} is refused: "
                         f"past 2^53 its phase has no digit below a radian")


@dataclass
class WalkSpectrum:
    """The walk module of u, tridiagonalised: see `walk_spectrum`."""

    spectrum: Spectrum       # rows e_u and P e_v in the eigenbasis of T
    couplings: np.ndarray    # the kept betas, T's off-diagonal (D - 1 of them)
    norm: float              # ||M||_1, which bounds every |eigenvalue|

    @property
    def dimension(self) -> int:
        return self.spectrum.dimension

    def amplitude(self, t):
        """<v|U(t)|u> for a scalar t or an array of times, within the bound at
        which `walk_spectrum` stopped; max |t| ||M||_1 >= 2^53 raises ValueError."""
        span = abs(t) if np.ndim(t) == 0 else float(np.max(np.abs(t), initial=0.0))
        _check_phase_resolution(span * self.norm)
        return self.spectrum.amplitude(0, 1, t)


def _tail_log_factor(x: float, m: int) -> float:
    """log of X^m / (m! (1 - X/m)), or inf unless m > X."""
    if m <= x:
        return math.inf
    if x == 0.0:
        return -math.inf
    return m * math.log(x) - math.lgamma(m + 1) - math.log1p(-x / m)


def _walk_fits(n: int, x: float) -> bool:
    """True when a walk amplitude at X = |t| ||M||_1 on n vertices keeps its
    basis within WALK_BASIS_MAX_ENTRIES: the one rule by which `walk_spectrum`
    refuses a timed walk and `transfer_amplitude` takes a Krylov column instead.
    Up to n^2 <= WALK_BASIS_MAX_ENTRIES it holds at any X, uncounted; past
    that, m = WALK_BASIS_MAX_ENTRIES // n vectors fit.  The tail bound of
    `walk_spectrum` is beta_m / ||M||_1 <= 1 times X^m / (m! (1 - X/m)), a
    factor that falls as m grows past X, so the first m that brings it under
    WALK_AMPLITUDE_TOL fits exactly when this m does.  Past the cap, X >= 2^53
    raises ValueError (`_check_phase_resolution`), as `walk_spectrum` does at
    any size: doubles that large lie 1 or more apart."""
    if n * n <= WALK_BASIS_MAX_ENTRIES:
        return True
    _check_phase_resolution(x)
    steps = WALK_BASIS_MAX_ENTRIES // n
    return _tail_log_factor(x, steps) <= math.log(WALK_AMPLITUDE_TOL)


def _tridiagonal_rows(diagonal, couplings, row: np.ndarray) -> Spectrum:
    """Spectrum of T = tridiag(couplings, diagonal, couplings) as two rows.

    T = Y diag(theta) Y^T comes from LAPACK's ?stevd, the driver that
    `scipy.linalg.eigh_tridiagonal` picks for a full spectrum, called
    directly on arrays the caller vouches are finite: divide and conquer
    (Cuppen's method; implicit QL/QR up to 25 rows), O(D^3) flops at worst
    for the D x D eigenvectors Y, fewer when deflation is frequent, and
    O(D^2) memory.  The rows are
    Y[0] (the first basis vector, e_u) and row @ Y, `row` being the
    coordinates of a second vector in T's basis: `amplitude(0, 1, t)` is
    then <row| e^{-i t T} |e_1>.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    if len(diagonal) == 1:
        theta, y = diagonal, np.ones((1, 1))
    else:
        # imported here: `import pstnet` loads no scipy
        from scipy.linalg.lapack import dstevd
        theta, y, info = dstevd(diagonal, np.asarray(couplings, dtype=float))
        if info:
            raise ValueError(f"tridiagonal eigensolve of dimension {len(diagonal)} "
                             f"failed to converge (LAPACK info {info})")
    return Spectrum(theta, np.array([y[0], row @ y]))


def _walk_operator(g: SignedWeightedGraph, kind: str):
    """q -> M q for the Lanczos steps of `walk_spectrum`.

    Up to WALK_DENSE_MAX_DIM vertices the product is `ndarray.dot` on a
    dense copy of the CSR matrix, at most 128 KiB, made once per graph and
    kind and cached with it; a CSR product there costs more in
    `scipy.sparse` dispatch than in arithmetic.  Above, it is the CSR
    product, and no n x n array is made.
    """
    matrix = sparse_matrix(g, kind)[0]
    if g.vertex_count > WALK_DENSE_MAX_DIM:
        return matrix.__matmul__
    cache = g._sparse_matrices
    key = (kind, "dense")
    if key not in cache:
        dense = matrix.toarray()
        dense.flags.writeable = False
        cache[key] = dense
    return cache[key].dot


def _basis_cap_error(u: int, n: int, steps: int) -> ValueError:
    return ValueError(f"walk module of vertex {u} needs more than {steps} Lanczos "
                      f"vectors of length {n}, above the basis cap of "
                      f"{WALK_BASIS_MAX_ENTRIES} entries")


def _path_entries(g: SignedWeightedGraph, kind: str, u: int):
    """(diagonal, off-diagonal) of M along the path from u, as lists in walk
    order, or None unless g is the path 0 - 1 - ... - (n-1) and u one of its
    ends.

    The test reads only the edge arrays: n - 1 canonical edges, sorted and
    distinct, that all join some i to i + 1 are exactly the pairs
    (0, 1), ..., (n-2, n-1).  A path whose vertices are numbered in any
    other order is not recognised and takes Lanczos.
    """
    n = g.vertex_count
    lo, hi, sw = g.edge_arrays
    if u not in (0, n - 1) or len(lo) != n - 1 or not np.all(hi - lo == 1):
        return None
    if kind == "laplacian":
        diagonal, off = _weighted_degrees(g), -sw
    else:
        diagonal, off = np.zeros(n), sw
    if u:
        diagonal, off = diagonal[::-1], off[::-1]
    return diagonal.tolist(), off.tolist()


def _path_walk(diagonal: list, off: list, position: int, ends):
    """The Lanczos entries of a path walked from one end, read off M.

    Lanczos from e_u on a path keeps a signed site basis: q_k = s_k e_{p_k},
    p_k the k-th site from u.  Then M q_k = s_k (x_{k-1} e_{p_{k-1}} +
    M[p_k, p_k] e_{p_k} + x_k e_{p_{k+1}}), x_k the entry joining p_k to
    p_{k+1}, and each Gram-Schmidt coefficient is one exact product of
    signs and one entry: alpha_k = M[p_k, p_k] and the projections take
    away the first two terms exactly, leaving w = s_k x_k e_{p_{k+1}}, whose
    norm is beta_k = sqrt(x_k x_k).  Rounded, sqrt(fl(x^2)) = |x| unless
    x^2 overflows (beta inf, refused by `ends`) or underflows.  Where it is
    |x|, q_{k+1} = w / beta_k is the signed unit vector with
    s_{k+1} = s_k sign(x_k), and the run goes on exactly as Lanczos does.
    A beta off |x| that does not end the walk returns None, and the walk
    takes Lanczos.

    Returns (alphas, betas, row) as `_lanczos` does, the row of the vertex
    at `position` along the path holding s_position there.
    """
    alphas, betas = [], []
    for k, alpha in enumerate(diagonal):
        x = off[k] if k < len(off) else 0.0
        beta = math.sqrt(x * x)
        alphas.append(alpha)
        if ends(k + 1, alpha, beta):
            break
        if beta != abs(x):
            return None
        betas.append(beta)
    row = np.zeros(len(alphas))
    if position < len(row):
        row[position] = math.prod(math.copysign(1.0, e) for e in off[:position])
    return alphas, betas, row


def _lanczos(g: SignedWeightedGraph, kind: str, u: int, v: int, max_steps: int,
             ends):
    """Lanczos from e_u (see `walk_spectrum`): (alphas, kept betas, Q[v]).

    Only row 0 of the basis is zeroed; every later row is written by its
    normalisation before it is read.
    """
    n = g.vertex_count
    matvec = _walk_operator(g, kind)
    basis = np.empty((min(max_steps, 32), n))
    basis[0] = 0.0
    basis[0, u] = 1.0
    scratch = np.empty(n)
    alphas, betas = [], []
    for k in range(max_steps):
        kept = basis[:k + 1]
        w = matvec(basis[k])
        first = kept.dot(w)
        w -= first.dot(kept, out=scratch)
        second = kept.dot(w)
        w -= second.dot(kept, out=scratch)
        alpha = float(first[k] + second[k])
        beta = math.sqrt(w.dot(w))
        alphas.append(alpha)
        m = k + 1
        if ends(m, alpha, beta):
            break
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((min(m, max_steps - m), n))])
        betas.append(beta)
        np.divide(w, beta, out=basis[m])
    return alphas, betas, basis[:len(alphas), v]


def walk_spectrum(g: SignedWeightedGraph, u: int, v: int,
                  matrix_kind: str = "adjacency",
                  t: Optional[float] = None) -> WalkSpectrum:
    """Lanczos from q_1 = e_u on the walk module W_u = span{M^k e_u}.

    Each step takes w = M q_k (`_walk_operator`) and removes its projection
    on the kept basis Q_k = [q_1..q_k] by classical Gram-Schmidt run twice,
    h = Q_k^T w, w -= Q_k h, a fixed two passes whatever the loss of norm:
    twice is enough to keep the basis orthogonal to working precision
    while w is not numerically in its span (Giraud, Langou, Rozloznik & van
    den Eshof, Numer. Math. 101, 2005).  This is full reorthogonalisation
    and the three-term update at once: alpha_k = h_1[k] + h_2[k] and
    beta_k = ||w||.  With m vectors, M Q_m = Q_m T_m + beta_m q_{m+1} e_m^T.
    The result is `_tridiagonal_rows` of T_m with the row Q[v] of the
    basis, so `amplitude(t)` is <v| Q_m e^{-i t T_m} e_1 and
    `_pair_table(spectrum)` gives u's support and the signs sigma_r.

    On the path 0 - 1 - ... - (n-1) walked from an end (`_path_entries`)
    no step is run: the basis is the signed site basis, T is read off M
    (alpha_k the diagonal entry at the k-th site, beta_k = sqrt(x x) for
    the edge entry x onwards), and Q[v] is +-1 at v's place along the
    path.  The entries, stops, refusals and rows are bit for bit those of
    Lanczos (`_path_walk` gives the argument), at O(1) work per step.

    Stopping rules, applied by one function to either run:

    - Closure, beta_m <= WALK_CLOSURE_TOL ||M||_1 (or m = n): W_u is
      invariant and the answer exact; the remainder beta_m moves an
      amplitude by at most beta_m |t| (as below, with |phi| <= 1).  With
      t None this is the only stop: the verdict path.  A verdict whose
      smallest kept beta is at most WALK_CLOSURE_MARGIN closure thresholds
      is refused, since the module nearly closed there and its support
      would hang on rounding.
    - With a time t, also a rigorous tail bound.  Let y(s) = Q_m e^{-isT_m}
      e_1 and x(s) = e^{-isM} e_u.  The Lanczos relation gives
      y' = -iMy + i beta_m q_{m+1} phi(s), phi(s) = e_m^T e^{-isT_m} e_1,
      so the error e = x - y solves e' = -iMe - i beta_m q_{m+1} phi(s),
      e(0) = 0, and as e^{-isM} is unitary

          ||e(t)|| <= beta_m int_0^|t| |phi(s)| ds.

      T_m is tridiagonal, so e_m^T T_m^j e_1 = 0 for j < m - 1, and
      |e_m^T T_m^j e_1| <= ||T_m||^j <= N^j with N = ||M||_1 >= ||M||_2.
      Summing the series of phi term by term, with X = |t| N,

          int_0^|t| |phi| <= sum_{j >= m-1} N^j |t|^{j+1} / (j+1)!
                          = (1/N) sum_{i >= m} X^i / i!
                         <= (1/N) X^m / (m! (1 - X/m))      (m > X),

      so ||e(t)|| <= (beta_m / N) X^m / (m! (1 - X/m)).  The run stops once
      this, or beta_m |t|, is at most WALK_AMPLITUDE_TOL.  The usual
      estimate beta_m |e_m^T e^{-itT_m} e_1| is not a bound: it reads 0
      when phi happens to vanish at t, as it does for Q_8 0 -> 255 at
      pi/2 with 8 of the 9 vectors, whose amplitude there is 1.

    Both bounds grow with |t|, so the amplitude is as good at every time
    up to |t|: a scan passes its largest |t|.

    The basis holds at most WALK_BASIS_MAX_ENTRIES entries, n m; a run
    that needs more raises ValueError with one line, a path walked from
    its end too, though it keeps no basis.  With a time t, a run whose
    tail bound might need more (`_walk_fits`, one evaluation at the most
    vectors the cap allows) raises it before any Lanczos step, and so does
    X = |t| ||M||_1 >= 2^53 (`_check_phase_resolution`), at any size.
    A matrix with 0 < ||M||_1 < WALK_MIN_NORM (about 1.5e-142) is refused
    before any step: there the squares of small betas and of the closure
    threshold are subnormal, so beta = sqrt(w w) loses its digits: K2 with
    weight 1e-160 would read |f| = 1.0000056 at its PST time.  Every other rule
    scales with ||M||_1, so at and above that norm a verdict does not
    depend on the unit of the weights.
    """
    n = g.vertex_count
    _check_vertices(n, u, v)
    norm = sparse_matrix(g, matrix_kind)[1]
    if 0.0 < norm < WALK_MIN_NORM:
        raise ValueError(f"walk module of vertex {u} is refused: ||M||_1 = {norm:.3g} "
                         f"is below {WALK_MIN_NORM:.3g}, where its betas square to "
                         f"subnormals")
    closure = WALK_CLOSURE_TOL * norm
    max_steps = min(n, WALK_BASIS_MAX_ENTRIES // n)
    if t is not None:
        span, goal = abs(float(t)), math.log(WALK_AMPLITUDE_TOL)
        x = span * norm
        _check_phase_resolution(x)
    if max_steps == 0 or (t is not None and not _walk_fits(n, x)):
        raise _basis_cap_error(u, n, max_steps)

    def ends(m: int, alpha: float, beta: float) -> bool:
        """True where step m ends the walk, at closure or the tail bound;
        ValueError where it overflows or the next step passes the cap."""
        if not math.isfinite(alpha + beta):
            raise ValueError(f"walk module of vertex {u} overflows at Lanczos step "
                             f"{m}: alpha {alpha:.3g}, beta {beta:.3g}")
        if beta <= closure or m == n:
            return True
        if t is not None and (beta * span <= WALK_AMPLITUDE_TOL or
                              math.log(beta / norm) + _tail_log_factor(x, m) <= goal):
            return True
        if m == max_steps:
            raise _basis_cap_error(u, n, max_steps)
        return False

    walked, path = None, _path_entries(g, matrix_kind, u)
    if path is not None:
        walked = _path_walk(*path, v if u == 0 else n - 1 - v, ends)
    if walked is None:
        walked = _lanczos(g, matrix_kind, u, v, max_steps, ends)
    alphas, betas, row = walked
    couplings = np.array(betas)
    if t is None and len(couplings) and couplings.min() <= WALK_CLOSURE_MARGIN * closure:
        raise ValueError(
            f"walk module of vertex {u} nearly closes: kept beta "
            f"{couplings.min():.3g} is within {WALK_CLOSURE_MARGIN:g}x of the "
            f"closure threshold {closure:.3g}")
    return WalkSpectrum(_tridiagonal_rows(alphas, couplings, row), couplings, norm)


def _check_times(ts) -> None:
    """Raise ValueError naming the first time that is NaN or infinite."""
    times = np.asarray(ts, dtype=float)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time {bad[0]} is not finite")


def _check_dense_dim(dim: int) -> None:
    if dim > DENSE_MAX_DIM:
        raise ValueError(f"dense eigensolve of dimension {dim} exceeds the "
                         f"limit of {DENSE_MAX_DIM}")


@dataclass
class TransferReport:
    magnitude: float
    phase: float    # in (-pi, pi], as `polar` gives it


@dataclass
class PSTConditionReport:
    vector_condition: bool
    eigenvalue_condition: bool
    rationality: bool
    support_eigenvalues: np.ndarray
    best_time: Optional[float]
    best_magnitude: float
    walk: WalkSpectrum                  # the closed walk module of u decided on


def transfer_amplitude(g: SignedWeightedGraph, u: int, v: int, t: float
                       ) -> TransferReport:
    """Magnitude and phase of <v| exp(-i A t) |u> for the adjacency matrix A.

    Backends in order: product, walk, Krylov.  A graph that records its
    Cartesian factors G_1..G_k (`graphs.cartesian`, `graphs.hypercube`)
    has A = sum_i I kron A_i kron I, whose exponential is the Kronecker
    product of the factors' (Christandl, Datta, Ekert & Landahl, PRL 92,
    2004), so <v|U(t)|u> is the product of the factor amplitudes
    <v_i|U_i(t)|u_i> of the mixed-radix digits of u and v.  Each distinct
    (factor, u_i, v_i) amplitude is taken once (`_factor_amplitude`) and
    the product sees no product-sized matrix or basis.  Any other graph is
    its own one factor.  A factor amplitude is the walk module of u_i
    (`walk_spectrum` at time t), or one Krylov column (`_krylov_entry`)
    when its basis might not fit (`_walk_fits`); the choice is made before
    any work.  As every |a_i| <= 1, |prod a_i - prod b_i| <= sum |a_i - b_i|:
    a product amplitude is off by at most the sum of its factor bounds.

    Vertex and time checks come first; then X = |t| ||A||_1 >= 2^53 is
    refused (`_check_phase_resolution`) before any factor work, with
    ||A||_1 = sum_i ||A_i||_1 read from the factors, as the 1-norm of a
    Kronecker sum of matrices with zero diagonals is.
    """
    _check_vertices(g.vertex_count, u, v)
    _check_times(t)
    parts = g.factors or (g,)
    _check_phase_resolution(abs(t) * sum(sparse_matrix(f, "adjacency")[1] for f in parts))
    amp, taken = None, {}
    for f in reversed(parts):
        (u, a), (v, b) = divmod(u, f.vertex_count), divmod(v, f.vertex_count)
        key = (id(f), a, b)
        if key not in taken:
            taken[key] = _factor_amplitude(f, a, b, t)
        amp = taken[key] if amp is None else amp * taken[key]
    return TransferReport(*polar(amp))


def _factor_amplitude(g: SignedWeightedGraph, u: int, v: int, t: float) -> complex:
    """<v|exp(-i A t)|u> on one graph by its walk, or by one Krylov column
    where the walk's basis might not fit (`_walk_fits`)."""
    matrix, norm = sparse_matrix(g, "adjacency")
    if _walk_fits(g.vertex_count, abs(t) * norm):
        return walk_spectrum(g, u, v, "adjacency", t).amplitude(t)
    return _krylov_entry(matrix, u, v, t)


def polar(amp: complex) -> tuple[float, float]:
    """(magnitude, phase) of an amplitude, the phase in (-pi, pi].

    An amplitude at or below FIDELITY_NOISE_FLOOR is rounding, not
    transfer, and reads (0, 0); a negative real one whose imaginary part
    is within the floor reads +pi, whatever the sign of that rounding.
    """
    amp = complex(amp)
    mag = abs(amp)
    if mag <= FIDELITY_NOISE_FLOOR:
        return 0.0, 0.0
    if amp.real < 0 and abs(amp.imag) <= FIDELITY_NOISE_FLOOR:
        return mag, math.pi
    return mag, float(np.arctan2(amp.imag, amp.real))


# ---------------------------------------------------------------------------
# eigenvalue rationality

def _recognize_rational(x: float) -> Optional[tuple[int, int]]:
    """The best p/q with q <= N = DEFAULT_MAX_DENOMINATOR, if |x - p/q| <=
    max(DEFAULT_PST_TOL/q^2, 1e-13) (`_accepted`).

    The tolerance term accepts small denominators with room for noise; the
    1e-13 floor, about a thousand ulps of a ratio in [0, 1], accepts the
    larger ones that float eigenvalues still pin down.  Quadratic surds
    stay outside both: their best approximations miss by about
    1/q^2 >= 1e-12.

    p/q is `Fraction(x).limit_denominator(N)`, found by the same continued
    fraction of x's exact ratio, in Python ints: the last convergent within
    the bound or its best semiconvergent, whichever is closer to x (the
    convergent on a tie).  It returns (p, q), in lowest
    terms as `as_integer_ratio`, convergents and semiconvergents all are.
    """
    most = DEFAULT_MAX_DENOMINATOR
    num, den = x.as_integer_ratio()
    if den <= most:
        p, q = num, den
    else:
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = num, den
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > most:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (most - q0) // q1
        # p1/q1 is d/(q1 den) from x, and (p0 + k p1)/(q0 + k q1) lies
        # 1/(q1 (q0 + k q1)) from p1/q1 on x's other side
        if 2 * d * (q0 + k * q1) <= den:
            p, q = p1, q1
        else:
            p, q = p0 + k * p1, q0 + k * q1
    return _accepted(x, p, q)


def _accepted(x: float, p: int, q: int) -> Optional[tuple[int, int]]:
    """(p, q) if |x - p/q| <= max(DEFAULT_PST_TOL/q^2, 1e-13), else None."""
    return (p, q) if abs(x - p / q) <= max(DEFAULT_PST_TOL / q ** 2, 1e-13) else None


def rationality_check(eigs: Sequence[float]) -> Optional[list[int]]:
    """Integer gap steps of ascending distinct values, or None at the first
    ratio that is not recognised.

    Ratios are taken from the lowest value e_0 over the spread e_max - e_0;
    any difference e_j - e_l is the difference of two such gaps, so every
    ratio of differences is rational exactly when these are.  Each is
    p_r/q_r in lowest terms, q_r <= N = DEFAULT_MAX_DENOMINATOR, accepted
    when |x - p_r/q_r| <= max(DEFAULT_PST_TOL/q_r^2, 1e-13) (`_accepted`).
    The steps n_r = p_r L/q_r, L = lcm(q_r), one per value above e_0, end
    at L (the last ratio is 1/1) and have gcd 1: a prime power exactly
    dividing L exactly divides some q_r, so its prime divides neither
    L/q_r nor p_r.

    Certificate.  Let Q <= N be the lcm of the denominators found so far
    and p = round(x Q).  If |x - p/Q| < 1/(2QN), p/Q is the fraction that
    `Fraction(x).limit_denominator(N)` returns, reduced, and no continued
    fraction is run.  Proof: any other p'/q' with q' <= N lies at least
    1/(Q q') >= 1/(QN) from p/Q, so at least 1/(QN) - 1/(2QN) = 1/(2QN)
    from x, farther than p/Q; the closest fraction is then p/Q, with no
    tie.  The test here is |x - p/Q| < 1/(4QN), which leaves room for the
    rounding of p/Q and of the difference, below 1e-15 for x in [0, 1],
    against 1/(4QN) >= 2.5e-13.  The acceptance test then runs unchanged on
    p/Q reduced.  Every other ratio goes to `_recognize_rational`.  So a
    ratio whose reduced denominator divides Q takes no continued fraction,
    and a surd spectrum stops at its first ratio.

    Values that are not ascending and distinct raise ValueError.
    """
    if any(b <= a for a, b in zip(eigs, eigs[1:])):
        raise ValueError("rationality_check needs ascending distinct values")
    if len(eigs) < 2:
        return []
    low, spread = eigs[0], eigs[-1] - eigs[0]
    most = DEFAULT_MAX_DENOMINATOR
    fracs, scale = [], 1
    for e in eigs[1:]:
        x = (e - low) / spread
        p = round(x * scale) if scale <= most else None
        if p is not None and abs(x - p / scale) < 0.25 / (scale * most):
            common = math.gcd(p, scale)
            frac = _accepted(x, p // common, scale // common)
        else:
            frac = _recognize_rational(x)
        if frac is None:
            return None
        fracs.append(frac)
        scale = math.lcm(scale, frac[1])
    return [p * (scale // q) for p, q in fracs]


def _pair_table(spec: Spectrum) -> list[tuple[float, float, float, float]]:
    """(l_r, a_r, b_r, c_r) per eigenspace E_r of the two rows e_u (row 0)
    and e_v (row 1) of spec: the mean eigenvalue, a_r = ||E_r e_u||^2,
    b_r = <v|E_r|u> and c_r = ||E_r e_v||^2, in Python floats.

    An eigenspace is a run of ascending eigenvalues, each within
    EIGENSPACE_REL_TOL max |l| of the one before: a rule with no absolute
    floor, so scaling every weight by c > 0 scales the l_r by c and leaves
    the runs as they are.  Each sum is the run's first term plus the sum of
    the rest from -0.0, the order of `np.add.reduceat`, which sums pairwise
    only past 8 more terms.
    """
    values = spec.eigenvalues.tolist()
    pu, pv = spec.eigenvectors[0].tolist(), spec.eigenvectors[1].tolist()
    width = EIGENSPACE_REL_TOL * max(-values[0], values[-1])
    cuts = [j for j in range(1, len(values)) if values[j] - values[j - 1] > width]
    table = []
    for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
        lam, a, b, c = values[lo], pu[lo] * pu[lo], pu[lo] * pv[lo], pv[lo] * pv[lo]
        if hi - lo > 1:
            rl = ra = rb = rc = -0.0
            for j in range(lo + 1, hi):
                rl += values[j]
                ra += pu[j] * pu[j]
                rb += pu[j] * pv[j]
                rc += pv[j] * pv[j]
            lam, a, b, c = lam + rl, a + ra, b + rb, c + rc
        table.append((lam / (hi - lo), a, b, c))
    return table


def _check_vertices(n: int, *vertices: int) -> None:
    for x in vertices:
        if not 0 <= x < n:
            raise ValueError(f"vertex {x} is outside 0..{n - 1}")


def check_pst_conditions(g: SignedWeightedGraph, u: int, v: int,
                         matrix_kind: str = "adjacency") -> PSTConditionReport:
    """Exact spectral PST test for the pair (u, v): no time search.

    Everything is read off the walk module W_u of u (`walk_spectrum`, run
    to closure), so no n x n matrix is built or solved: the eigenvalues of
    T are the support of u, and the two rows give E_r e_u and the
    projection of e_v on each of its eigenspaces.  One pass over their pair
    table (`_pair_table`: l_r, a_r = ||E_r e_u||^2, b_r = <v|E_r|u>,
    c_r = ||E_r e_v||^2) gives everything below.

    vector_condition: E_r e_u = sigma_r E_r e_v with sigma_r = +-1 for every
    eigenspace E_r, to DEFAULT_CONDITION_TOL.  Inside W_u that asks
    sqrt(a_r) = sqrt(c_r) and, where both are above the tolerance,
    |b_r| = sqrt(a_r c_r), so that the projections are parallel, with
    sigma_r the sign of b_r; outside, it asks sum_r c_r = ||P e_v||^2 = 1,
    P the projection on W_u, since the sum of the sigma_r E_r e_u lies in
    W_u, and any part of e_v outside W_u sits in eigenspaces that
    annihilate e_u.  The support is the l_r with sqrt(a_r) above the
    tolerance, ascending and distinct.
    rationality: every support gap ratio (l_r - l_0)/(l_max - l_0) is
    recognised as a fraction, l_0 < ... < l_max being the eigenvalues
    whose eigenspaces do not annihilate e_u.
    eigenvalue_condition: with the gaps written exactly as l_r - l_0 =
    n_r Delta, gcd(n_r) = 1, the parity rule n_r = [sigma_r != sigma_0]
    (mod 2) holds for every r.  It is only asked once the vector
    condition holds, so it is the PST verdict (Godsil, Discrete Math. 312,
    2012; Kay, IJQI 8, 2010).

    Why t0 = pi/Delta is the first PST time: <v|U(t)|u> =
    sum_r sigma_r e^{-i l_r t} |E_r e_u|^2 has modulus 1 iff every
    e^{-i n_r Delta t} equals sigma_r sigma_0.  That needs each n_r Delta t
    in pi Z, so t = s pi/Delta with s an integer (as gcd(n_r) = 1), and
    then n_r s = [sigma_r != sigma_0] (mod 2); u != v makes some sigma_r
    differ from sigma_0, so s is odd, the parity rule holds, and s = 1 works.

    best_time is t0 and best_magnitude |<v|U(t0)|u>|, a health number
    that reads 1 up to rounding.  Without PST they are None and 0.0; for
    u == v they are 0.0 and 1.0.  `walk` is the closed module decided on:
    its D and kept betas are the other health numbers.  A walk
    module that nearly closes, or whose basis passes the cap, raises
    ValueError with one line instead of a verdict.
    """
    walk = walk_spectrum(g, u, v, matrix_kind)
    tol = DEFAULT_CONDITION_TOL
    vec_ok, weight_v = True, 0.0
    support, signs = [], []
    for lam, a, b, c in _pair_table(walk.spectrum):
        weight_v += c
        norm_u, norm_v = math.sqrt(a), math.sqrt(c)
        # E_r e_u = sigma_r E_r e_v: equal norms and parallel projections
        if abs(norm_u - norm_v) > tol:
            vec_ok = False
        if norm_u > tol:
            support.append(lam)
            signs.append(-1 if b < 0 else 1)
            both = norm_u * norm_v
            if norm_v > tol and abs(abs(b) - both) > tol * max(1.0, both):
                vec_ok = False
    # e_v outside W_u: some eigenspace holds part of e_v and none of e_u
    if abs(weight_v - 1.0) > tol:
        vec_ok = False
    steps = rationality_check(support)
    rational = steps is not None
    support_eigenvalues = np.array(support)
    if u == v:
        return PSTConditionReport(vec_ok, True, rational, support_eigenvalues, 0.0, 1.0,
                                  walk)
    # u != v and the vector condition leave at least two support eigenvalues
    if not (vec_ok and rational and all(n_r % 2 == (s_r != signs[0])
                                        for n_r, s_r in zip(steps, signs[1:]))):
        return PSTConditionReport(vec_ok, False, rational, support_eigenvalues, None, 0.0,
                                  walk)
    # Delta = (l_max - l_0) / n_max, the last fraction being exactly 1
    t0 = math.pi * steps[-1] / (support[-1] - support[0])
    return PSTConditionReport(vec_ok, True, rational, support_eigenvalues, t0,
                              abs(walk.amplitude(t0)), walk)


def _refine_peak(eigenvalues: np.ndarray, coeffs: np.ndarray, t0: float, dt: float,
                 t_max: float) -> tuple[float, float]:
    """(t, |a(t)|) at the bounded search's maximum of |a| on [t0 - dt, t0 + dt]
    within [0, t_max], a(t) = sum_j C_j e^{-i l_j t} (`_amplitude_at`)."""
    # imported here: scipy.optimize alone costs most of `import pstnet`
    from scipy.optimize import minimize_scalar
    lo, hi = max(0.0, t0 - dt), min(t0 + dt, t_max)
    res = minimize_scalar(lambda t: -abs(_amplitude_at(eigenvalues, coeffs, t)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return float(res.x), float(-res.fun)


def grid_steps(t_max: float, dt: float, most: int) -> int:
    """K <= most for the time grid k dt, k = 0..K, of scans and `pst --csv`:
    the largest integer with K dt <= t_max up to rounding, as a quotient
    t_max / dt within 1e-12 of an integer counts as one (0.7 / 0.1 < 7).
    The caller checks that t_max >= 0 and dt > 0 are finite."""
    return math.floor(min(t_max / dt, most) * (1 + 1e-12))


def _scan_points(t_max: float, dt: float) -> int:
    """Number of points K + 1 of the grid k dt, k = 0..K (`grid_steps`),
    counted before any allocation: the entry check of every grid scan.

    ValueError names a t_max that is not finite or is negative, a dt that
    is not finite or not positive, or a grid of more than SCAN_MAX_POINTS
    points.
    """
    t_max, dt = float(t_max), float(dt)
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"scan t_max must be finite and >= 0, got {t_max}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"scan dt must be finite and > 0, got {dt}")
    steps = grid_steps(t_max, dt, SCAN_MAX_POINTS)
    if steps >= SCAN_MAX_POINTS:
        raise ValueError(f"scan of [0, {t_max}] at dt = {dt} asks for more than "
                         f"{SCAN_MAX_POINTS} time points")
    return steps + 1


def _run_starts(values: np.ndarray, width: float) -> np.ndarray:
    """Starts of the greedy runs of the sorted values, each spanning at most width."""
    starts, lo = [], 0
    while lo < len(values):
        starts.append(lo)
        lo = int(np.searchsorted(values, values[lo] + width, side="right"))
    return np.array(starts, dtype=int)


def _grid_magnitudes(eigenvalues: np.ndarray, coeffs: np.ndarray, dt: float,
                     count: int, running_max: bool = False) -> np.ndarray:
    """|a_p(k dt)|, a_p(t) = sum_j C[j, p] e^{-i l_j t}, on the grid k = 0..count-1.

    Returns a (count, pairs) array, or with running_max only the maximum
    over k of each column, shape (pairs,).  The grid comes from
    `_scan_points`.  X = t_max max |l| >= 2^53 raises ValueError before any
    work (`_check_phase_resolution`).

    Terms: rows of C that are exactly 0 are dropped, and each greedy run of
    sorted eigenvalues spanning delta with delta t_max <= SCAN_MERGE_TOL,
    t_max = (count - 1) dt, becomes one term at its lowest eigenvalue with
    the summed rows.  Each merged phase moves by at most delta t, so an
    amplitude moves by at most SCAN_MERGE_TOL sum_j |C[j, p]|, which is
    1e-12 for the coefficients V[a] V[b] of an orthonormal basis (or of a
    block of its rows); wider runs stay separate terms.

    Factored phases: with k = b B + s and a block of B times,
    e^{-i l k dt} = e^{-i l s dt} e^{-i l b B dt}.  The inner table (B x J)
    is built once and each block's outer row (J) on its turn, so the J
    terms cost (B + count/B) J complex exponentials instead of count J.
    Each block's phase matrix is the inner table times its outer row, kept
    as real and imaginary parts so that both products with C are real;
    only the returned values take a square root.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    horizon = (count - 1) * dt
    _check_phase_resolution(horizon * float(np.max(np.abs(lam), initial=0.0)))
    coeffs = np.asarray(coeffs, dtype=float)
    keep = np.any(coeffs != 0, axis=1)
    lam, coeffs = lam[keep], coeffs[keep]
    order = np.argsort(lam, kind="stable")
    lam, coeffs = lam[order], coeffs[order]
    if len(lam):
        width = SCAN_MERGE_TOL / horizon if horizon > 0 else math.inf
        starts = _run_starts(lam, width)
        lam, coeffs = lam[starts], np.add.reduceat(coeffs, starts, axis=0)
    terms, pairs = coeffs.shape
    block = max(1, min(count, math.isqrt(count) * SCAN_BLOCK_SCALE,
                       AMPLITUDE_BLOCK_ENTRIES // max(1, terms, pairs)))
    inner = np.exp(-1j * np.outer(np.arange(block) * dt, lam))
    out = np.zeros(pairs) if running_max else np.empty((count, pairs))
    for start in range(0, count, block):
        rows = min(block, count - start)
        outer = np.exp(-1j * (start * dt) * lam)
        ir, ii = inner.real[:rows], inner.imag[:rows]
        re = (ir * outer.real - ii * outer.imag) @ coeffs
        im = (ir * outer.imag + ii * outer.real) @ coeffs
        square = re * re + im * im
        if running_max:
            np.maximum(out, square.max(axis=0), out=out)
        else:
            out[start:start + rows] = square
    return np.sqrt(out)


def max_fidelity_scan(g: SignedWeightedGraph, u: int, v: int, t_max: float,
                      dt: float, matrix_kind: str = "adjacency"
                      ) -> tuple[float, float]:
    """Grid scan of |<v|U(t)|u>| on [0, t_max] with golden refinement.

    Returns (t*, F*) where F is the pure-state fidelity, i.e. the amplitude
    magnitude at the best time found.  The scan runs on the two rows of the
    walk module of u (`walk_spectrum`) up to t_max, or to the last grid
    point where rounding puts it past t_max.  A bad grid (`_scan_points`),
    then a basis that might pass the cap, raise ValueError before any work.
    """
    count = _scan_points(t_max, dt)
    walk = walk_spectrum(g, u, v, matrix_kind, max(float(t_max), (count - 1) * float(dt)))
    return max_fidelity_scan_spectrum(walk.spectrum, t_max=t_max, dt=dt)


def max_fidelity_scan_spectrum(spec: Spectrum, t_max: float, dt: float
                               ) -> tuple[float, float]:
    """Grid scan of |<v|U(t)|u>| on [0, t_max] at step dt, peaks refined,
    for the two rows e_u (row 0) and e_v (row 1) of spec.

    The coefficient column C = V[1] V[0] is formed once.  The grid
    magnitudes come from the factored-phase kernel `_grid_magnitudes` (off
    `Spectrum.amplitude` by its 1e-12 merge bound plus rounding); every
    candidate peak is refined, and the ends compared, on `_amplitude_at`
    of that column, the scalar kernel of `Spectrum.amplitude` itself.  A
    bad grid (see `_scan_points`) raises ValueError before any allocation.
    A grid maximum at or below FIDELITY_NOISE_FLOOR (an amplitude that
    vanishes identically) returns (0.0, 0.0), not a t* of rounding noise.

    The grid error bound uses the spread S of the support, the eigenvalues
    whose term c_j = <v|j><j|u> is not zero: turning the amplitude by a
    phase centred in the support leaves a real part whose second derivative
    is at most sum |c_j| (S/2)^2 <= (S/2)^2, so no peak hides more than
    (S dt/2)^2 / 2 below its nearest grid point.  A t_max past the last
    grid point joins the grid as one more point, so no gap exceeds dt.
    Refinement stays inside [0, t_max], and the two ends, where a maximum
    need not be a peak, are compared directly.
    """
    count = _scan_points(t_max, dt)
    t_max, dt = float(t_max), float(dt)
    lam = spec.eigenvalues
    coeffs = spec.eigenvectors[1] * spec.eigenvectors[0]
    mags = _grid_magnitudes(lam, coeffs[:, None], dt, count)[:, 0]
    if (count - 1) * dt < t_max:
        mags = np.append(mags, abs(_amplitude_at(lam, coeffs, t_max)))
    last = len(mags) - 1
    top = float(np.max(mags))
    if top <= FIDELITY_NOISE_FLOOR:
        return 0.0, 0.0
    # refine every peak the grid cannot distinguish from the best one, then
    # report the earliest among refined ties so periodic transfers give
    # their minimal time
    support = lam[coeffs != 0]
    spread = float(np.ptp(support)) if len(support) else 0.0
    grid_err = 0.5 * (0.5 * spread * dt) ** 2 + 1e-12
    candidates = np.flatnonzero(mags >= top - grid_err)
    best_t, best_f = 0.0, -1.0
    for run in np.split(candidates, np.flatnonzero(np.diff(candidates) != 1) + 1):
        k = int(run[np.argmax(mags[run])])
        t_ref, f_ref = _refine_peak(lam, coeffs, min(k * dt, t_max), dt, t_max)
        # the bounded search never returns an end of [0, t_max]; t = 0 goes
        # last, so that it wins a tie
        for edge, t_edge in ((last, t_max), (0, 0.0)):
            if edge in (run[0], run[-1]):
                f_edge = abs(_amplitude_at(lam, coeffs, t_edge))
                if f_ref <= f_edge + 1e-12:
                    t_ref, f_ref = t_edge, f_edge
        if f_ref > best_f + 1e-12:
            best_t, best_f = t_ref, f_ref
    return best_t, best_f
