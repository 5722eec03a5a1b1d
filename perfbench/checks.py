"""Independent references for the benchmark's output checks.

Nothing here imports pstnet. Each reference comes from a closed form, from
integer label arithmetic, or from scipy code paths that the program does
not use:

- route: the hop plan from integer labels and the phase (-i)^d of a hop
  across an induced Q_d at t = pi/2 (Christandl et al., PRL 92, 187902);
- hypercube: |<v|U(t)|u>| = |cos t|^(k-d) |sin t|^d on Q_k;
- verdict: known PST answers and closed-form first PST times;
- scan: matrices rebuilt from the corona block formula, amplitudes from
  scipy.linalg.expm (scipy.sparse.linalg.expm_multiply above
  DENSE_EXPM_MAX_DIM), time grids from a Chebyshev expansion, and the
  uniform chain's closed-form spectrum.

Every check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import j0, j1

AMPLITUDE_TOL = 1e-9
PST_TIME_TOL = 1e-6
DENSE_EXPM_MAX_DIM = 300


class CheckFailed(AssertionError):
    """A program output disagrees with the independent reference."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# route

def _dyadic_block(n: int, v: int) -> tuple[int, int]:
    """(start, size) of the power-of-two block of [0, n) holding v, largest first."""
    start = 0
    while True:
        size = 1 << ((n - start).bit_length() - 1)
        if v < start + size:
            return start, size
        start += size


def expected_hops(n: int, a: int, b: int) -> list[tuple[int, int]]:
    """Hop endpoints for a -> b on the order-n network, from integer labels.

    One hop inside a block. Across blocks, the smaller block's endpoint
    crosses to its lowest Hamming-1 partner x in the larger block; a second
    hop joins x to the other endpoint unless x is that endpoint.
    """
    (sa, na), (sb, nb) = _dyadic_block(n, a), _dyadic_block(n, b)
    if sa == sb:
        return [(a, b)]
    small, (start, size), big = (a, (sb, nb), b) if na < nb else (b, (sa, na), a)
    x = min(i for i in range(start, start + size) if bin(i ^ small).count("1") == 1)
    if x == big:
        return [(a, b)]
    return [(a, x), (x, b)]


def check_route(n: int, a: int, b: int, hops, amplitude: complex) -> None:
    want = expected_hops(n, a, b)
    _require(len(hops) <= 2, f"n={n} {a}->{b}: {len(hops)} hops")
    _require(list(hops) == want, f"n={n} {a}->{b}: hops {list(hops)}, expected {want}")
    distance = sum(bin(s ^ t).count("1") for s, t in want)
    phase = (-1j) ** distance
    _require(abs(amplitude - phase) <= AMPLITUDE_TOL,
             f"n={n} {a}->{b}: amplitude {amplitude}, expected {phase}")


# ---------------------------------------------------------------------------
# hypercube

def hypercube_magnitude(k: int, u: int, v: int, t: float) -> float:
    d = bin(u ^ v).count("1")
    return abs(math.cos(t)) ** (k - d) * abs(math.sin(t)) ** d


def check_hypercube(k: int, u: int, v: int, t: float, magnitude: float) -> None:
    want = hypercube_magnitude(k, u, v, t)
    _require(abs(magnitude - want) <= AMPLITUDE_TOL,
             f"Q_{k} {u}->{v} t={t}: |f| {magnitude}, expected {want}")


# ---------------------------------------------------------------------------
# verdict

def check_verdict(label: str, expect_pst: bool, t0, verdict: bool, best_time) -> None:
    """Verdict must match the known answer; a PST time must be within 1e-6 of t0."""
    _require(verdict == expect_pst,
             f"{label}: verdict {verdict}, expected {expect_pst}")
    if expect_pst:
        _require(best_time is not None and abs(best_time - t0) <= PST_TIME_TOL,
                 f"{label}: PST time {best_time}, expected {t0}")


def check_unit_magnitude(label: str, magnitude: float) -> None:
    _require(abs(magnitude - 1.0) <= AMPLITUDE_TOL,
             f"{label}: |f| {magnitude}, expected 1")


# ---------------------------------------------------------------------------
# scan: matrices

def read_seed_adjacency(path: Path) -> np.ndarray:
    """Signed adjacency from the 'edge u v weight sign' lines of a graph file."""
    n, entries = 0, []
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "graph":
            n = int(parts[1])
        elif parts and parts[0] == "edge":
            u, v, w = int(parts[1]), int(parts[2]), float(parts[3])
            entries.append((u, v, w if parts[4] == "+" else -w))
    a = np.zeros((n, n))
    for u, v, w in entries:
        a[u, v] = a[v, u] = w
    return a


def canonical_marking(a) -> np.ndarray:
    """Product of the signs of each vertex's edges: -1 for an odd count of negatives."""
    negatives = np.asarray((sp.csr_matrix(a) < 0).sum(axis=1)).ravel()
    return 1.0 - 2.0 * (negatives % 2)


def corona_adjacency(a1, a2) -> sp.csr_matrix:
    """[[A1, mu2^T kron diag(mu1)], [.., A2 kron I_n]] with canonical markings."""
    n = a1.shape[0]
    bridge = sp.kron(sp.csr_matrix(canonical_marking(a2)[None, :]),
                     sp.diags(canonical_marking(a1)))
    return sp.bmat([[sp.csr_matrix(a1), bridge],
                    [bridge.T, sp.kron(sp.csr_matrix(a2), sp.identity(n))]],
                   format="csr")


def corona_matrix(seed: np.ndarray, m: int, kind: str) -> sp.csr_matrix:
    """Adjacency or signed Laplacian D - A of the m-th self-corona of the seed."""
    a = sp.csr_matrix(seed)
    for _ in range(m):
        a = corona_adjacency(a, seed)
    if kind == "adjacency":
        return a
    if kind == "laplacian":
        degree = np.asarray(abs(a).sum(axis=1)).ravel()
        return (sp.diags(degree) - a).tocsr()
    raise ValueError(f"unknown matrix kind {kind!r}")


def check_same_matrix(label: str, matrix: np.ndarray, reference: np.ndarray) -> None:
    _require(np.array_equal(np.asarray(matrix), reference),
             f"{label}: input matrix differs from the corona block formula")


def check_orders(label: str, orders: list[int], m_max: int) -> None:
    _require(orders == list(range(m_max + 1)),
             f"{label}: rows for orders {orders}, expected 0..{m_max}")


# ---------------------------------------------------------------------------
# scan: amplitudes

def amplitude_expm(m, u: int, v: int, t: float) -> complex:
    """<v|exp(-i M t)|u> from scipy.linalg.expm, or its action for large M."""
    if m.shape[0] <= DENSE_EXPM_MAX_DIM:
        dense = m.toarray() if sp.issparse(m) else np.asarray(m)
        return complex(scipy.linalg.expm(-1j * t * dense)[v, u])
    e_u = np.zeros(m.shape[0], dtype=complex)
    e_u[u] = 1.0
    return complex(expm_multiply(-1j * t * sp.csr_matrix(m), e_u)[v])


def bessel_j(terms: int, x: np.ndarray) -> np.ndarray:
    """J_k(x) for k < terms, one row per order.

    Upward recurrence from J_0, J_1 where k < x (stable there); above that,
    products of the ratios J_k / J_{k-1} from a backward continued fraction.
    """
    safe = np.where(x == 0, 1.0, x)
    ratios = np.zeros((terms, x.size))
    r = np.zeros_like(safe)
    for k in range(terms + int(np.max(x)) + 40, 0, -1):
        r = 1.0 / (2 * k / safe - r)
        if k < terms:
            ratios[k] = r
    out = np.empty((terms, x.size))
    out[0], out[1] = j0(x), j1(x)
    for k in range(2, terms):
        upward = (2 * (k - 1) / safe) * out[k - 1] - out[k - 2]
        out[k] = np.where(k < x, upward, out[k - 1] * ratios[k])
    out[1:, x == 0] = 0.0
    return out


def amplitude_grid(m, u: int, v: int, ts: np.ndarray) -> np.ndarray:
    """<v|exp(-i M t)|u> on a time grid by a Chebyshev expansion.

    With the spectrum inside [c - r, c + r] (Gershgorin), exp(-i M t) =
    e^{-ict} sum_k (2 - [k=0]) (-i)^k J_k(r t) T_k((M - c)/r); the series is
    cut where J_k(r t_max) has decayed below 1e-13.
    """
    m = sp.csr_matrix(m)
    diag = m.diagonal()
    radius = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo) * (1 + 1e-12) + 1e-12
    scaled = (m - c * sp.identity(m.shape[0])) / r
    x = r * float(np.max(ts))
    terms = int(x + 12 * x ** (1 / 3) + 40)
    moments = np.empty(terms)
    prev = np.zeros(m.shape[0])
    cur = prev.copy()
    cur[u] = 1.0
    for k in range(terms):
        moments[k] = cur[v]
        nxt = (scaled @ cur) * (1.0 if k == 0 else 2.0) - prev
        prev, cur = cur, nxt
    ks = np.arange(terms)
    weights = np.where(ks == 0, 1.0, 2.0) * (-1j) ** ks * moments
    return np.exp(-1j * c * ts) * (weights @ bessel_j(terms, r * ts))


def scan_grid(t_max: float, dt: float) -> np.ndarray:
    return np.arange(0.0, t_max + dt, dt)


def check_scan_point(label: str, m, u: int, v: int, t_max: float, dt: float,
                     t_star: float, f_star: float) -> None:
    """f* equals |<v|U(t*)|u>| and is no lower than the grid maximum at dt."""
    at_t = abs(amplitude_expm(m, u, v, t_star))
    _require(abs(f_star - at_t) <= AMPLITUDE_TOL,
             f"{label}: f* {f_star} at t* {t_star}, expm gives {at_t}")
    grid_max = float(np.max(np.abs(amplitude_grid(m, u, v, scan_grid(t_max, dt)))))
    _require(f_star >= grid_max - AMPLITUDE_TOL,
             f"{label}: f* {f_star} below the grid maximum {grid_max}")


def all_pairs_grid_max(m: np.ndarray, t_max: float, dt: float) -> np.ndarray:
    """max over the grid of |exp(-i M t)| per entry, stepping by expm(-i M dt)."""
    step = scipy.linalg.expm(-1j * dt * np.asarray(m))
    u_t = np.eye(m.shape[0], dtype=complex)
    best = np.zeros((m.shape[0], m.shape[0]))
    for _ in scan_grid(t_max, dt):
        np.maximum(best, np.abs(u_t), out=best)
        u_t = u_t @ step
    return best


def check_all_pairs(label: str, m: np.ndarray, t_max: float, dt: float,
                    best: np.ndarray) -> None:
    want = all_pairs_grid_max(m, t_max, dt)
    worst = float(np.max(np.abs(np.asarray(best) - want)))
    _require(worst <= AMPLITUDE_TOL,
             f"{label}: grid maxima differ from the reference by {worst}")


def uniform_chain_amplitudes(n: int, ts: np.ndarray) -> np.ndarray:
    """End-to-end amplitude of the uniform n-site chain from its closed-form eigenpairs."""
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    coeff = (2.0 / (n + 1)) * np.sin(theta) * np.sin(n * theta)
    return np.exp(-1j * np.outer(ts, 2.0 * np.cos(theta))) @ coeff


def check_uniform_chain(n: int, t_max: float, dt: float, t_star: float,
                        f_star: float) -> None:
    """Scan maximum of a uniform chain: matches expm at t*, tops the grid, stays below 1."""
    label = f"uniform chain n={n}"
    chain = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    at_t = abs(amplitude_expm(chain, 0, n - 1, t_star))
    _require(abs(f_star - at_t) <= AMPLITUDE_TOL,
             f"{label}: f* {f_star} at t* {t_star}, expm gives {at_t}")
    grid_max = float(np.max(np.abs(uniform_chain_amplitudes(n, scan_grid(t_max, dt)))))
    _require(f_star >= grid_max - AMPLITUDE_TOL,
             f"{label}: f* {f_star} below the grid maximum {grid_max}")
    _require(f_star < 1.0 - 1e-6, f"{label}: f* {f_star} reaches 1 without PST")
