"""The benchmark's four workloads.

A workload's set-up turns a seed into a list of operations: the inputs
(graphs, networks, parsed example files, matrices) are built there, and
each operation is one query a user makes. A round runs every operation
once, so all rounds are the same and a run of whole rounds fails the same
share of operations whatever its length. Each operation returns a compact
output that its check compares with checks.py.

The operations call pstnet through module attributes (routing.plan_route,
not a local name), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import pstnet
from pstnet import chains, corona_lab, fileio, graphs, routing, spectral

import checks

EXAMPLES = Path(pstnet.__file__).resolve().parent / "data" / "corona_examples"


class Op(NamedTuple):
    run: Callable       # run(*args) -> compact output; the timed query
    check: Callable     # check(output, *args); raises checks.CheckFailed
    args: tuple
    known_fault: bool = False   # fails because of a program fault the README names


# ---------------------------------------------------------------------------
# route: plan_route + execute_route for every pair a < b, n = 2..64

ROUTE_ORDERS = range(2, 65)


def _route(network, labeling, n, a, b, state):
    plan = routing.plan_route(network, labeling, a, b)
    final, _ = routing.execute_route(network, plan, state)
    return tuple((h.source, h.target) for h in plan.hops), complex(final[b])


def _check_route(out, network, labeling, n, a, b, state):
    checks.check_route(n, a, b, *out)


def route_setup(rng: np.random.Generator) -> list[Op]:
    """All 43,680 pairs in a seeded order."""
    ops = []
    for n in ROUTE_ORDERS:
        network, labeling = routing.build_network(n)
        for a in range(n - 1):
            state = np.zeros(n, dtype=complex)
            state[a] = 1.0
            ops += [Op(_route, _check_route, (network, labeling, n, a, b, state))
                    for b in range(a + 1, n)]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# hypercube: transfer_amplitude on Q_1..Q_11

HYPERCUBE_DIMS = range(1, 12)
RANDOM_QUERIES_PER_DIM = 2


def _transfer(g, k, u, v, t):
    return spectral.transfer_amplitude(g, u, v, t).magnitude


def _check_transfer(out, g, k, u, v, t):
    checks.check_hypercube(k, u, v, t, out)


def hypercube_setup(rng: np.random.Generator) -> list[Op]:
    """Per k: a seeded antipodal pair at pi/2 and seeded (u, v, t) queries."""
    ops = []
    for k in HYPERCUBE_DIMS:
        g, size = graphs.hypercube(k), 1 << k
        u = int(rng.integers(size))
        ops.append(Op(_transfer, _check_transfer, (g, k, u, u ^ (size - 1), math.pi / 2)))
        for _ in range(RANDOM_QUERIES_PER_DIM):
            u, v = (int(x) for x in rng.integers(size, size=2))
            ops.append(Op(_transfer, _check_transfer,
                          (g, k, u, v, float(rng.uniform(0.0, math.pi)))))
    return ops


# ---------------------------------------------------------------------------
# verdict: check_pst_conditions on graphs with known answers

K2_WEIGHTS_PER_RUN = 3
CHAIN_ORDERS = range(2, 41)
KNOWN_FAULT_Q = (99, 999, 9999)


def _verdict(name, g, u, v, kind, expect, t0):
    rep = spectral.check_pst_conditions(g, u, v, matrix_kind=kind)
    return rep.vector_condition and rep.eigenvalue_condition, rep.best_time


def _check_verdict(out, name, g, u, v, kind, expect, t0):
    checks.check_verdict(f"{kind} {name} {u}->{v}", expect, t0, *out)


def _chain_verify(n, spec):
    return chains.chain_pst_verify(spec, math.pi / 2).magnitude


def _check_chain_verify(out, n, spec):
    checks.check_unit_magnitude(f"pst_chain({n}) at pi/2", out)


def _k2(w: float):
    return graphs.make_graph(2, [(0, 1, w)])


def _k2_box_k2(q: int):
    return graphs.cartesian(_k2(1.0), _k2(1.0 / q))


def verdict_setup(rng: np.random.Generator) -> list[Op]:
    """PST and no-PST families, adjacency and Laplacian.

    K2(1) box K2(1/q) has PST from 0 to 3 at q pi/2; for q = 99, 999 and
    9999 the program answers "no PST" (README: kept failures).
    """
    cases = []   # (name, graph, u, v, kind, expect_pst, t0)

    def pst(kind, name, g, u, v, t0):
        cases.append((name, g, u, v, kind, True, t0))

    def no_pst(kind, name, g, u, v):
        cases.append((name, g, u, v, kind, False, None))

    weights = rng.uniform(0.5, 2.0, size=K2_WEIGHTS_PER_RUN)
    for kind in ("adjacency", "laplacian"):
        for w in weights:
            pst(kind, f"K2({w:.6f})", _k2(float(w)), 0, 1, math.pi / (2 * w))
        pst(kind, "C4", graphs.cycle_graph(4), 0, 2, math.pi / 2)
        for k in range(1, 9):
            pst(kind, f"Q{k}", graphs.hypercube(k), 0, (1 << k) - 1, math.pi / 2)
        for q in (3, 5, 7):
            pst(kind, f"K2 box K2(1/{q})", _k2_box_k2(q), 0, 3, q * math.pi / 2)
        for n in range(4 if kind == "adjacency" else 3, 11):
            no_pst(kind, f"P{n}", graphs.path_graph(n), 0, n - 1)
        for n in range(3, 9):
            no_pst(kind, f"K{n}", graphs.complete_graph(n), 0, int(rng.integers(1, n)))
        for n in range(5, 9):
            no_pst(kind, f"C{n}", graphs.cycle_graph(n), 0, int(rng.integers(1, n)))
        for k in range(2, 9):
            v = int(rng.integers(1, (1 << k) - 1))
            no_pst(kind, f"Q{k}", graphs.hypercube(k), 0, v)
    pst("adjacency", "P3", graphs.path_graph(3), 0, 2, math.pi / math.sqrt(2))
    specs = {n: chains.pst_chain(n) for n in CHAIN_ORDERS}
    for n, spec in specs.items():
        chain = graphs.make_graph(n, [(i, i + 1, j) for i, j in enumerate(spec.couplings)])
        pst("adjacency", f"pst_chain({n})", chain, 0, n - 1, math.pi / 2)
    ops = [Op(_verdict, _check_verdict, case) for case in cases]
    ops += [Op(_verdict, _check_verdict,
               (f"K2 box K2(1/{q})", _k2_box_k2(q), 0, 3, "adjacency", True, q * math.pi / 2),
               known_fault=True)
            for q in KNOWN_FAULT_Q]
    ops += [Op(_chain_verify, _check_chain_verify, (n, spec)) for n, spec in specs.items()]
    return ops


# ---------------------------------------------------------------------------
# scan: corona fidelity tables, all-pairs grid maxima, uniform-chain scans

FIDELITY_SCANS = (   # (example, matrix kind, highest corona order)
    ("example01", "adjacency", 4), ("example01", "laplacian", 3),
    ("example02", "adjacency", 3), ("example02", "laplacian", 3),
    ("example03", "adjacency", 2), ("example03", "laplacian", 2),
    ("example04", "adjacency", 3), ("example04", "laplacian", 3),
)
FIDELITY_T_MAX, FIDELITY_DT = 20.0, 0.005
ALL_PAIRS_SEED_ORDERS = (2, 3, 4, 5, 2, 3, 4, 5)
ALL_PAIRS_T_MAX, ALL_PAIRS_DT = 50.0, 0.005
UNIFORM_CHAIN_ORDERS = range(4, 11)
UNIFORM_T_MAX, UNIFORM_DT = 200.0, 0.002


def _fidelity(name, seed, pair, kind, m_max):
    table = corona_lab.fidelity_vs_m(seed, pair, m_max, matrix_kind=kind,
                                     t_max=FIDELITY_T_MAX, dt=FIDELITY_DT)
    return tuple((row.m, row.t_star, row.f_star) for row in table.rows)


def _check_fidelity(out, name, seed, pair, kind, m_max):
    label = f"{name} {kind} {pair}"
    checks.check_orders(label, [m for m, _, _ in out], m_max)
    adjacency = checks.read_seed_adjacency(EXAMPLES / f"{name}.graph")
    for m, t_star, f_star in out:
        checks.check_scan_point(f"{label} m={m}", checks.corona_matrix(adjacency, m, kind),
                                *pair, FIDELITY_T_MAX, FIDELITY_DT, t_star, f_star)
    if name == "example01":
        checks.check_unit_magnitude(f"{label} m=0", out[0][2])


def _all_pairs(n, edges, matrix):
    return corona_lab.all_pairs_max_fidelity(matrix, ALL_PAIRS_T_MAX, ALL_PAIRS_DT)


def _check_all_pairs(out, n, edges, matrix):
    seed = np.zeros((n, n))
    for u, v in edges:
        seed[u, v] = seed[v, u] = 1.0
    label = f"Laplacian corona of {n}-vertex seed {edges}"
    reference = checks.corona_matrix(seed, 1, "laplacian").toarray()
    checks.check_same_matrix(label, matrix, reference)
    checks.check_all_pairs(label, reference, ALL_PAIRS_T_MAX, ALL_PAIRS_DT, out)


def _uniform_chain(n):
    return chains.unmodulated_no_pst_scan(n, UNIFORM_T_MAX, dt=UNIFORM_DT)


def _check_uniform_chain(out, n):
    checks.check_uniform_chain(n, UNIFORM_T_MAX, UNIFORM_DT, *out)


def _random_connected_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A random spanning tree plus up to n - 1 extra edges."""
    edges = set()
    perm = rng.permutation(n)
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[int(rng.integers(0, i))])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, n))):
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def scan_setup(rng: np.random.Generator) -> list[Op]:
    """Seeded transfer pairs for the examples, seeded seeds of fixed orders."""
    seeds = {name: fileio.parse_graph_file(str(EXAMPLES / f"{name}.graph"))
             for name in sorted({name for name, _, _ in FIDELITY_SCANS})}
    ops = []
    for name, kind, m_max in FIDELITY_SCANS:
        if name == "example01":
            pair = ((0, 2), (1, 3))[int(rng.integers(2))]
        else:
            pair = tuple(sorted(int(x) for x in
                                rng.choice(seeds[name].vertex_count, 2, replace=False)))
        ops.append(Op(_fidelity, _check_fidelity, (name, seeds[name], pair, kind, m_max)))
    for n in ALL_PAIRS_SEED_ORDERS:
        edges = _random_connected_edges(rng, n)
        seed = graphs.make_graph(n, edges)
        matrix = graphs.laplacian(graphs.corona(seed, seed))
        ops.append(Op(_all_pairs, _check_all_pairs, (n, edges, matrix)))
    ops += [Op(_uniform_chain, _check_uniform_chain, (n,)) for n in UNIFORM_CHAIN_ORDERS]
    return ops


# Workloads whose ops_per_s is scaled by the speed probe (worker.py). Their
# time goes to the interpreter and to small numpy calls, whose speed on a
# shared machine drifts by tens of percent over seconds, and the probe's time
# follows it. hypercube and scan spend theirs in large LAPACK calls, which
# the probe does not follow, so they report the plain rate.
SPEED_PROBED = frozenset({"route", "verdict"})

SETUPS = {
    "route": route_setup,
    "hypercube": hypercube_setup,
    "verdict": verdict_setup,
    "scan": scan_setup,
}
