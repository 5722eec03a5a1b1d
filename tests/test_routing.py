import math

import numpy as np
import pytest
from scipy.linalg import expm

from pstnet import graphs
from pstnet.graphs import SignedWeightedGraph, hypercube
from pstnet.routing import (CapacityError, Hop, HopPlan, NetworkLabeling,
                            build_network, classify_neighborhood, execute_route,
                            find_subhypercube, grow, plan_route, swap_baseline,
                            widen_labels)

from oracles import adjacency, hamming, network_edge_count, switch_off_count

RNG = np.random.default_rng(4812)


# --- antipodal labels --------------------------------------------------------

def antipodal(bits: str) -> str:
    """Bitwise complement of a binary label."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a binary label: {bits!r}")
    return "".join("1" if c == "0" else "0" for c in bits)


def test_antipodal():
    assert antipodal("000") == "111"
    assert antipodal("0") == "1"
    assert antipodal(antipodal("0110")) == "0110"
    with pytest.raises(ValueError):
        antipodal("01x")


# --- sub-hypercube selection ---------------------------------------------------

def test_worked_q8_example():
    plan = find_subhypercube(8, "00101101", "10011000")
    assert plan.fixed_indices == (1, 4, 6)
    assert plan.fixed_bits == (0, 1, 0)
    assert plan.sub_dimension == 5
    assert len(plan.keep_vertices) == 32


def test_antipodal_pair_needs_no_switching():
    plan = find_subhypercube(4, "0101", "1010")
    assert plan.sub_dimension == 4
    assert plan.off_edges == ()
    assert plan.fixed_indices == ()


def test_q3_one_dimensional_subcube():
    plan = find_subhypercube(3, "000", "010")
    assert plan.sub_dimension == 1
    assert plan.keep_vertices == (0, 2)
    assert len(plan.off_edges) == 11 == switch_off_count(3, 1)


def test_subhypercube_rejects_equal_labels():
    with pytest.raises(ValueError):
        find_subhypercube(3, "000", "000")


def test_off_edge_count_formula():
    for k in range(2, 11):
        for i in range(1, k):
            u = "0" * k
            v = "0" * (k - i) + "1" * i
            plan = find_subhypercube(k, u, v)
            assert plan.sub_dimension == i
            assert len(plan.off_edges) == switch_off_count(k, i)


# --- network construction -------------------------------------------------------

def test_power_of_two_network_is_hypercube():
    for k in (1, 2, 3, 4):
        g, lab = build_network(1 << k)
        np.testing.assert_allclose(adjacency(g), adjacency(hypercube(k)))
        assert lab.blocks == ((0, 1 << k),)


def test_three_vertex_network_is_path():
    g, lab = build_network(3)
    assert lab.labels == ("00", "01", "10")
    assert {(e.u, e.v) for e in g.edges} == {(0, 1), (0, 2)}
    assert network_edge_count(3) == 2


def test_31_vertex_network():
    g, lab = build_network(31)
    assert g.vertex_count == 31
    assert "11111" not in lab.labels
    assert g.edge_count == network_edge_count(31) == 75
    assert [s for _, s in lab.blocks] == [16, 8, 4, 2, 1]


def test_edge_count_formula_exhaustive():
    for n in range(2, 65):
        g, _ = build_network(n)
        assert g.edge_count == network_edge_count(n)


def test_labeling_codes_and_label_checks():
    _, lab = build_network(11)
    assert lab.codes == tuple(range(11))
    assert lab.vertex_of[0b1010] == 10
    with pytest.raises(ValueError, match="equal length"):
        NetworkLabeling(("0", "01"))
    with pytest.raises(ValueError, match="binary"):
        NetworkLabeling(("01", "0b"))


def test_network_rejects_tiny_order():
    with pytest.raises(ValueError):
        build_network(1)


# --- growing ----------------------------------------------------------------------

def test_grow_q2_once():
    g, lab = build_network(4)
    g2, lab2 = grow(g, lab)
    assert lab2.labels[-1] == "100"
    u, v, sw = g2.edge_arrays
    at_new = (u == 4) | (v == 4)
    assert (u[at_new].tolist(), v[at_new].tolist(), sw[at_new].tolist()) == ([0], [4], [1.0])


def test_growing_completes_next_hypercube():
    g, lab = build_network(4)
    for _ in range(4):
        g, lab = grow(g, lab)
    np.testing.assert_allclose(adjacency(g), adjacency(hypercube(3)))


def test_grow_capacity_and_widening():
    g, lab = build_network(4)
    for _ in range(4):
        g, lab = grow(g, lab)
    with pytest.raises(CapacityError):
        grow(g, lab)
    g, lab = widen_labels(g, lab)
    g, lab = grow(g, lab)
    assert g.vertex_count == 9
    assert lab.labels[-1] == "1000"


def test_routability_after_each_grow():
    g, lab = build_network(5)
    for _ in range(3):
        g, lab = grow(g, lab)
        n = g.vertex_count
        for u in range(n):
            for w in range(u + 1, n):
                plan = plan_route(g, lab, u, w)
                assert len(plan.hops) <= 2
                state = np.zeros(n, dtype=complex)
                state[u] = 1.0
                _, rep = execute_route(g, plan, state)
                assert rep.magnitude >= 1 - 1e-9


# --- route planning ------------------------------------------------------------------

def test_same_vertex_zero_hops():
    g, lab = build_network(8)
    plan = plan_route(g, lab, 3, 3)
    assert plan.hops == ()
    assert plan.total_time == 0.0


def test_antipodal_single_hop():
    g, lab = build_network(8)
    plan = plan_route(g, lab, 0, 7)
    assert len(plan.hops) == 1
    assert plan.total_time == pytest.approx(math.pi / 2)


def test_worked_31_vertex_route():
    g, lab = build_network(31)
    u, w = lab.index_of("10100"), lab.index_of("01011")
    plan = plan_route(g, lab, u, w)
    assert [lab.labels[h.source] for h in plan.hops] == ["10100", "00100"]
    assert [lab.labels[h.target] for h in plan.hops] == ["00100", "01011"]
    assert plan.hops[0].plan.sub_dimension == 1
    assert plan.hops[1].plan.sub_dimension == 4
    state = np.zeros(31, dtype=complex)
    state[u] = 1.0
    final, rep = execute_route(g, plan, state)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-9)
    assert plan.total_time == pytest.approx(math.pi)
    assert swap_baseline(g, u, w) == 5


def test_reverse_direction_route():
    g, lab = build_network(31)
    u, w = lab.index_of("01011"), lab.index_of("10100")
    plan = plan_route(g, lab, u, w)
    assert len(plan.hops) == 2
    state = np.zeros(31, dtype=complex)
    state[u] = 1.0
    _, rep = execute_route(g, plan, state)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-9)


def test_single_hop_when_bridge_lands_on_target():
    g, lab = build_network(31)
    u, w = lab.index_of("10100"), lab.index_of("00100")
    plan = plan_route(g, lab, u, w)
    assert len(plan.hops) == 1


def test_random_q8_pairs_single_hop():
    g = hypercube(8)
    lab = NetworkLabeling(g.labels)
    n = g.vertex_count
    for _ in range(20):
        u, w = map(int, RNG.choice(n, size=2, replace=False))
        plan = plan_route(g, lab, u, w)
        assert len(plan.hops) == 1
        state = np.zeros(n, dtype=complex)
        state[u] = 1.0
        _, rep = execute_route(g, plan, state)
        assert rep.magnitude >= 1 - 1e-9


# --- execution ------------------------------------------------------------------------

def test_uniform_weight_rescales_duration():
    base, lab = build_network(4)
    scaled = SignedWeightedGraph(
        4, tuple(type(e)(e.u, e.v, 2.0, e.sign) for e in base.edges),
        labels=base.labels)
    plan = plan_route(scaled, lab, 0, 3)
    assert plan.total_time == pytest.approx(math.pi / 4)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    _, rep = execute_route(scaled, plan, state)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-9)


def test_mixed_weights_rejected():
    base, lab = build_network(4)
    edges = list(base.edges)
    edges[0] = type(edges[0])(edges[0].u, edges[0].v, 2.0, edges[0].sign)
    mixed = SignedWeightedGraph(4, tuple(edges), labels=base.labels)
    with pytest.raises(ValueError, match="mixed"):
        plan_route(mixed, lab, 0, 3)


def test_single_hop_k2_plan():
    g, lab = build_network(2)
    plan = plan_route(g, lab, 0, 1)
    state = np.array([1.0, 0.0], dtype=complex)
    final, rep = execute_route(g, plan, state)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-12)


def test_execution_rejects_misplaced_state():
    g, lab = build_network(4)
    plan = plan_route(g, lab, 0, 3)
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0
    with pytest.raises(ValueError):
        execute_route(g, plan, state)


def test_never_active_vertices_stay_empty():
    g, lab = build_network(31)
    u, w = lab.index_of("10100"), lab.index_of("01011")
    plan = plan_route(g, lab, u, w)
    active = set()
    for hop in plan.hops:
        active |= set(hop.plan.keep_vertices)
    state = np.zeros(31, dtype=complex)
    state[u] = 1.0
    final, _ = execute_route(g, plan, state)
    for v in range(31):
        if v not in active:
            assert abs(final[v]) == 0.0


def test_hop_adjacencies_do_not_commute():
    g, lab = build_network(31)
    u, w = lab.index_of("10100"), lab.index_of("01011")
    plan = plan_route(g, lab, u, w)
    a1, a2 = (_hop_matrix(g, hop.plan.keep_vertices) for hop in plan.hops)
    assert np.max(np.abs(a1 @ a2 - a2 @ a1)) > 0


def _hop_matrix(g, keep):
    """The network adjacency with every entry outside the kept block zeroed."""
    a = adjacency(g)
    outside = np.ones(g.vertex_count, dtype=bool)
    outside[list(keep)] = False
    a[outside, :] = 0.0
    a[:, outside] = 0.0
    return a


def test_execute_route_matches_expm_for_all_pairs():
    """Every ordered pair of the networks up to 16 vertices, with random
    hop durations, against expm of each hop's switched matrix."""
    for n in range(2, 17):
        g, lab = build_network(n)
        for u in range(n):
            for w in range(n):
                if u == w:
                    continue
                route = plan_route(g, lab, u, w)
                hops = tuple(Hop(h.plan, h.source, h.target, RNG.uniform(0.0, 4.0))
                             for h in route.hops)
                state = np.zeros(n, dtype=complex)
                state[u] = 1.0
                plan = HopPlan(hops)
                final, _ = execute_route(g, plan, state)
                expect = state
                for h in hops:
                    expect = expm(-1j * h.duration
                                  * _hop_matrix(g, h.plan.keep_vertices)) @ expect
                np.testing.assert_allclose(final, expect, atol=1e-12, rtol=0)
                assert plan.total_time == pytest.approx(sum(h.duration for h in hops))


def _with_edge(g, index, weight, sign):
    edges = list(g.edges)
    e = edges[index]
    edges[index] = type(e)(e.u, e.v, weight, sign)
    return SignedWeightedGraph(g.vertex_count, tuple(edges), labels=g.labels)


def test_execution_refuses_a_kept_edge_that_is_not_uniform():
    g, lab = build_network(31)
    u, w = lab.index_of("10100"), lab.index_of("01011")
    plan = plan_route(g, lab, u, w)
    keep = set(plan.hops[1].plan.keep_vertices)
    # the block's last edge, so the weight of an earlier one sets the norm
    kept = max(i for i, e in enumerate(g.edges) if e.u in keep and e.v in keep)
    e = g.edges[kept]
    state = np.zeros(31, dtype=complex)
    state[u] = 1.0
    for weight, sign in ((1.0, -1), (1.5, 1)):
        bad = _with_edge(g, kept, weight, sign)
        with pytest.raises(ValueError, match=rf"kept edge \({e.u},{e.v}\)"):
            execute_route(bad, plan, state)


def test_execution_refuses_a_block_that_is_not_a_hypercube():
    g, lab = build_network(8)
    plan = plan_route(g, lab, 0, 7)
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    missing = SignedWeightedGraph(8, g.edges[1:], labels=g.labels)
    with pytest.raises(ValueError, match="Q_3 needs 12"):
        execute_route(missing, plan, state)
    extra = SignedWeightedGraph(8, g.edges + ((0, 3, 1.0, 1),), labels=g.labels)
    with pytest.raises(ValueError, match=r"kept edge \(0,3\)"):
        execute_route(extra, plan, state)


def test_negative_sign_on_a_switched_off_edge_is_harmless():
    g, lab = build_network(31)
    u, w = lab.index_of("10100"), lab.index_of("01011")
    plan = plan_route(g, lab, u, w)
    off = set(plan.hops[0].plan.off_edges) & set(plan.hops[1].plan.off_edges)
    index = next(i for i, e in enumerate(g.edges) if (e.u, e.v) in off)
    signed = _with_edge(g, index, 1.0, -1)
    plan = plan_route(signed, lab, u, w)
    state = np.zeros(31, dtype=complex)
    state[u] = 1.0
    _, rep = execute_route(signed, plan, state)
    assert abs(rep.magnitude - 1.0) <= 1e-12


def test_routing_builds_no_matrix_and_solves_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix or eigensolve on the routing path")

    monkeypatch.setattr(graphs, "graph_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for n in range(2, 21):
        g, lab = build_network(n)
        for u in range(n):
            state = np.zeros(n, dtype=complex)
            state[u] = 1.0
            for w in range(n):
                _, rep = execute_route(g, plan_route(g, lab, u, w), state)
                assert rep.magnitude >= 1 - 1e-12


# --- neighborhood classification -----------------------------------------------------

def test_full_q4_neighborhood_counts():
    _, lab = build_network(16)
    rep = classify_neighborhood(lab, 0)
    assert rep.counts == (4, 6, 4, 1)


def test_q1_neighborhood():
    _, lab = build_network(2)
    rep = classify_neighborhood(lab, 0)
    assert rep.counts == (1, 0, 0, 0)


def test_31_vertex_neighborhood_excludes_missing_vertex():
    _, lab = build_network(31)
    u = lab.index_of("11110")
    rep = classify_neighborhood(lab, u)
    labels = [lab.labels[v] for v in rep.alpha]
    assert "11111" not in labels
    assert rep.counts[0] == 4
    # brute-force cross-check of every distance class
    for dist, got in zip(range(1, 5), rep.counts):
        expect = sum(1 for lab2 in lab.labels if hamming(lab2, "11110") == dist)
        assert got == expect


# --- SWAP baseline ----------------------------------------------------------------------

def test_swap_baseline_adjacent():
    g, _ = build_network(4)
    assert swap_baseline(g, 0, 1) == 1


def test_swap_baseline_antipodal():
    for d in (2, 3, 4):
        g = hypercube(d)
        assert swap_baseline(g, 0, (1 << d) - 1) == d


def test_neighborhood_on_codes_matches_the_label_strings():
    for n in range(2, 65):
        _, lab = build_network(n)
        for u in range(n):
            sets = {1: [], 2: [], 3: [], 4: []}
            for v, other in enumerate(lab.labels):
                d = hamming(lab.labels[u], other)
                if 1 <= d <= 4:
                    sets[d].append(v)
            rep = classify_neighborhood(lab, u)
            assert (rep.alpha, rep.beta, rep.gamma, rep.delta) == tuple(
                tuple(sets[d]) for d in range(1, 5))
