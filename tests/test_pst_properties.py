"""Property tests of the exact PST verdict against dense evolution.

Families with a closed-form first PST time:
- a Cartesian product of K2(c/o_i) with every o_i odd transfers from vertex
  0 to the all-ones vertex first at lcm(o_i) pi/(2c); adding one factor of
  even order leaves no time at which every factor swaps, so no PST;
- the engineered chain with couplings c sqrt(i (n - i)) transfers end to
  end at pi/(2c).

Every verdict rule scales with the weights, so a graph with every weight
times c gets the verdict of c = 1 with t0 / c, from c = 1e-140 up; a
matrix of norm below `spectral.WALK_MIN_NORM` is refused instead.
"""

import math
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from pstnet import spectral
from pstnet.chains import pst_chain
from pstnet.graphs import (SignedWeightedGraph, cartesian, cycle_graph, edge_table,
                           graph_matrix, hypercube, make_graph, path_graph)
from pstnet.spectral import check_pst_conditions

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SCALES = st.floats(min_value=0.25, max_value=4.0)
KINDS = st.sampled_from(["adjacency", "laplacian"])
ODD = st.integers(min_value=0, max_value=7).map(lambda k: 2 * k + 1)


def _k2_product(c, orders):
    return reduce(cartesian, [make_graph(2, [(0, 1, c / o)]) for o in orders])


def _expm_magnitude(g, kind, u, v, t):
    return abs(expm(-1j * t * graph_matrix(g, kind))[v, u])


@SETTINGS
@given(c=SCALES, orders=st.lists(ODD, min_size=1, max_size=4), kind=KINDS)
def test_odd_k2_products_transfer_at_lcm_time(c, orders, kind):
    g = _k2_product(c, orders)
    target = g.vertex_count - 1
    rep = check_pst_conditions(g, 0, target, matrix_kind=kind)
    assert rep.vector_condition and rep.eigenvalue_condition
    t0 = math.lcm(*orders) * math.pi / (2 * c)
    assert rep.best_time == pytest.approx(t0, rel=1e-9)
    assert rep.best_magnitude == pytest.approx(1.0, abs=1e-9)
    assert _expm_magnitude(g, kind, 0, target, rep.best_time) == pytest.approx(1.0, abs=1e-8)


@SETTINGS
@given(c=SCALES, orders=st.lists(ODD, min_size=1, max_size=3),
       even=st.integers(min_value=1, max_value=6).map(lambda k: 2 * k),
       slot=st.integers(min_value=0, max_value=3), kind=KINDS)
def test_one_even_k2_factor_rules_out_pst(c, orders, even, slot, kind):
    orders.insert(slot % (len(orders) + 1), even)
    g = _k2_product(c, orders)
    target = g.vertex_count - 1
    rep = check_pst_conditions(g, 0, target, matrix_kind=kind)
    assert rep.vector_condition and rep.rationality
    assert not rep.eigenvalue_condition
    assert rep.best_time is None and rep.best_magnitude == 0.0
    # at lcm pi/(2c) the even factor swaps and every odd factor is home
    t = math.lcm(*orders) * math.pi / (2 * c)
    assert _expm_magnitude(g, kind, 0, target, t) < 1e-6


@SETTINGS
@given(c=SCALES, n=st.integers(min_value=2, max_value=24))
def test_scaled_engineered_chain_transfers_at_quarter_period(c, n):
    g = make_graph(n, [(i, i + 1, c * j) for i, j in enumerate(pst_chain(n).couplings)])
    rep = check_pst_conditions(g, 0, n - 1)
    assert rep.vector_condition and rep.eigenvalue_condition
    assert rep.best_time == pytest.approx(math.pi / (2 * c), rel=1e-9)
    assert _expm_magnitude(g, "adjacency", 0, n - 1, rep.best_time) == pytest.approx(1.0, abs=1e-8)


UNIT_CASES = {   # (graph, u, v) at unit scale
    "K2": (make_graph(2, [(0, 1)]), 0, 1),
    "C4": (cycle_graph(4), 0, 2),
    "Q3": (hypercube(3), 0, 7),
    "P3": (path_graph(3), 0, 2),
    "pst_chain(6)": (make_graph(6, [(i, i + 1, j) for i, j in
                                    enumerate(pst_chain(6).couplings)]), 0, 5),
}


def _scaled(g, c):
    """g with every weight times c."""
    a, b, sw = g.edge_arrays
    return SignedWeightedGraph(g.vertex_count, edge_table(a, b, sw * c))


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
@pytest.mark.parametrize("name", sorted(UNIT_CASES))
def test_verdicts_do_not_depend_on_the_coupling_unit(name, kind):
    # eigenspaces used to merge within an absolute 1e-8, so K2 and Q3 at
    # weight 4.9e-9 and P3 at 5.1e-9 read "PST impossible"
    g, u, v = UNIT_CASES[name]
    unit = check_pst_conditions(g, u, v, kind)
    for c in (1e-140, 1e-9, 4.9e-9, 5.1e-9, 1e-3, 1e3, 1e100):
        rep = check_pst_conditions(_scaled(g, c), u, v, kind)
        assert (rep.vector_condition, rep.eigenvalue_condition, rep.rationality) == \
            (unit.vector_condition, unit.eigenvalue_condition, unit.rationality)
        assert len(rep.support_eigenvalues) == len(unit.support_eigenvalues)
        if unit.best_time is None:
            assert rep.best_time is None
        else:
            assert rep.best_time * c == pytest.approx(unit.best_time, rel=1e-12)
            assert rep.best_magnitude == pytest.approx(1.0, abs=1e-12)
    for c in (1e-150, 1e-170):
        with pytest.raises(ValueError, match=r"^walk module of vertex \d+ is refused: "
                                             r"\|\|M\|\|_1 = .* below 1.49e-142"):
            check_pst_conditions(_scaled(g, c), u, v, kind)


def test_a_walk_below_the_least_norm_is_refused_before_any_step(monkeypatch):
    # an edgeless graph has norm 0: its walk closes at once, exactly
    assert check_pst_conditions(make_graph(1, []), 0, 0).best_magnitude == 1.0
    assert spectral.WALK_MIN_NORM == pytest.approx(1.4916681462400413e-142, rel=1e-15)
    # K2(1e-160) used to read |f| = 1.0000055664169094 at its PST time
    monkeypatch.setattr(spectral, "_path_walk", lambda *a: pytest.fail("walked"))
    monkeypatch.setattr(spectral, "_lanczos", lambda *a: pytest.fail("walked"))
    w = 1e-160
    with pytest.raises(ValueError, match="below 1.49e-142"):
        spectral.transfer_amplitude(make_graph(2, [(0, 1, w)]), 0, 1, math.pi / (2 * w))
