"""Property tests of the exact PST verdict against dense evolution.

Families with a closed-form first PST time:
- a Cartesian product of K2(c/o_i) with every o_i odd transfers from vertex
  0 to the all-ones vertex first at lcm(o_i) pi/(2c); adding one factor of
  even order leaves no time at which every factor swaps, so no PST;
- the engineered chain with couplings c sqrt(i (n - i)) transfers end to
  end at pi/(2c).
"""

import math
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from pstnet.chains import pst_chain
from pstnet.graphs import cartesian, graph_matrix, make_graph
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
