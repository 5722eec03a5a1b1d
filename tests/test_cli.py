import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pstnet
from pstnet import cli, spectral
from pstnet.chains import unmodulated_no_pst_scan
from pstnet.cli import run
from pstnet.fileio import (VERSION_COMMENT, GraphFormatError, emit_csv, fmt,
                           parse_graph_text)
from pstnet.graphs import SignedWeightedGraph
from pstnet.routing import build_network, execute_route, plan_route
from pstnet.spectral import polar

from oracles import read_csv, serialize_graph

K2_TEXT = "graph 2\nedge 0 1 1 +\n"

SQUARE_TEXT = """\
# signed square
graph 4
mark 0 -
mark 1 -
mark 2 -
mark 3 -
edge 0 1 1 -
edge 1 2 1 +
edge 2 3 1 -
edge 3 0 1 +
"""


# --- graph format ------------------------------------------------------------

def test_parse_k2():
    g = parse_graph_text(K2_TEXT)
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_parse_signed_square():
    g = parse_graph_text(SQUARE_TEXT)
    assert g.vertex_count == 4
    assert g.markings == (-1, -1, -1, -1)
    assert sorted(e.sign for e in g.edges) == [-1, -1, 1, 1]


def test_duplicate_edge_reports_line():
    text = K2_TEXT + "edge 1 0 1 -\n"
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph_text(text)


def test_unknown_directive_reports_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph_text("graph 2\nvertex 0\n")


def test_header_must_come_first():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph_text("edge 0 1 1 +\n")


def test_index_out_of_range():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph_text("graph 2\nedge 0 2 1 +\n")


def test_partial_marks_are_refused(tmp_path, capsys):
    # marks on some vertices used to mark the rest +1 without a word
    text = "graph 3\nmark 0 -\nedge 0 1 1 +\nedge 1 2 1 +\n"
    with pytest.raises(GraphFormatError, match="^line 1: marks must cover every vertex or none$"):
        parse_graph_text(text)
    path = tmp_path / "partial.graph"
    path.write_text(text, encoding="utf-8")
    assert run(["graph", str(path)]) == 2
    assert capsys.readouterr() == ("", "line 1: marks must cover every vertex or none\n")


def test_serialize_round_trip():
    g = SignedWeightedGraph(3, [(0, 1, 1.5, -1), (1, 2, 0.25, 1)],
                            labels=("00", "01", "10"), markings=(1, -1, 1))
    back = parse_graph_text(serialize_graph(g))
    assert back == g


# --- CSV ---------------------------------------------------------------------

def test_fmt_significant_digits():
    assert fmt(math.pi) == "3.14159265359"
    assert fmt(1.0) == "1"
    assert fmt(7) == "7"


def test_emit_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(0.0, 0.5, -1.25), (1.5, 1.0, 0.0)]
    emit_csv(rows, str(path), ["t", "magnitude", "phase"])
    header, data = read_csv(str(path))
    assert header == ["t", "magnitude", "phase"]
    got = [[float(x) for x in row] for row in data]
    np.testing.assert_allclose(got, rows)


def test_emit_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), ["a", "b"])
    assert path.read_text() == f"# {VERSION_COMMENT}\na,b\n"


def test_emit_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [(i * 0.1, math.sin(i)) for i in range(20)]
    emit_csv(rows, str(p1), ["t", "x"])
    emit_csv(rows, str(p2), ["t", "x"])
    assert p1.read_bytes() == p2.read_bytes()


# --- CLI ----------------------------------------------------------------------

def test_pst_k2(capsys):
    assert run(["pst", "--graph", "k2", "--from", "0", "--to", "1"]) == 0
    out = capsys.readouterr().out
    assert "best_time: 1.570796" in out


def test_pst_refusal_on_long_chain(capsys):
    assert run(["pst", "--graph", "p5", "--from", "0", "--to", "4"]) == 1


def test_pst_json(capsys):
    assert run(["pst", "--graph", "p3", "--from", "0", "--to", "2",
                "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rationality"] is True
    assert payload["best_time"] == pytest.approx(math.pi / math.sqrt(2), abs=1e-6)


def test_route_worked_example(capsys):
    assert run(["route", "--n", "31", "--from", "10100", "--to", "01011",
                "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [h["target"] for h in payload["hops"]] == ["00100", "01011"]
    assert payload["magnitude"] == pytest.approx(1.0, abs=1e-9)


def test_route_unknown_label_is_one_plain_line(capsys):
    assert run(["route", "--n", "2", "--from", "0", "--to", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no vertex labeled '0'\n"


def _python(*args, memory_limit=None, timeout=120):
    """Run python with this pstnet importable, optionally under an address-space cap."""
    src = str(Path(pstnet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout,
                          preexec_fn=cap if memory_limit else None)


def _python_m_pstnet(*args, memory_limit=None, timeout=120):
    return _python("-m", "pstnet", *args, memory_limit=memory_limit, timeout=timeout)


def test_import_loads_no_scipy():
    done = _python("-c", "import sys, pstnet; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_python_dash_m_runs_the_cli():
    done = _python_m_pstnet("route", "--n", "31", "--from", "10100", "--to", "01011")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == [
        "hop 1: 10100 -> 00100 (Q_1, t=1.57079632679, 74 edges off)",
        "hop 2: 00100 -> 01011 (Q_4, t=1.57079632679, 43 edges off)"]


def test_route_on_a_network_beyond_dense_reach():
    # a 20000 x 20000 adjacency alone would take 3 GiB, over the 2 GB cap;
    # the hops only touch a Q_8 and a Q_1
    done = _python_m_pstnet("route", "--n", "20000", "--from", "000000000000000",
                            "--to", "100111000011111", "--json",
                            memory_limit=2_000_000_000)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert [h["sub_dimension"] for h in payload["hops"]] == [8, 1]
    assert payload["magnitude"] == pytest.approx(1.0, abs=1e-12)


def test_pst_csv_on_q14_beyond_the_dense_limit(tmp_path):
    # the series walks Q_14 from vertex 0 (D = 15) under a 2 GB cap, where a
    # dense 16384 x 16384 solve was refused; <16383|U(t)|0> = (-i sin t)^14
    out = tmp_path / "q14.csv"
    done = _python_m_pstnet("pst", "--graph", "q14", "--from", "0", "--to", "16383",
                            "--csv", str(out), memory_limit=2_000_000_000)
    assert done.returncode == 0, done.stderr
    assert "best_time: 1.57079632679\n" in done.stdout
    header, rows = read_csv(str(out))
    assert header == ["t", "magnitude", "phase"] and len(rows) == 2001
    for t, magnitude, _ in rows:
        assert abs(float(magnitude) - abs(math.sin(float(t))) ** 14) <= 1e-12


def test_route_state_csv(tmp_path, capsys):
    out = tmp_path / "state.csv"
    assert run(["route", "--n", "8", "--from", "0000", "--to", "0111",
                "--csv", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["step", "vertex", "magnitude", "phase"]
    start = {r[1]: float(r[2]) for r in rows if r[0] == "0"}
    final = {r[1]: float(r[2]) for r in rows if r[0] == "1"}
    assert start["0000"] == pytest.approx(1.0)
    assert final["0111"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, src, dst", [
    (2, "00", "01"), (3, "10", "00"), (31, "10100", "01011"), (31, "01011", "01011"),
    (64, "0000000", "0111111"), (1000, "1111100111", "0000000001")])
def test_route_evolves_each_hop_once(monkeypatch, tmp_path, capsys, n, src, dst):
    network, labeling = build_network(n)
    u = labeling.index_of(src)
    plan = plan_route(network, labeling, u, labeling.index_of(dst))
    state = np.zeros(n, dtype=complex)
    state[u] = 1.0
    final, report = execute_route(network, plan, state)
    evolved = []
    honest = cli.execute_route

    def recorded(network, plan, state):
        evolved.extend(plan.hops)
        return honest(network, plan, state)
    monkeypatch.setattr(cli, "execute_route", recorded)
    out = tmp_path / "route.csv"
    assert run(["route", "--n", str(n), "--from", src, "--to", dst, "--json",
                "--csv", str(out)]) == 0
    assert evolved == list(plan.hops)
    payload = json.loads(capsys.readouterr().out)
    assert (payload["magnitude"], payload["phase"]) == (report.magnitude, report.phase)
    assert type(payload["total_time"]) is float   # 0.0, not 0, without hops
    _, rows = read_csv(str(out))
    assert [r[2:] for r in rows if r[0] == str(len(plan.hops))] == [
        [fmt(x) for x in polar(a)] for a in final]


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph 2\nedge 0 1 1 *\n", encoding="utf-8")
    assert run(["pst", "--graph", str(bad), "--from", "0", "--to", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run(["pst", "--graph", "zz9", "--from", "0", "--to", "1"]) == 2


def test_basis_cap_is_an_input_error(monkeypatch, capsys):
    # the verdict solves no n x n matrix, so the dense limit does not bind it
    monkeypatch.setattr(spectral, "DENSE_MAX_DIM", 8)
    assert run(["pst", "--graph", "q4", "--from", "0", "--to", "15"]) == 0
    assert "best_time: 1.57079632679\n" in capsys.readouterr().out
    # Q_4's walk module from 0 needs 5 vectors of length 16
    monkeypatch.setattr(spectral, "WALK_BASIS_MAX_ENTRIES", 4 * 16)
    assert run(["pst", "--graph", "q4", "--from", "0", "--to", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("walk module of vertex 0 needs more than 4 Lanczos "
                            "vectors of length 16, above the basis cap of 64 entries\n")


@pytest.mark.parametrize("src,dst,bad", [("-1", "1", "-1"), ("0", "5", "5")])
def test_pst_vertex_outside_graph_is_an_input_error(src, dst, bad, capsys):
    assert run(["pst", "--graph", "k2", "--from", src, "--to", dst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"vertex {bad} is outside 0..1\n"


@pytest.mark.parametrize("flags,bad", [
    (["--tmax", "inf"], "--tmax must be finite and >= 0, got inf"),
    (["--tmax", "nan"], "--tmax must be finite and >= 0, got nan"),
    (["--tmax", "-1"], "--tmax must be finite and >= 0, got -1.0"),
    (["--dt", "0"], "--dt must be finite and > 0, got 0.0"),
    (["--dt", "-1"], "--dt must be finite and > 0, got -1.0"),
    (["--dt", "inf"], "--dt must be finite and > 0, got inf"),
])
def test_pst_bad_scan_grid_is_an_input_error(flags, bad, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run(["pst", "--graph", "k2", "--from", "0", "--to", "1",
                "--csv", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", bad + "\n")
    assert not out.exists()


def test_unknown_flag_exit_code(capsys):
    assert run(["pst", "--graph", "k2", "--from", "0", "--to", "1",
                "--bogus"]) == 2


def test_chain_command(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    assert run(["chain", "--n", "12", "--csv", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-8)


def test_chain_unmodulated(capsys):
    assert run(["chain", "--n", "6", "--unmodulated", "--tmax", "50"]) == 0
    out = capsys.readouterr().out
    assert float(out.strip().split(",")[-1]) < 0.999


def test_unmodulated_chain_scan_ends_at_its_horizon(capsys):
    # P2's amplitude -i sin t rises on [0, 0.3]: the best time is 0.3 itself,
    # where the scan used to print 2,0.300002992934,0.295523065919
    assert run(["chain", "--n", "2", "--unmodulated", "--tmax", "0.3"]) == 0
    assert capsys.readouterr() == (f"2,0.3,{fmt(math.sin(0.3))}\n", "")


def test_unmodulated_chain_beyond_dense_reach_is_refused():
    # the scan walks the path from site 0; at the default --tmax 200 its tail
    # bound may need 1113 Lanczos vectors, and 10^5 x 1113 passes the 2^26 cap
    done = _python_m_pstnet("chain", "--n", "100000", "--unmodulated",
                            memory_limit=2_000_000_000)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("walk module of vertex 0 needs more than 671 Lanczos "
                           "vectors of length 100000, above the basis cap of "
                           "67108864 entries\n")


def test_unmodulated_chain_of_300_sites_matches_the_closed_form(capsys):
    n, t_max, dt = 300, 200.0, 0.002
    assert run(["chain", "--n", str(n), "--unmodulated"]) == 0
    size, t_star, f_star = (float(x) for x in capsys.readouterr().out.split(","))
    assert size == n

    def amplitude(t):
        """<n|exp(-iAt)|1> = 2/(n+1) sum_k sin(k th) sin(n k th) e^{-2it cos(k th)}."""
        theta = np.arange(1, n + 1) * math.pi / (n + 1)
        terms = np.sin(theta) * np.sin(n * theta) * 2.0 / (n + 1)
        return np.exp(-2j * np.outer(np.atleast_1d(t), np.cos(theta))) @ terms

    assert f_star == pytest.approx(abs(amplitude(t_star)[0]), abs=1e-11)
    grid = np.arange(0.0, t_max + dt, dt)
    assert np.max(np.abs(amplitude(grid))) <= f_star + 1e-11


def test_unmodulated_chain_refuses_an_unbounded_grid():
    # 10^11 points at dt = 0.01 used to end in a 745 GiB allocation traceback
    done = _python_m_pstnet("chain", "--n", "6", "--unmodulated", "--tmax", "1e9",
                            memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("scan of [0, 1000000000.0] at dt = 0.01 asks for more "
                           "than 10000000 time points\n")


@pytest.mark.parametrize("tmax", ["-1", "nan"])
def test_unmodulated_chain_refuses_a_bad_horizon(capsys, tmax):
    assert run(["chain", "--n", "6", "--unmodulated", "--tmax", tmax]) == 2
    assert capsys.readouterr().err == (f"scan t_max must be finite and >= 0, "
                                       f"got {float(tmax)}\n")


def test_unmodulated_chain_at_horizon_zero_scans_time_zero(capsys):
    # the default dt, min(0.01, t_max / 1e5), is 0 here; the scan takes 0.01
    assert run(["chain", "--n", "5", "--unmodulated", "--tmax", "0"]) == 0
    assert capsys.readouterr() == ("5,0,0\n", "")
    assert unmodulated_no_pst_scan(5, 0.0) == (0.0, 0.0)


def test_corona_command(tmp_path, capsys):
    seed = tmp_path / "seed.graph"
    seed.write_text(SQUARE_TEXT, encoding="utf-8")
    out = tmp_path / "scan.csv"
    assert run(["corona", "--seed", str(seed), "--pairs", "0,2", "--m", "1",
                "--csv", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["m", "u", "v", "t_star", "f_star", "provenance"]
    assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[1][4]) < 1.0


def test_corona_command_past_the_size_guard(tmp_path, capsys):
    # G^(10) of the signed square has 39 M vertices; its seed rows are 4096 terms
    seed = tmp_path / "seed.graph"
    seed.write_text(SQUARE_TEXT, encoding="utf-8")
    assert run(["corona", "--seed", str(seed), "--pairs", "0,2", "--m", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == [str(m) for m in range(11)]
    assert [line.split(",")[-1] for line in lines] == ["direct"] + ["recursion"] * 10


def test_corona_refuses_orders_above_the_recursion_cap(tmp_path, capsys):
    seed = tmp_path / "seed.graph"
    seed.write_text(SQUARE_TEXT, encoding="utf-8")
    assert run(["corona", "--seed", str(seed), "--pairs", "0,2", "--m", "19"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "corona order 19 needs 4 * 2^19 recursion terms, above the limit of 1048576\n")


@pytest.mark.parametrize("seed", ["c100000", "c8193"])
def test_corona_refuses_a_seed_past_the_dense_limit(seed):
    # the recursion solves the seed densely: C_100000 would ask for 80 GB
    done = _python_m_pstnet("corona", "--seed", seed, "--pairs", "0,1", "--m", "1",
                            memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"dense eigensolve of dimension {seed[1:]} exceeds "
                           f"the limit of 8192\n")


def test_corona_scan_maps_two_seed_rows_per_order():
    # 300 * 2^11 terms: all 300 seed rows would take 1.5 GB, the two scanned 10 MB
    done = _python("-c", "from pstnet.corona_lab import fidelity_vs_m; "
                         "from pstnet.graphs import cycle_graph; "
                         "rows = fidelity_vs_m(cycle_graph(300), (0, 150), 11, "
                         "t_max=0.0, dt=1.0).rows; "
                         "print(len(rows), rows[-1].provenance)",
                   memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "12 recursion\n", "")


def test_all_seed_rows_past_the_dense_memory_are_refused():
    done = _python("-c", "from pstnet.corona_lab import corona_seed_spectrum; "
                         "from pstnet.graphs import cycle_graph; "
                         "corona_seed_spectrum(cycle_graph(500), 11)",
                   memory_limit=1_000_000_000, timeout=60)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ValueError: corona order 11 needs 500 seed rows of 1024000 terms, "
        "above the limit of 67108864 entries")


def test_corona_refuses_a_negative_order(capsys):
    seed = Path(pstnet.__file__).parent / "data" / "corona_examples" / "example01.graph"
    assert run(["corona", "--seed", str(seed), "--pairs", "0,2", "--m", "-1"]) == 2
    assert capsys.readouterr() == ("", "order must be non-negative\n")


@pytest.mark.parametrize("pairs,chunk", [("0,1,2", "0,1,2"), ("0,1;", ""),
                                         ("0,x", "0,x"), ("0,1;2", "2")])
def test_corona_refuses_a_malformed_pair(pairs, chunk, capsys):
    assert run(["corona", "--seed", "k2", "--pairs", pairs, "--m", "1"]) == 2
    assert capsys.readouterr() == ("", f"pair {chunk!r} must be two vertex indices u,v\n")


def test_qudit_command(tmp_path, capsys):
    out = tmp_path / "prob.csv"
    assert run(["qudit", "--family", "cycle:2:0,1", "--target", "1",
                "--json", "--csv", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pst_condition"] is True
    header, rows = read_csv(str(out))
    for row in rows:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-9)


FAMILY_TEXT = ("family 2 1\n"
               "couplings 0 1\n"
               "matrix 0\n1 0\n0 1\n"
               "matrix 1\n0 1\n1 0\n")


def test_qudit_family_file(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text(FAMILY_TEXT, encoding="utf-8")
    assert run(["qudit", "--family", str(fam), "--target", "1"]) == 0


@pytest.mark.parametrize("text, message", [
    ("", "line 1: file ends, expected family <n> <d>"),
    ("family\n", "line 1: expected family <n> <d>"),
    ("family 3 1\n", "line 2: file ends, expected couplings <J_0> .. <J_1>"),
    ("family 2 x\n", "line 1: expected family <n> <d>"),
    ("family 2 -1\n", "line 1: family needs n >= 1 and d >= 0"),
    ("# two sites\nfamily 2 1\n\ncouplings 0\n",
     "line 4: expected couplings <J_0> .. <J_1>"),
    ("family 2 1\ncouplings 0 1\n", "line 3: file ends, expected matrix 0"),
    ("family 2 1\ncouplings 0 1\nmatrix 1\n", "line 3: expected matrix 0"),
    ("family 2 1\ncouplings 0 1\nmatrix 0\n1 0\nmatrix 1\n0 1\n1 0\n",
     "line 5: expected row 1 of matrix 0: 2 numbers"),
    ("family 2 1\ncouplings 0 1\nmatrix 0\n1 0\n0 1\nmatrix 1\n0 1\n",
     "line 8: file ends, expected row 1 of matrix 1: 2 numbers"),
    ("family 2 1\ncouplings 0 1\nmatrix 0\n1 0 0\n",
     "line 4: expected row 0 of matrix 0: 2 numbers"),
    (FAMILY_TEXT + "matrix 2\n", "line 9: unexpected content after matrix 1"),
])
def test_qudit_refuses_malformed_family_file(tmp_path, capsys, text, message):
    fam = tmp_path / "family.txt"
    fam.write_text(text, encoding="utf-8")
    assert run(["qudit", "--family", str(fam), "--target", "1"]) == 2
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("spec, n, d", [("cycle:1024", 1024, 512),
                                         ("complete:100000", 100000, 1),
                                         ("file", 4096, 1)])
def test_qudit_refuses_a_family_too_large_to_build(tmp_path, spec, n, d):
    # cycle:1024 alone would build 513 dense 1024 x 1024 matrices (4.3 GB)
    if spec == "file":
        spec = str(tmp_path / "family.txt")
        Path(spec).write_text(f"family {n} {d}\ncouplings 0 1\n", encoding="utf-8")
    done = _python_m_pstnet("qudit", "--family", spec, "--target", "1",
                            memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"family of {d + 1} matrices on {n} sites has "
                           f"{(d + 1) * n * n} entries, above the limit of 4194304\n")


def test_qudit_vanishing_amplitude_reads_zero(capsys):
    # |f| is about 3e-16 here, so its phase would be rounding noise
    assert run(["qudit", "--family", "cycle:4", "--target", "1", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"magnitude": 0.0, "phase": 0.0, "pst_condition": false, '
        '"t": 1.5707963267948966, "target": 1}\n')


@pytest.mark.parametrize("spec", ["cycle:4:0.3,x", "complete:3:1,,2", "cycle:4:0.3;1"])
def test_qudit_refuses_malformed_family_couplings(capsys, spec):
    assert run(["qudit", "--family", spec, "--target", "1"]) == 2
    kind = spec.split(":")[0]
    assert capsys.readouterr() == ("", f"--family must look like {kind}:<n>[:J0,J1,..] "
                                       f"with numbers J, got {spec!r}\n")


@pytest.mark.parametrize("spec, message", [
    ("cycle:4:nan,1,1", "coupling J_0 is not finite: nan"),
    ("complete:3:1,inf", "coupling J_1 is not finite: inf"),
    ("complete:0", "complete family needs at least 1 site"),
])
def test_qudit_refuses_a_bad_family_with_its_own_line(capsys, spec, message):
    assert run(["qudit", "--family", spec, "--target", "1"]) == 2
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("flag, value", [("--t", "nan"), ("--t", "inf"),
                                         ("--tmax", "nan"), ("--tmax", "-inf")])
def test_qudit_refuses_non_finite_times(tmp_path, capsys, flag, value):
    # the family path does not exist: the times are checked before it is read
    assert run(["qudit", "--family", str(tmp_path / "absent.txt"), "--target", "1",
                f"{flag}={value}", "--json"]) == 2
    assert capsys.readouterr() == ("", f"{flag} must be finite, got {float(value)}\n")


@pytest.mark.parametrize("samples", ["0", "-3", "1000001", "100000000"])
def test_qudit_csv_refuses_samples_outside_the_grid_bound(tmp_path, capsys, samples):
    # checked before the family is read or the grid allocated
    out = tmp_path / "prob.csv"
    assert run(["qudit", "--family", str(tmp_path / "absent.txt"), "--target", "1",
                "--samples", samples, "--csv", str(out)]) == 2
    assert capsys.readouterr() == ("", f"--samples must be in 1..1000000, got {samples}\n")
    assert not out.exists()


def test_qudit_csv_accepts_one_sample(tmp_path, capsys):
    out = tmp_path / "prob.csv"
    assert run(["qudit", "--family", "cycle:6", "--target", "3", "--samples", "1",
                "--tmax", "4", "--csv", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["t", "total_probability"] and [r[0] for r in rows] == ["0"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_transmon_cutoff(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    assert run(["transmon", "--config", str(cfg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_i"] == pytest.approx(-1.426, abs=0.05)


@pytest.mark.parametrize("flags, bounds", [
    (["--wc-min", "3.5", "--wc-max", "9"], "[3.5, 9.0]"),
    (["--wc-min", "4"], "[4.0, 9.0]"),
    (["--wc-min", "9", "--wc-max", "4.5"], "[9.0, 4.5]"),
    (["--wc-min", "nan"], "[nan, 9.0]"),
    (["--wc-max", "inf"], "[4.5, inf]"),
], ids=["across-pole", "at-pole", "decreasing", "nan", "inf"])
def test_transmon_refuses_a_coupler_range_it_cannot_bisect(tmp_path, capsys, flags, bounds):
    # across the pole at omega_i = 4 the bisection missed the cutoff at
    # 5.42586398654 (exit 1); nan and inf were printed as cutoffs (exit 0)
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    assert run(["transmon", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr() == ("", f"--wc-min/--wc-max: coupler range {bounds} must be "
                                       "positive, finite, increasing and clear of the poles "
                                       "omega_i = 4.0, omega_j = 4.0\n")


def test_transmon_without_a_sign_change_is_a_domain_refusal(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    assert run(["transmon", "--config", str(cfg), "--wc-min", "6"]) == 1
    assert capsys.readouterr() == ("", "no cutoff in range: coupling does not change sign\n")
    assert run(["transmon", "--config", str(cfg)]) == 0
    assert "omega_c_off: 5.42586398654\n" in capsys.readouterr().out


def test_transmon_refuses_a_decreasing_sweep(tmp_path, capsys):
    # it printed "swept 0 points" and wrote a header-only CSV
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert run(["transmon", "--config", str(cfg), "--sweep", "wc:9:4.5:0.5",
                "--csv", str(out)]) == 2
    assert capsys.readouterr() == ("", "--sweep 'wc:9:4.5:0.5' has lo 9.0 above hi 4.5\n")
    assert not out.exists()


def test_transmon_sweep(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert run(["transmon", "--config", str(cfg),
                "--sweep", "wc:4.5:9:0.5", "--csv", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["omega_c", "delta_i", "g_rwa", "g_brwa", "t_pst_ns"]
    signs = {math.copysign(1, float(r[3])) for r in rows}
    assert signs == {-1.0, 1.0}


@pytest.mark.parametrize("sweep, stuck_at", [
    ("wc:4.5:9:0", "4.5"),
    ("wc:4.5:9:0.0000000000004", "4.5"),
    # advances once onto the 12-decimal grid, then stops there
    ("wc:4.5000000000003:9:0.0000000000003", "4.500000000001"),
])
def test_transmon_refuses_a_sweep_step_that_does_not_advance(tmp_path, sweep, stuck_at):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    done = _python_m_pstnet("transmon", "--config", str(cfg), "--sweep", sweep,
                            memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    step = float(sweep.rsplit(":", 1)[1])
    assert done.stderr == (f"sweep step {step} does not advance omega_c past "
                           f"{stuck_at} at 12 decimals\n")


@pytest.mark.parametrize("sweep", ["wc:4.5.5:9:0.5", "wc:.:9:0.5", "wc:4.5:9", "wc:-1:9:0.5"])
def test_transmon_refuses_a_malformed_sweep(tmp_path, capsys, sweep):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    assert run(["transmon", "--config", str(cfg), "--sweep", sweep]) == 2
    assert capsys.readouterr() == ("", "--sweep must look like wc:<lo>:<hi>:<step> with "
                                       "decimal numbers, as in wc:4.5:9:0.01, "
                                       f"got {sweep!r}\n")


def test_transmon_refuses_a_sweep_of_too_many_points(tmp_path):
    # 4.5e12 points: about two years of coupler reports before the cap
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    done = _python_m_pstnet("transmon", "--config", str(cfg), "--sweep",
                            "wc:4.5:9:0.000000000001", "--csv", str(out),
                            memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("sweep step 1e-12 from 4.5 to 9.0 asks for more than "
                           "1000000 points\n")
    assert not out.exists()


def test_transmon_sweep_refuses_a_coupler_resonant_with_a_qubit(tmp_path):
    # the 11th point of 3.5..4.5 is omega_c = omega_i = 4, where g_brwa divides
    # by Delta_i = 0: this used to end in a ZeroDivisionError traceback, exit 1
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    done = _python_m_pstnet("transmon", "--config", str(cfg), "--sweep",
                            "wc:3.5:4.5:0.05", "--csv", str(out), timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("coupler at omega_c = 4.0 is resonant with qubit i "
                           "(omega_i = 4.0): the dispersive couplings diverge there\n")
    assert not out.exists()


def test_pst_refuses_a_csv_grid_of_too_many_points(tmp_path):
    # 10^12 + 1 rows used to end in a MemoryError traceback with exit 1
    out = tmp_path / "o.csv"
    done = _python_m_pstnet("pst", "--graph", "k2", "--from", "0", "--to", "1",
                            "--csv", str(out), "--tmax", "1e9", "--dt", "1e-3",
                            memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("--tmax 1000000000.0 and --dt 0.001 ask for more than "
                           "1000000 time points\n")
    assert not out.exists()


def test_pst_refuses_a_walk_time_past_two_to_the_53(tmp_path, capsys):
    # |t| ||M||_1 = 1.4e308 on Q_14 used to end in a "math domain error"
    # traceback with exit 1
    out = tmp_path / "o.csv"
    assert run(["pst", "--graph", "q14", "--from", "0", "--to", "1", "--tmax", "1e307",
                "--dt", "1e302", "--csv", str(out)]) == 2
    assert capsys.readouterr() == ("", "walk amplitude at |t| ||M||_1 = 1.4e+308 is "
                                       "refused: past 2^53 its phase has no digit "
                                       "below a radian\n")
    assert not out.exists()


def test_pst_csv_builds_one_walk_module(tmp_path, capsys, monkeypatch):
    # the rows come from the module the verdict closed, not a second Lanczos run
    calls = []
    real = spectral.walk_spectrum

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "walk_spectrum", counted)
    out = tmp_path / "o.csv"
    assert run(["pst", "--graph", "q4", "--from", "0", "--to", "15",
                "--csv", str(out)]) == 0
    assert calls == [(0, 15)]
    assert len(read_csv(str(out))[1]) == 2001


def test_pst_csv_on_q14_answers_a_long_grid(tmp_path, capsys):
    # Q_14's module from 0 closes at D = 15, so every row of a grid to
    # t = 1000 comes from it; <16383|U(t)|0> = (-i sin t)^14
    out = tmp_path / "q14.csv"
    assert run(["pst", "--graph", "q14", "--from", "0", "--to", "16383",
                "--tmax", "1000", "--csv", str(out)]) == 0
    assert "best_time: 1.57079632679\n" in capsys.readouterr().out
    rows = np.array(read_csv(str(out))[1], dtype=float)
    assert len(rows) == 100001
    np.testing.assert_allclose(rows[:, 1], np.abs(np.sin(rows[:, 0])) ** 14,
                               rtol=0, atol=1e-9)


def test_pst_csv_on_a_small_graph_refuses_a_time_past_two_to_the_53(tmp_path, capsys):
    # P_5 fits any basis, yet its rows at |t| ||M||_1 = 2e307 were phase noise
    out = tmp_path / "o.csv"
    assert run(["pst", "--graph", "p5", "--from", "0", "--to", "4", "--tmax", "1e307",
                "--dt", "1e302", "--csv", str(out)]) == 2
    assert capsys.readouterr() == ("", "walk amplitude at |t| ||M||_1 = 2e+307 is "
                                       "refused: past 2^53 its phase has no digit "
                                       "below a radian\n")
    assert not out.exists()


def test_qudit_refuses_a_time_past_two_to_the_53(capsys):
    # the all-ones family on 5 sites has eigenvalues 5 and 0; at t = 1e300
    # it printed magnitude 0.5132, phase noise, and exited 0
    assert run(["qudit", "--family", "cycle:5", "--target", "1", "--t", "1e300",
                "--json"]) == 2
    assert capsys.readouterr() == ("", "walk amplitude at |t| ||M||_1 = 5e+300 is "
                                       "refused: past 2^53 its phase has no digit "
                                       "below a radian\n")


@pytest.mark.parametrize("args,line", [
    (["route", "--n", "1048577", "--from", "0", "--to", "1"],
     "network of order 1048577 has more vertices than Q_20 (1048576)"),
    (["chain", "--n", "1000000000"],
     "chain of 1000000000 sites has more edges than Q_20 (10485760), the largest builtin"),
    (["chain", "--n", "1000000000", "--unmodulated"],
     "chain of 1000000000 sites has more edges than Q_20 (10485760), the largest builtin"),
], ids=["route", "chain", "chain-unmodulated"])
def test_sizes_past_q20_are_refused_before_allocation(args, line):
    # under a 1 GB cap these used to end in a MemoryError traceback
    done = _python_m_pstnet(*args, memory_limit=1_000_000_000, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", line + "\n")


@pytest.mark.parametrize("tmax, rows", [("0.7", 8), ("0.3", 4), ("0.65", 7), ("0", 1)])
def test_pst_csv_keeps_the_row_at_tmax(tmp_path, capsys, tmax, rows):
    # 0.7 / 0.1 is 6.999999999999999 in doubles: int() dropped the row at 0.7
    out = tmp_path / "o.csv"
    assert run(["pst", "--graph", "p4", "--from", "0", "--to", "3", "--tmax", tmax,
                "--dt", "0.1", "--csv", str(out)]) == 1
    times = [row[0] for row in read_csv(str(out))[1]]
    assert times == [fmt(k * 0.1) for k in range(rows)]
    assert float(times[-1]) <= float(tmax) + 1e-12


def test_pst_csv_grid_at_the_cap_is_written(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
    out = tmp_path / "o.csv"
    args = ["pst", "--graph", "k2", "--from", "0", "--to", "1", "--csv", str(out)]
    assert run(args + ["--tmax", "1", "--dt", "0.1"]) == 0
    assert len(read_csv(str(out))[1]) == 11
    assert run(args + ["--tmax", "1.1", "--dt", "0.1"]) == 2


def test_transmon_refuses_deleted_anharmonicity_keys(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\nalpha_i = -0.2\n", encoding="utf-8")
    assert run(["transmon", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "line 10: unknown key 'alpha_i'\n")


def test_graph_summary(capsys):
    assert run(["graph", "q3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 8
    assert payload["edges"] == 12
    assert payload["balanced"] is True


@pytest.mark.parametrize("spec", ["k100000", "p100000000", "q21", "c10485761"])
def test_graph_refuses_a_builtin_larger_than_the_largest_hypercube(spec):
    # k100000 alone would ask for 9.31 GiB; the refusal allocates nothing
    done = _python_m_pstnet("graph", spec, "--json", memory_limit=2_000_000_000)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"builtin {spec} has more edges than Q_20 (10485760), "
                           "the largest builtin\n")


def test_cli_outputs_are_deterministic(tmp_path):
    args = ["pst", "--graph", "p3", "--from", "0", "--to", "2",
            "--tmax", "5", "--dt", "0.1"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--csv", str(p1)]) == 0
    assert run(args + ["--csv", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
