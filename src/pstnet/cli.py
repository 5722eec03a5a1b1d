"""Command-line front door.

One binary, subcommand style; numeric output is fixed at 12 significant
digits so identical inputs give byte-identical files.  Exit codes:
0 success, 1 domain refusal (for instance PST impossible or no coupler
cutoff in range), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .chains import chain_pst_verify, pst_chain, unmodulated_no_pst_scan
from .corona_lab import fidelity_vs_m, net_regularity
from .fileio import (VERSION_COMMENT, GraphFormatError, emit_csv, fmt,
                     parse_graph_file)
from .graphs import (MAX_HYPERCUBE_DIM, MarkingScheme, SignedWeightedGraph,
                     complete_graph, cycle_graph, hypercube, is_balanced, path_graph)
from .qudit import (check_family_size, commuting_family, complete_family,
                    cycle_family, family_spectrum, transfer_amplitude_qudit)
from .routing import HopPlan, build_network, execute_route, plan_route
from .spectral import check_pst_conditions, grid_steps, polar
from .transmon import (NoCutoffError, coupling_report, find_cutoff,
                       parse_coupler_config, pst_time)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
# most rows a time grid (pst --csv, qudit --csv) or a coupler sweep
# (transmon --sweep) may ask for
MAX_GRID_POINTS = 1_000_000


def _check_edges(what: str, edges: int) -> None:
    most = MAX_HYPERCUBE_DIM << MAX_HYPERCUBE_DIM >> 1
    if edges > most:
        raise ValueError(f"{what} has more edges than Q_{MAX_HYPERCUBE_DIM} "
                         f"({most}), the largest builtin")


def _load_graph(spec: str) -> SignedWeightedGraph:
    """A file path, or a builtin name kN, pN, qN, cN with at most Q_20's edges."""
    if os.path.exists(spec):
        return parse_graph_file(spec)
    m = re.fullmatch(r"([kpqc])(\d+)", spec.lower())
    if not m:
        raise GraphFormatError(1, f"no such file or builtin graph: {spec!r}")
    kind, num = m.group(1), int(m.group(2))
    # a huge qN shifts by at most 21 bits, still giving more than Q_20's edges
    edges = {"k": num * (num - 1) // 2, "p": num - 1, "c": num,
             "q": num << min(num, MAX_HYPERCUBE_DIM + 1) >> 1}[kind]
    _check_edges(f"builtin {spec}", edges)
    if kind == "k":
        return complete_graph(num)
    if kind == "p":
        return path_graph(num)
    if kind == "q":
        return hypercube(num)
    return cycle_graph(num)


def _print_payload(payload: dict, as_json: bool) -> None:
    """One JSON line, or `key: value` lines in key order with floats through `fmt`."""
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    for key in sorted(payload):
        val = payload[key]
        print(f"{key}: {fmt(val) if isinstance(val, float) else val}")


def _cmd_graph(args) -> int:
    g = _load_graph(args.graph)
    balanced, _ = is_balanced(g)
    info = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "balanced": balanced,
        "net_regularity": net_regularity(g),
        "has_labels": g.labels is not None,
        "has_markings": g.markings is not None,
    }
    _print_payload(info, args.json)
    return EXIT_OK


def _cmd_pst(args) -> int:
    if not (math.isfinite(args.tmax) and args.tmax >= 0):
        raise ValueError(f"--tmax must be finite and >= 0, got {args.tmax}")
    if not (math.isfinite(args.dt) and args.dt > 0):
        raise ValueError(f"--dt must be finite and > 0, got {args.dt}")
    last = grid_steps(args.tmax, args.dt, MAX_GRID_POINTS)
    if args.csv and last >= MAX_GRID_POINTS:
        raise ValueError(f"--tmax {args.tmax} and --dt {args.dt} ask for more than "
                         f"{MAX_GRID_POINTS} time points")
    g = _load_graph(args.graph)
    rep = check_pst_conditions(g, args.src, args.dst, matrix_kind=args.matrix)
    payload = {
        "vector_condition": rep.vector_condition,
        "eigenvalue_condition": rep.eigenvalue_condition,
        "rationality": rep.rationality,
        "best_time": rep.best_time,
        "best_magnitude": rep.best_magnitude,
    }
    if args.csv:
        ts = [i * args.dt for i in range(last + 1)]
        rows = [(t, *polar(a)) for t, a in zip(ts, rep.walk.amplitude(np.array(ts)))]
        emit_csv(rows, args.csv, ["t", "magnitude", "phase"])
    _print_payload(payload, args.json)
    if not (rep.eigenvalue_condition and rep.vector_condition):
        print("PST impossible for this pair", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


def _cmd_route(args) -> int:
    network, labeling = build_network(args.n)
    try:
        u = labeling.index_of(args.src)
        w = labeling.index_of(args.dst)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)   # str() of a KeyError quotes it
        return EXIT_INPUT
    plan = plan_route(network, labeling, u, w)
    state = np.zeros(network.vertex_count, dtype=complex)
    state[u] = 1.0
    # the initial state, then the state after each hop, each hop evolved
    # once; the report is that of no evolution until a hop replaces it
    snapshots, report = [state], execute_route(network, HopPlan(()), state)[1]
    for hop in plan.hops:
        final, report = execute_route(network, HopPlan((hop,)), snapshots[-1])
        snapshots.append(final)
    payload = {
        "hops": [
            {
                "source": labeling.labels[h.source],
                "target": labeling.labels[h.target],
                "duration": h.duration,
                "sub_dimension": h.plan.sub_dimension,
                "off_edges": len(h.plan.off_edges),
            }
            for h in plan.hops
        ],
        "total_time": plan.total_time,
        "magnitude": report.magnitude,
        "phase": report.phase,
    }
    if args.csv:
        # one block of rows per evolution step
        rows = [(step, labeling.labels[v], *polar(snapshot[v]))
                for step, snapshot in enumerate(snapshots)
                for v in range(network.vertex_count)]
        emit_csv(rows, args.csv, ["step", "vertex", "magnitude", "phase"])
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for i, h in enumerate(payload["hops"], start=1):
            print(f"hop {i}: {h['source']} -> {h['target']} "
                  f"(Q_{h['sub_dimension']}, t={fmt(h['duration'])}, "
                  f"{h['off_edges']} edges off)")
        print(f"total_time: {fmt(payload['total_time'])}")
        print(f"magnitude: {fmt(payload['magnitude'])}")
    if report.magnitude < 1.0 - 1e-8:
        print("routing failed to reach unit fidelity", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


def _cmd_chain(args) -> int:
    _check_edges(f"chain of {args.n} sites", args.n - 1)
    if args.unmodulated:
        t_star, f_star = unmodulated_no_pst_scan(args.n, args.tmax)
        rows = [(args.n, t_star, f_star)]
        header = ["n", "t_star", "f_star"]
    else:
        t = math.pi / 2.0
        rows = [(args.n, t, chain_pst_verify(pst_chain(args.n), t).magnitude)]
        header = ["n", "t", "magnitude"]
    if args.csv:
        emit_csv(rows, args.csv, header)
    for row in rows:
        print(",".join(fmt(x) for x in row))
    return EXIT_OK


def _cmd_corona(args) -> int:
    seed = _load_graph(args.seed)
    pairs = []
    for chunk in args.pairs.split(";"):
        try:
            u, v = map(int, chunk.split(","))
        except ValueError:
            raise ValueError(f"pair {chunk!r} must be two vertex indices u,v") from None
        pairs.append((u, v))
    scheme = MarkingScheme(args.scheme)
    rows = []
    for pair in pairs:
        table = fidelity_vs_m(seed, pair, args.m, matrix_kind=args.matrix,
                              scheme=scheme)
        for r in table.rows:
            rows.append((r.m, *pair, r.t_star, r.f_star, r.provenance))
    header = ["m", "u", "v", "t_star", "f_star", "provenance"]
    if args.csv:
        emit_csv(rows, args.csv, header)
    for row in rows:
        print(",".join(fmt(x) for x in row))
    return EXIT_OK


def _parse_family(spec: str):
    m = re.fullmatch(r"(cycle|complete):(\d+)(?::(.*))?", spec)
    if m:
        n = int(m.group(2))
        couplings = None
        if m.group(3):
            try:
                couplings = [float(x) for x in m.group(3).split(",")]
            except ValueError:
                raise ValueError(f"--family must look like {m.group(1)}:<n>[:J0,J1,..] "
                                 f"with numbers J, got {spec!r}") from None
        return (cycle_family if m.group(1) == "cycle" else complete_family)(n, couplings)
    return _parse_family_file(spec)


def _parse_family_file(path: str):
    """`family <n> <d>`, `couplings <J_0> .. <J_d>`, then for k = 0..d a line
    `matrix <k>` and n rows of n numbers; `#` starts a comment.  A malformed
    file raises ValueError("line N: ..."), a family too large for
    `check_family_size` ValueError before any matrix is read."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.readlines()
    lines = [(no, toks) for no, raw in enumerate(text, start=1)
             if (toks := raw.split("#", 1)[0].split())]
    pending = iter(lines)

    def take(expected: str, head: str | None, count: int, kind=float):
        """The next line's number and its values after `head`, or ValueError."""
        no, toks = next(pending, (len(text) + 1, None))
        if toks is None:
            raise ValueError(f"line {no}: file ends, expected {expected}")
        if len(toks) != count or (head is not None and toks[0] != head):
            raise ValueError(f"line {no}: expected {expected}")
        try:
            return no, [kind(x) for x in toks[0 if head is None else 1:]]
        except ValueError:
            raise ValueError(f"line {no}: expected {expected}") from None

    no, (n, d) = take("family <n> <d>", "family", 3, int)
    if n < 1 or d < 0:
        raise ValueError(f"line {no}: family needs n >= 1 and d >= 0")
    check_family_size(n, d)
    _, couplings = take(f"couplings <J_0> .. <J_{d}>", "couplings", d + 2)
    mats = []
    for k in range(d + 1):
        no, index = take(f"matrix {k}", "matrix", 2, int)
        if index != [k]:
            raise ValueError(f"line {no}: expected matrix {k}")
        mats.append(np.array([take(f"row {r} of matrix {k}: {n} numbers", None, n)[1]
                              for r in range(n)]))
    extra = next(pending, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: unexpected content after matrix {d}")
    return commuting_family(mats, couplings)


def _cmd_qudit(args) -> int:
    for flag, value in (("--t", args.t), ("--tmax", args.tmax)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.csv and not 1 <= args.samples <= MAX_GRID_POINTS:
        raise ValueError(f"--samples must be in 1..{MAX_GRID_POINTS}, got {args.samples}")
    family = _parse_family(args.family)
    f = transfer_amplitude_qudit(family, args.target, args.t)
    magnitude, phase = polar(f)
    payload = {
        "target": args.target,
        "t": args.t,
        "magnitude": magnitude,
        "phase": phase,
        "pst_condition": abs(abs(f) - 1.0) <= 1e-8,
    }
    if args.csv:
        spec = family_spectrum(family)
        start = np.eye(family.site_count)[0]
        rows = [(float(t), float(np.sum(np.abs(spec.apply(t, start)) ** 2)))
                for t in np.linspace(0.0, args.tmax, args.samples)]
        emit_csv(rows, args.csv, ["t", "total_probability"])
    _print_payload(payload, args.json)
    return EXIT_OK


def _sweep_points(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, .. up to hi, each rounded to 12 decimals; ValueError for
    a step that does not advance there or for more than MAX_GRID_POINTS."""
    points = []
    wc = lo
    while wc <= hi + 1e-12:
        if len(points) == MAX_GRID_POINTS:
            raise ValueError(f"sweep step {step} from {lo} to {hi} asks for more "
                             f"than {MAX_GRID_POINTS} points")
        points.append(wc)
        advanced = round(wc + step, 12)
        if advanced <= wc:
            raise ValueError(f"sweep step {step} does not advance omega_c "
                             f"past {wc} at 12 decimals")
        wc = advanced
    return points


def _cmd_transmon(args) -> int:
    cfg = parse_coupler_config(args.config)
    if args.sweep:
        number = r"(\d+\.?\d*|\.\d+)"
        m = re.fullmatch(f"wc:{number}:{number}:{number}", args.sweep)
        if not m:
            raise ValueError(f"--sweep must look like wc:<lo>:<hi>:<step> with decimal "
                             f"numbers, as in wc:4.5:9:0.01, got {args.sweep!r}")
        lo, hi, step = (float(x) for x in m.groups())
        if lo > hi:
            raise ValueError(f"--sweep {args.sweep!r} has lo {lo} above hi {hi}")
        rows = []
        for wc in _sweep_points(lo, hi, step):
            rep = coupling_report(cfg.with_coupler_frequency(wc))
            t = pst_time(rep.g_brwa) if rep.g_brwa else math.inf
            rows.append((wc, rep.delta_i, rep.g_rwa, rep.g_brwa, t))
        if args.csv:
            emit_csv(rows, args.csv, ["omega_c", "delta_i", "g_rwa", "g_brwa",
                                      "t_pst_ns"])
        print(f"swept {len(rows)} points "
              "(angular-GHz convention: g in rad/ns, t in ns)")
        return EXIT_OK
    try:
        cut = find_cutoff(cfg, (args.wc_min, args.wc_max))
    except NoCutoffError as exc:
        print(exc, file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        raise ValueError(f"--wc-min/--wc-max: {exc}") from None
    payload = {
        "omega_c_off": cut.omega_c_off,
        "delta_i": cut.delta_i,
        "residual": cut.residual,
    }
    _print_payload(payload, args.json)
    if not args.json:
        print("convention: angular frequencies in GHz (rad/ns)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pstnet")
    parser.add_argument("--version", action="version", version=VERSION_COMMENT)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="summarize a graph file or builtin")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("pst", help="PST conditions and transfer scan")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--matrix", choices=["adjacency", "laplacian"],
                   default="adjacency")
    p.add_argument("--tmax", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pst)

    p = sub.add_parser("route", help="two-hop routing on a built network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("chain", help="engineered or uniform chain transfer")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--unmodulated", action="store_true")
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("corona", help="fidelity vs corona order")
    p.add_argument("--seed", required=True)
    p.add_argument("--pairs", required=True,
                   help="semicolon-separated u,v pairs, e.g. 0,2;1,3")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--matrix", choices=["adjacency", "laplacian"],
                   default="adjacency")
    p.add_argument("--scheme", choices=["canonical", "plurality", "explicit"],
                   default="canonical")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_corona)

    p = sub.add_parser("qudit", help="qudit transfer on a commuting family")
    p.add_argument("--family", required=True,
                   help="family file, or cycle:<n>[:J0,..] / complete:<n>[:J0,..]")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--t", type=float, default=math.pi / 2.0)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qudit)

    p = sub.add_parser("transmon", help="tunable-coupler report and sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", help="wc:<lo>:<hi>:<step>")
    p.add_argument("--wc-min", type=float, default=4.5)
    p.add_argument("--wc-max", type=float, default=9.0)
    p.add_argument("--csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_transmon)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphFormatError, FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
