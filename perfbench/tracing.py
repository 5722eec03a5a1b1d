"""Span recorder for the traced run.

install() wraps the public functions listed in LAYERS wherever a pstnet
module, or numpy.linalg for eigh, holds a reference to them. Each wrapper
records a span (name, start, end, parent) and updates that layer's
counters. A call that re-enters the layer it is already in (graph_matrix
calling laplacian calling adjacency) records nothing, so a layer's calls,
counted as its spans, are the calls made into it from outside. Spans stay
in memory until
write() puts them in a file; layer_metrics() reports each layer's self
time, its span time minus the time of the spans it caused.

Counters that cost real time (hashing a matrix to spot a repeated
eigensolve) are timed as 'bench.count' spans, so no layer is charged for
them; they are part of the tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (metric, unit, better), in BENCHMARK.json order
PER_LAYER = (
    ("routing.build_s", "s", "lower"),
    ("routing.plan_s", "s", "lower"),
    ("routing.plan_calls", "count", "lower"),
    ("routing.off_edges", "count", "lower"),
    ("routing.route_p50_ms", "ms", "lower"),
    ("routing.route_p99_ms", "ms", "lower"),
    ("routing.execute_s", "s", "lower"),
    ("routing.hops", "count", "lower"),
    ("routing.hop_vertices", "count", "lower"),
    ("spectral.eigh_calls", "count", "lower"),
    ("spectral.eigh_s", "s", "lower"),
    ("spectral.eigh_dim_max", "count", "lower"),
    ("spectral.eigh_flops", "flop", "lower"),
    ("spectral.eigh_repeat", "count", "lower"),
    ("spectral.transfer_s", "s", "lower"),
    ("spectral.transfer_calls", "count", "lower"),
    ("spectral.verdict_s", "s", "lower"),
    ("spectral.verdict_calls", "count", "lower"),
    ("spectral.scan_s", "s", "lower"),
    ("spectral.scan_points", "count", "lower"),
    ("spectral.refine_calls", "count", "lower"),
    ("graphs.matrix_s", "s", "lower"),
    ("graphs.matrix_calls", "count", "lower"),
    ("graphs.matrix_bytes", "B", "lower"),
    ("graphs.construct_s", "s", "lower"),
    ("graphs.construct_calls", "count", "lower"),
    ("graphs.edges_built", "count", "lower"),
    ("fileio.parse_s", "s", "lower"),
    ("corona_lab.fidelity_vs_m_s", "s", "lower"),
    ("corona_lab.eigenpairs_s", "s", "lower"),
    ("corona_lab.iterate_s", "s", "lower"),
    ("corona_lab.all_pairs_s", "s", "lower"),
    ("corona_lab.theorem_rows", "count", "higher"),
    ("corona_lab.direct_rows", "count", "lower"),
    ("corona_lab.dim_max", "count", "lower"),
    ("chains.scan_s", "s", "lower"),
    ("chains.verify_s", "s", "lower"),
)

COUNT_SPAN = "bench.count"
# grid of check_pst_conditions' period scan: max(4096, 64 * support size)
VERDICT_GRID_MIN, VERDICT_GRID_PER_EIGENVALUE = 4096, 64


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_plan(c, args, kwargs, plan):
    c["routing.off_edges"] += sum(len(h.plan.off_edges) for h in plan.hops)


def _count_execute(c, args, kwargs, result):
    plan = _arg(args, kwargs, 1, "plan")
    c["routing.hops"] += len(plan.hops)
    c["routing.hop_vertices"] += sum(len(h.plan.keep_vertices) for h in plan.hops)


def _count_verdict(c, args, kwargs, rep):
    support = len(rep.support_eigenvalues)
    if rep.rationality and rep.best_time is not None and support >= 2:
        c["spectral.scan_points"] += max(VERDICT_GRID_MIN,
                                         VERDICT_GRID_PER_EIGENVALUE * support)


def _count_scan(c, args, kwargs, result):
    t_max, dt = _arg(args, kwargs, 3, "t_max"), _arg(args, kwargs, 4, "dt")
    c["spectral.scan_points"] += len(np.arange(0.0, t_max + dt, dt))


def _count_matrix(c, args, kwargs, m):
    c["graphs.matrix_bytes"] += 8 * m.shape[0] * m.shape[1]


def _count_construct(c, args, kwargs, g):
    c["graphs.edges_built"] += g.edge_count


def _count_rows(c, args, kwargs, table):
    for row in table.rows:
        c["corona_lab.theorem_rows" if row.provenance == "theorem"
          else "corona_lab.direct_rows"] += 1


def _max_dim(c, dim):
    c["corona_lab.dim_max"] = max(c["corona_lab.dim_max"], dim)


def _count_eigenpairs(c, args, kwargs, pairs):
    if pairs:
        _max_dim(c, len(pairs[0].vector))


def _count_iterate(c, args, kwargs, g):
    _max_dim(c, g.vertex_count)


def _count_all_pairs(c, args, kwargs, best):
    _max_dim(c, best.shape[0])


# (span name, module, public functions, counter, counter is costly)
LAYERS = (
    ("routing.build", "pstnet.routing", ("build_network",), None, False),
    ("routing.plan", "pstnet.routing", ("plan_route",), _count_plan, False),
    ("routing.execute", "pstnet.routing", ("execute_route",), _count_execute, False),
    ("spectral.eigh", "numpy.linalg", ("eigh",), None, True),
    ("spectral.transfer", "pstnet.spectral", ("transfer_amplitude",), None, False),
    ("spectral.verdict", "pstnet.spectral", ("check_pst_conditions",), _count_verdict, False),
    ("spectral.scan", "pstnet.spectral", ("max_fidelity_scan", "max_fidelity_scan_spectrum"),
     _count_scan, False),
    ("graphs.matrix", "pstnet.graphs",
     ("adjacency", "laplacian", "signless_laplacian", "degree_matrix", "graph_matrix"),
     _count_matrix, False),
    ("graphs.construct", "pstnet.graphs",
     ("make_graph", "path_graph", "complete_graph", "cycle_graph", "hypercube", "cartesian",
      "corona", "disjoint_union", "add_isolated", "induced_subgraph"),
     _count_construct, False),
    ("fileio.parse", "pstnet.fileio", ("parse_graph_file", "parse_graph_text"), None, False),
    ("corona_lab.fidelity_vs_m", "pstnet.corona_lab", ("fidelity_vs_m",), _count_rows, False),
    ("corona_lab.eigenpairs", "pstnet.corona_lab",
     ("corona_adjacency_eigenpairs", "corona_laplacian_eigenpairs"), _count_eigenpairs, False),
    ("corona_lab.iterate", "pstnet.corona_lab", ("iterate_corona",), _count_iterate, False),
    ("corona_lab.all_pairs", "pstnet.corona_lab", ("all_pairs_max_fidelity",),
     _count_all_pairs, False),
    ("chains.scan", "pstnet.chains", ("unmodulated_no_pst_scan",), None, False),
    ("chains.verify", "pstnet.chains", ("chain_pst_verify",), None, False),
)
# counted, not timed: scipy's minimize_scalar where pstnet.spectral calls it
REFINE = ("spectral.refine_calls", "pstnet.spectral", "minimize_scalar")


class Recorder:
    """Spans [name, start, end, parent index] and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solved: set = set()
        self.enabled = True

    def wrap(self, name, fn, count, costly):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (self.stack and self.spans[self.stack[-1]][0] == name):
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = [name, perf_counter(), 0.0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if costly:
                start = perf_counter()
                self.count_eigh(args[0])
                self.spans.append([COUNT_SPAN, start, perf_counter(), parent])
            elif count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def count_eigh(self, m):
        m = np.ascontiguousarray(m)
        c = self.counts
        c["spectral.eigh_dim_max"] = max(c["spectral.eigh_dim_max"], m.shape[0])
        c["spectral.eigh_flops"] += m.shape[0] ** 3
        key = (m.shape, m.dtype.str, hashlib.blake2b(m.tobytes(), digest_size=16).digest())
        if key in self.solved:
            c["spectral.eigh_repeat"] += 1
        self.solved.add(key)

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: the summed span time minus the time of the spans it caused."""
        caused = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                caused[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - caused[i]
        return totals

    def layer_metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER metric: self times, span counts as calls, counters, extras."""
        values = {f"{name}_s": t for name, t in self.self_times().items()}
        for name, *_ in self.spans:
            values[f"{name}_calls"] = values.get(f"{name}_calls", 0) + 1
        values.update(self.counts)
        values.update(extra)
        return {metric: values.get(metric, 0) for metric, _, _ in PER_LAYER}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _replace_everywhere(fn, wrapper) -> None:
    """Point every pstnet module attribute, and numpy.linalg's, that is fn at wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "pstnet" or mod_name.startswith("pstnet.")
                                  or mod_name == "numpy.linalg"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every function in LAYERS (and count REFINE) for this process."""
    for name, mod_name, functions, count, costly in LAYERS:
        module = importlib.import_module(mod_name)
        for fn_name in functions:
            fn = getattr(module, fn_name, None)
            if fn is not None:
                _replace_everywhere(fn, rec.wrap(name, fn, count, costly))
    metric, mod_name, fn_name = REFINE
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if fn is not None:
        _replace_everywhere(fn, rec.counter(metric, fn))
