"""One workload in one process: set-up, timed rounds, then the checks.

Started by run.py, which times the process from its start. Prints one JSON
line of raw measurements. With --setup-only it stops at the first timed
operation; with --trace 1 it runs the untraced rounds, then builds the
inputs again and runs one more round under the span recorder.

A speed probe runs right after set-up, and the set-up time is scaled by its
time. On the workloads in workloads.SPEED_PROBED it also runs between
operations, and ops_per_s is scaled by its time (see rate() and README).
"""

import os
import sys

BLAS_THREADS = "1"   # pinned before numpy loads; see README
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
PROBE_EVERY_S = 0.1   # operation time between two speed probes
PROBE_REF_S = 0.013   # the probe's median time on the reference machine; fixed
SETUP_PROBES = 5      # probes run right after set-up, to scale setup_s


class Raised:
    """Output of an operation that raised; it counts as failed."""

    def __init__(self, text: str):
        self.text = text


def make_probe(np):
    """The speed probe: a fixed mix of interpreter work, small eigensolves and
    one 192 x 192 eigensolve, the kinds of work route and verdict do. It
    calls no pstnet code, so only the machine changes its time. Returns a
    function that runs it once and returns its seconds."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((16, 16))
    small += small.T
    mid = rng.standard_normal((192, 192))
    mid += mid.T
    eigh = np.linalg.eigh   # taken before a traced run wraps it

    def probe() -> float:
        t0 = time.perf_counter()
        total, table, ones = 0, {}, []
        for i in range(15000):
            total += i * i % 7
            table[str(i & 255)] = total
            if i & 15 == 0:
                ones.append(str(i).count("1"))
        for _ in range(30):
            w, v = eigh(small)
            v @ np.exp(-1j * w)
        eigh(mid)
        return time.perf_counter() - t0

    return probe


def run_round(ops, probe=None) -> tuple[list, list[float], float, list[float]]:
    """Run every operation once: (outputs, op seconds, round seconds, probe
    seconds). With a probe, it runs before the first operation and again
    after each PROBE_EVERY_S of operation time; its time is not round time."""
    outputs, op_seconds, probe_seconds = [], [], []
    since_probe = PROBE_EVERY_S
    start = time.perf_counter()
    for op in ops:
        if probe and since_probe >= PROBE_EVERY_S:
            probe_seconds.append(probe())
            since_probe = 0.0
        t0 = time.perf_counter()
        try:
            out = op.run(*op.args)
        except Exception:   # a program error is a failed operation, not a crash
            out = Raised(traceback.format_exc())
        op_seconds.append(time.perf_counter() - t0)
        since_probe += op_seconds[-1]
        outputs.append(out)
    total = time.perf_counter() - start - sum(probe_seconds)
    return outputs, op_seconds, total, probe_seconds


def run_rounds(ops, seconds: float, probe=None):
    """Whole rounds until `seconds` of timed work have passed (at least one)."""
    rounds, op_seconds, round_seconds, round_probe_s = [], [], [], []
    while not round_seconds or sum(round_seconds) < seconds:
        outputs, times, total, probes = run_round(ops, probe)
        rounds.append(outputs)
        op_seconds += times
        round_seconds.append(total)
        round_probe_s.append(statistics.fmean(probes) if probes else None)
    return rounds, op_seconds, round_seconds, round_probe_s


def check_rounds(checks, ops, rounds) -> tuple[int, list[str]]:
    """(failed operations, problems): a problem is a wrong output of an operation
    that did not fail; a known fault that shows is a failure, not a problem."""
    failed, problems = 0, []
    for outputs in rounds:
        for op, out in zip(ops, outputs):
            if isinstance(out, Raised):
                failed += 1
                print(f"operation raised: {out.text}", file=sys.stderr)
                continue
            try:
                op.check(out, *op.args)
            except checks.CheckFailed as exc:
                if op.known_fault:
                    failed += 1
                else:
                    problems.append(str(exc))
    return failed, problems


def rate(ops, round_seconds, round_probe_s=None) -> float:
    """Median over rounds of operations per second. With probe times, each
    round's rate is first scaled by its mean probe time over PROBE_REF_S,
    which gives the rate at the reference machine's speed."""
    if round_probe_s is None:
        round_probe_s = [PROBE_REF_S] * len(round_seconds)
    return statistics.median(len(ops) / s * (p / PROBE_REF_S)
                             for s, p in zip(round_seconds, round_probe_s))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import numpy as np
    import workloads
    if not Path(workloads.pstnet.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"pstnet imported from {workloads.pstnet.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2
    setup = workloads.SETUPS[args.workload]
    ops = setup(np.random.default_rng(args.seed))
    t_first = time.monotonic()
    probe = make_probe(np)
    setup_slowdown = statistics.fmean(probe() for _ in range(SETUP_PROBES)) / PROBE_REF_S
    if args.setup_only:
        print(json.dumps({"t_first": t_first, "setup_slowdown": setup_slowdown}))
        return 0

    probed = args.workload in workloads.SPEED_PROBED
    rounds, op_seconds, round_seconds, round_probe_s = run_rounds(
        ops, args.seconds, probe if probed else None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "t_first": t_first,
        "setup_slowdown": setup_slowdown,
        "ops_per_round": len(ops),
        "round_seconds": round_seconds,
        "round_probe_s": round_probe_s,
        "raw_ops_per_s": rate(ops, round_seconds),
        "ops_per_s": rate(ops, round_seconds, round_probe_s if probed else None),
        "peak_rss_kb": peak_rss_kb,
    }
    if args.trace:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
        traced_ops = setup(np.random.default_rng(args.seed))
        outputs, _, traced_seconds, _ = run_round(traced_ops)
        rec.enabled = False
        rounds.append(outputs)
        extra = {}
        if args.workload == "route":
            ms = sorted(1e3 * s for s in op_seconds)
            extra = {"routing.route_p50_ms": statistics.median(ms),
                     "routing.route_p99_ms": ms[int(0.99 * (len(ms) - 1))]}
        result["layers"] = rec.layer_metrics(extra)
        result["overhead"] = {
            "untraced_ops_per_s": result["raw_ops_per_s"],
            "traced_ops_per_s": rate(traced_ops, [traced_seconds]),
        }
        rec.write(RESULTS_DIR / f"trace-{args.workload}.jsonl",
                  {"workload": args.workload, "seed": args.seed,
                   "span": ["name", "start_s", "end_s", "parent"],
                   "overhead": result["overhead"], "layers": result["layers"]})

    import checks
    failed, problems = check_rounds(checks, ops, rounds)
    for line in problems[:10]:
        print(f"wrong output: {line}", file=sys.stderr)
    result.update(attempted=len(ops) * len(rounds), failed=failed,
                  correct=not problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
