"""pstnet benchmark: four workloads, each in its own process.

    python3 perfbench/run.py --workload route --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads: route, hypercube, verdict, scan (see perfbench/README.md), or
'all' for each in turn. Every workload process is started with the BLAS
thread count pinned. The set-up is timed in SETUP_SAMPLES processes, from
process start to the first timed operation, each scaled by the speed probe
(see worker.py), and the median is reported.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with setup_s, ops_per_s and peak_rss_mb under --trace 0, and the per-layer
metrics of perfbench/tracing.py under --trace 1. On route and verdict,
ops_per_s is scaled to the reference machine's speed by a probe (see
worker.py). Results and traces are also written to perfbench/results/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("route", "hypercube", "verdict", "scan")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A workload process failed; no result is printed."""


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py; return its JSON line and its start time (time.monotonic)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before starting worker {args}")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                              capture_output=True, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    raw_setup_s, setup_s = [], []
    for i in range(SETUP_SAMPLES):
        flags = ["--setup-only"] if i < SETUP_SAMPLES - 1 else ["--trace", str(trace)]
        out, started = spawn([*common, *flags], deadline)
        raw_setup_s.append(out["t_first"] - started)
        setup_s.append(raw_setup_s[-1] / out["setup_slowdown"])
    if trace:
        metrics = {m: {"value": out["layers"][m], "unit": unit}
                   for m, unit in layer_units().items()}
        over = out["overhead"]
        loss = over["untraced_ops_per_s"] - over["traced_ops_per_s"]
        print(f"{name}: tracing overhead {loss:.6g} ops/s "
              f"(untraced {over['untraced_ops_per_s']:.6g}, traced "
              f"{over['traced_ops_per_s']:.6g}, "
              f"{100 * loss / over['untraced_ops_per_s']:.2f}%)")
    else:
        values = {"setup_s": statistics.median(setup_s), "ops_per_s": out["ops_per_s"],
                  "peak_rss_mb": out["peak_rss_kb"] / 1024.0}
        metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in values.items()}
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    RESULTS_DIR.mkdir(exist_ok=True)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples_s": setup_s, "raw_setup_samples_s": raw_setup_s,
              "round_seconds": out["round_seconds"],
              "round_probe_s": out["round_probe_s"], "raw_ops_per_s": out["raw_ops_per_s"],
              "ops_per_round": out["ops_per_round"], **result}
    (RESULTS_DIR / f"result-{name}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
    return result


def layer_units() -> dict[str, str]:
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import PER_LAYER
    return {metric: unit for metric, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pstnet" / "__init__.py").is_file():
        print(f"perfbench: no pstnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        shown = ", ".join(f"{m} {v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items())
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}; {shown}")
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    print(f"perfbench: {time.monotonic() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
