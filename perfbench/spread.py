"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py [--workloads closed10,offdiag] [--seeds 1,2,3]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs `perfbench/run.py` once per seed and workload, cycling through the
workloads for each seed so that drift in host speed hits all of them
alike.  For every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread under a third of its bound
is steady.

With --trace 1 it checks instead that every per-layer metric is reported
and that each count metric reads the same in every run (pass one seed
twice, e.g. --seeds 7,7, to compare two traced runs of the same inputs).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2].removeprefix("record "))
    return result


def spread(values):
    """Quartiles, median, and the distance between the quartiles over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write every result here as JSON")
    args = ap.parse_args()
    names = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")

    results = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, args.seconds, args.trace)
            results[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")

    ok = all(r["correct"] for rs in results.values() for r in rs)
    if args.trace:
        for name, rs in results.items():
            missing = [m["name"] for m in config["per_layer"] if any(m["name"] not in r["metrics"] for r in rs)]
            varying = [
                m for m in tracing.COUNT_METRICS
                if len({json.dumps(r["metrics"][m]["value"]) for r in rs}) > 1
            ]
            print(f"{name}: missing {missing or 'none'}; count metrics that differ: {varying or 'none'}")
            ok = ok and not missing and not varying
        return 0 if ok else 1

    print(f"{'workload':<11} {'metric':<12} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, rs in results.items():
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in rs]
            q1, med, q3, share = spread(values)
            bound = metric["bound"]
            verdict = "steady" if share < bound / 3 else "within bound" if share <= bound else "TOO WIDE"
            print(f"{name:<11} {metric['name']:<12} {len(values):>3} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {share:>7.3f} {bound:>6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
