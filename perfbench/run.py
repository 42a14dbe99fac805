"""The heavylight benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a heavylight checkout.  Every repetition runs in a
fresh interpreter (rep.py), one at a time, because every `hl` invocation
starts with cold caches: in one process a second `verify_all` would skip
the set-partition enumeration.  Repetitions continue while the next one
is expected to end within --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics, as medians over repetitions:
  wall_s       inputs ready to verified output
  setup_s      interpreter start to heavylight imported (and, for regen,
               the generator), from set-up-only processes: one before
               each repetition, and more until there are SETUP_SAMPLES;
               the median raw time at the mean speed of their probes
  peak_rss_mb  peak resident memory of the workload process
Both times are given at a reference host speed (see speed.py); the raw
times and probe readings are in the record line.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracing.METRICS; proc.trace_overhead_s is the traced
minus the untraced median wall time.

Failed operations are reported in `attempted` and `failed` (their ratio is
the error rate) and make `correct` false.  A line starting with "record"
precedes the result: the seed, whether the workload uses it, every
sample, and the environment.  The last line is the result object.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 40  # set-up-only processes per run, at least
REQUIRED = ("src/heavylight/__init__.py", "src/heavylight/cli.py")
REGEN_REQUIRED = ("tools/generate_fixtures.py",)


def git_sha(root: Path):
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "heavylight").rglob("*.py"))
    )


class Runner:
    """Spawns the repetitions of one run and keeps their results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)
        self.env.pop("HL_FIXTURE_DIR", None)
        self.tree = WORK / f"regen-{os.getpid()}"
        self.attempted = 0
        self.failures = []

    def _fresh_tree(self):
        """A copy of src/ and tools/ without any .hlf, for one regen process."""
        shutil.rmtree(self.tree, ignore_errors=True)
        skip = shutil.ignore_patterns("*.hlf")
        shutil.copytree(ROOT / "src", self.tree / "src", ignore=skip)
        shutil.copytree(ROOT / "tools", self.tree / "tools", ignore=skip)

    def spawn(self, *, trace=0, setup_only=False):
        """Run rep.py once; its result, or None if it failed or timed out."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            self._fail("out of time")
            return None
        cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace)]
        if self.workload == "regen":
            self._fresh_tree()
            cmd += ["--tree", str(self.tree)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(WORK / f"spans-{self.workload}.tsv")]
        try:
            proc = subprocess.run(
                cmd + ["--spawned", repr(time.perf_counter())], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self._fail("repetition timed out")
            return None
        finally:
            shutil.rmtree(self.tree, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            self._fail(f"repetition exited with {proc.returncode}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not setup_only:
            self.attempted += result["attempted"]
            self.failures += result["failures"]
        return result

    def _fail(self, what):
        self.attempted += 1
        self.failures.append(what)


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    launched = time.perf_counter()

    required = REQUIRED + (REGEN_REQUIRED if args.workload == "regen" else ())
    missing = [p for p in required if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a heavylight checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    # Compile once, so that set-up time measures imports, not compilation.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(ROOT / "tools", quiet=1, maxlevels=0)

    start = time.perf_counter()
    runner = Runner(args.workload, args.seed, launched + DEADLINE_S)
    setups, plain, traced = [], [], []

    def probe():
        result = runner.spawn(setup_only=True)
        if result is not None:
            setups.append(result)
        return result is not None

    def repeat(trace):
        result = runner.spawn(trace=trace)
        if result is not None:
            (traced if trace else plain).append(result)
        return result is not None

    probes = 0
    while True:
        began = time.perf_counter()
        probes += 1
        ok = probe() and all(repeat(trace) for trace in ((0, 1) if args.trace else (0,)))
        now = time.perf_counter()
        if not ok or now + (now - began) > start + args.seconds:
            break
    while probes < SETUP_SAMPLES and probe():
        probes += 1

    samples = {
        "setup_raw_s": [r["setup_raw_s"] for r in setups],
        "setup_probe_s": [r["probe_s"] for r in setups],
        "wall_s": [r["wall_s"] for r in plain],
        "wall_raw_s": [r["wall_raw_s"] for r in plain],
        "probe_s": [r["probe_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    if args.trace:
        metrics = {}
        for name, unit in tracing.METRICS.items():
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            # median_low reports a measured value, so counts stay whole numbers
            metrics[name] = {"value": statistics.median_low(values) if values else 0, "unit": unit}
        metrics["proc.cpu_s"]["value"] = _median(samples["cpu_s"])
        metrics["proc.trace_overhead_s"]["value"] = (
            _median(samples["traced_wall_s"]) - _median(samples["wall_s"])
        )
        metrics["proc.src_lines"]["value"] = src_lines()
    else:
        # Set-up samples are too short to carry their own speed reading, so
        # the run's mean probe time converts their median.
        setup = speed.at_reference_speed(
            _median(samples["setup_raw_s"]), statistics.mean(samples["setup_probe_s"])
        ) if setups else 0.0
        metrics = {
            "wall_s": {"value": _median(samples["wall_s"]), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": _median(samples["peak_rss_mb"]), "unit": "MB"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload in workloads.SEEDED,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "failures": runner.failures,
        "environment": environment(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures and bool(plain),
        "attempted": max(runner.attempted, 1),
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
