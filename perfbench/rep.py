"""One repetition of one workload in a fresh interpreter.

Started by run.py, which passes the clock reading taken just before the
spawn.  Prints one JSON object as its last line of output:

  wall_raw_s   inputs ready to verified output
  probe_s      mean host-speed probe time over that interval (speed.py)
  wall_s       wall_raw_s at the reference host speed
  cpu_s        process CPU time over the same interval
  peak_rss_mb  peak resident memory of this process
  attempted, failures   the workload's checks
  layers       per-layer metrics, with --trace 1 only

With --setup-only it stops once imports are done and prints setup_raw_s
(spawn to "heavylight, and for regen the generator, imported") and the
mean probe time measured right after (probe_s).
"""

import argparse
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--tree", type=Path, help="the regen copy of src/ and tools/")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    generator = None
    if args.workload == "regen":
        generator = workloads.load_generator(args.tree)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import heavylight.cli  # noqa: F401
    ready = time.perf_counter()

    import json

    import speed

    if args.setup_only:
        speed.time_probe()  # warm-up
        probe = speed.mean_probe([speed.time_probe() for _ in range(speed.SETUP_PROBES)])
        setup = ready - args.spawned
        print(json.dumps({"setup_raw_s": setup, "probe_s": probe}))
        return 0

    callers = [workloads]  # modules whose bindings the tracer must wrap
    if args.workload == "regen":
        callers.append(generator)
        run = lambda: workloads.regen(generator, args.tree)  # noqa: E731
    elif args.workload == "offdiag":
        import offdiag

        callers.append(offdiag)
        inputs = offdiag.make_inputs(args.seed)
        run = lambda: offdiag.run(inputs)  # noqa: E731
    else:
        run = getattr(workloads, args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(callers)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with speed.SpeedProbe() as probe:
        try:
            checks = run()
        except Exception:  # reported as a failed operation, not a crash
            traceback.print_exc()
            checks = [("exception", False)]
        t1 = time.perf_counter()
    cpu = _cpu_s() - cpu0

    failures = [name for name, ok in checks if not ok]
    result = dict(
        wall_raw_s=t1 - t0,
        probe_s=probe.mean(),
        wall_s=speed.at_reference_speed(t1 - t0, probe.mean()),
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(checks),
        failures=failures,
    )
    if tracer is not None:
        layers = tracer.metrics()
        layers["verify.checks_failed"] = len(failures) if args.workload == "verify_all" else 0
        result["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
