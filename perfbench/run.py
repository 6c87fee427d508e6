"""cimset benchmark: one closed-loop client running one workload in this process.

    python3 perfbench/run.py --workload learn-data --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cimset is imported from `src/`.
The benchmark writes its seeded inputs under `perfbench/_work/`, runs the
workload's pool of ops in whole passes until `--seconds` have gone by (each
op starts after the previous one returns), checks every op's output outside
the timed span, and prints a human-readable report followed by one JSON
line: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.  The traced run alternates untraced and traced passes, so the
tracing overhead is measured under the same host conditions, and it
requires traced outputs to be byte-identical to untraced ones.

Times are reported at a reference host speed.  Other tenants of the
shared host change its speed by half or more from one second to the
next, and CPU time moves with wall time, so raw seconds spread far
more between runs than any code change worth catching.  A fixed
pure-Python calibration mix is therefore timed between every two timed
calls, and each call's time is scaled by REF_CAL_S over the mean of the
two samples around it: a time in the report is what the call would
have taken on a host where the calibration mix takes REF_CAL_S.  The
unscaled median and the calibration samples are printed beside the
metrics.

Side files in `perfbench/_work/`: `ops-*.json` (each op's input
properties and latencies), `outputs-*.json` (hashes of each op's output) and, for traced
runs, `spans-*.jsonl` (every span as [name, start, end, parent, op, busy]).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("learn-data", "learn-table", "geometry", "verify")
SETUP_SAMPLES = 7
# Seconds the calibration mix takes at the reference host speed.
REF_CAL_S = 0.010
# With at least 11 repetitions of every op, the tail lies within the
# repetitions of the slowest op rather than between two different ops.
MIN_PASSES = 11
SETUP_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "import cimset.cli\n"
              "cimset.cli.build_parser()\n"
              "print(repr(time.perf_counter() - t))\n")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_cimset():
    """Import cimset from this checkout's src/, never from anywhere else."""
    if not (SRC / "cimset" / "__init__.py").is_file():
        return f"no cimset sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import cimset
    if Path(cimset.__file__).resolve().parent != SRC / "cimset":
        return f"imported cimset from {cimset.__file__}, not from {SRC}"
    return None


def setup_probe():
    """In-process time to import cimset and build the CLI parser, in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def calibrate():
    """Time a fixed mix of the work cimset does: dict and tuple churn, int bit
    arithmetic, Fractions, lgamma and a sort (about 10 ms on a calm host)."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(20_000):
        key = (i & 127, (i >> 7) & 7)
        table[key] = table.get(key, 0) + ((acc ^ i) & 0xFF)
        acc = (acc * 31 + i) & 0xFFFF
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 12 + 2)
    logs = 0.0
    for i in range(1, 2000):
        logs += math.lgamma(i % 50 + 1.5)
    sorted(((i * 7919) % 1009, i) for i in range(3000))
    return time.perf_counter() - t0


class Loop:
    """Runs passes over the op pool; records latencies, failures and output digests.

    latency[traced][k] lists op k's raw latency in every pass of that kind,
    and scaled[traced][k] the same latencies at the reference host speed.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latency = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.scaled = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.failures = []
        self.attempted = 0
        self.digests = {False: {}, True: {}}
        calibrate()  # warms the mix up
        self.calibration = [calibrate()]
        self.setup = []

    def recalibrate(self):
        """Take a calibration sample; return the factor that scales a time
        measured since the previous sample to the reference host speed."""
        before = self.calibration[-1]
        self.calibration.append(calibrate())
        return 2 * REF_CAL_S / (before + self.calibration[-1])

    def probe_setup(self):
        self.recalibrate()
        self.setup.append(setup_probe() * self.recalibrate())

    def run_pass(self, tracer=None):
        traced = tracer is not None
        for k, op in enumerate(self.ops):
            if traced:
                tracer.op += 1
            self.attempted += 1
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op; keep measuring
                error = f"raised {exc!r}"
            latency = time.perf_counter() - t0
            scale = self.recalibrate()
            self.latency[traced][k].append(latency)
            self.scaled[traced][k].append(latency * scale)
            if error is not None:
                self.failures.append(f"{op.label}: {error}")
                continue
            try:
                error = op.check(out)
                digest = op.digest(out)
            except Exception as exc:
                error, digest = f"output check raised {exc!r}", None
            first = self.digests[False].get(k)
            if error is None and first is not None and digest != first:
                error = "output differs from the untraced run" if traced else \
                    "output differs from an earlier pass"
            self.digests[traced].setdefault(k, digest)
            if error is not None:
                self.failures.append(f"{op.label}: {error}")

    def typical(self, traced, scaled=True):
        """Each op's latency: the median of its repetitions."""
        runs = self.scaled if scaled else self.latency
        return [statistics.median(lat) for lat in runs[traced]]


def tail(latencies):
    """Latency at the highest percentile with at least 10 ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(loop):
    typical = loop.typical(False)
    passes = len(loop.latency[False][0])
    tail_s, pct, n = tail(typical * passes)
    metrics = {
        "setup_s": (statistics.median(loop.setup), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"an op's latency is the median of its {passes} repetitions",
             f"op_tail_s is the p{pct:.1f} latency of the {n} ops run",
             f"times are at the reference host speed (calibration mix {REF_CAL_S} s); "
             f"unscaled op_p50_s {statistics.median(loop.typical(False, scaled=False)):.6g} s"]
    return metrics, notes


def per_layer(loop, tracer):
    ops = sum(map(len, loop.latency[True]))
    metrics = tracer.metrics(ops)
    ratio = statistics.median(loop.typical(True)) / statistics.median(loop.typical(False))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    notes = [f"per-layer values are means over {ops} traced ops; as many untraced ops "
             f"ran between them",
             "trace.overhead_ratio compares median op latencies"]
    if tracer.missing:
        notes.append("missing (name no longer resolves): " + ", ".join(tracer.missing))
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    problem = import_cimset()
    if problem:
        return fail(problem)
    import workloads
    from spans import Tracer, should_move

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    inputs = WORK / f"inputs-{stem}-{os.getpid()}"
    inputs.mkdir()
    try:
        ops = workloads.POOLS[args.workload](args.seed, str(inputs))
        try:
            ops[0].run()  # lets lazy first-call work finish before timing
        except Exception:
            pass  # the timed passes record the failure
        loop = Loop(ops)
        tracer = Tracer() if args.trace else None
        passes = 0
        start = time.perf_counter()
        while True:
            if tracer is not None and passes % 2:
                tracer.install()
                try:
                    loop.run_pass(tracer)
                finally:
                    tracer.uninstall()
            else:
                loop.run_pass()
                # set-up samples spread over the run, so a burst of host load
                # moves few of them
                if tracer is None and passes % 2 == 0 and len(loop.setup) < SETUP_SAMPLES:
                    loop.probe_setup()
            passes += 1
            if time.perf_counter() - start >= args.seconds and (
                    passes >= MIN_PASSES if tracer is None else passes % 2 == 0):
                break
        wall = time.perf_counter() - start

        if tracer is None:
            while len(loop.setup) < SETUP_SAMPLES:
                loop.probe_setup()
            metrics, notes = end_to_end(loop)
        else:
            metrics, notes = per_layer(loop, tracer)
            tracer.write(WORK / f"spans-{stem}.jsonl")
        with open(WORK / f"ops-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump([{"op": op.label, **op.props, "latency_s": loop.latency[False][k],
                        "scaled_latency_s": loop.scaled[False][k],
                        "traced_latency_s": loop.latency[True][k]}
                       for k, op in enumerate(ops)], fh, indent=1)
        with open(WORK / f"outputs-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({("traced" if t else "untraced"): v
                       for t, v in loop.digests.items() if v}, fh, indent=1)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted, failed = loop.attempted, len(loop.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{passes} passes over {len(ops)} ops in {wall:.1f} s (one closed-loop client)")
    for name, (value, unit) in metrics.items():
        moves = f"  (should move {should_move(name)})" if args.trace else ""
        print(f"  {name:<44} {value:.6g} {unit}{moves}")
    print(f"  {'fail_ratio':<44} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print("  wait time: none recorded; one client in one process, so nothing queues")
    cal = loop.calibration
    print(f"  calibration mix: median {statistics.median(cal):.4f} s, "
          f"min {min(cal):.4f} s, max {max(cal):.4f} s over {len(cal)} samples (diagnostic)")
    for note in notes:
        print(f"  {note}")
    flags = sorted({key for op in ops for key, v in op.props.items() if isinstance(v, bool)})
    for key in flags:
        print(f"  input property {key}: {sum(op.props[key] for op in ops)} of {len(ops)} ops")
    for failure in loop.failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
