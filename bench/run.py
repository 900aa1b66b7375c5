"""Benchmark of sympcoh: one workload, one client, closed loop.

    python3 bench/run.py --workload report8|eta10|sweep6 --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's requests run back to back, each sent once the
previous answer is in, in passes over the workload's inputs (with
``--trace 1``, untraced and traced passes alternate).  A run makes at least
two passes, and after that starts no pass that would end after
``--seconds``.  Every answer is checked; a wrong one fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the run's environment and input
digest.  README.md describes the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "sympcoh")

MIN_PASSES = 2
SETUP_RUNS = 20
COVERAGE_FLOOR = 0.95

# Host speed.  Other tenants of a shared host slow this process down by up
# to 2x, in phases lasting from milliseconds to minutes (README.md).  While
# requests run, a SIGALRM handler times a fixed probe every PROBE_PERIOD_S,
# and the probe's time is taken out of the request it interrupted.  Each
# request's time is multiplied by the mean of PROBE_REF_S / (probe time)
# over the probes inside it, which gives its time at the speed where one
# probe takes PROBE_REF_S: the probe's fastest time on an idle core of a
# 2.1 GHz Intel Xeon.
PROBE_PERIOD_S = 0.008
PROBE_REF_S = 0.0015
_PROBE_N = 11
_PROBE_MATRIX = [[(3 * i + 5 * j + i * j) % 13 - 6 for j in range(_PROBE_N + 1)]
                 for i in range(_PROBE_N)]

# Timed in a fresh interpreter: importing the package builds the catalog.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sympcoh\n"
    "sympcoh.catalog.names()\n"
    "print(time.perf_counter() - t)\n"
)


def probe_unit():
    """Exact elimination of a fixed 11 x 12 integer matrix over Fraction.

    Like sympcoh's own work, and independent of it, so no change to the
    package changes the probe."""
    rows = [[Fraction(x) for x in row] for row in _PROBE_MATRIX]
    for c in range(_PROBE_N):
        p = next(r for r in range(c, _PROBE_N) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r in range(c + 1, _PROBE_N):
            f = rows[r][c] / pivot[c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
    return rows[-1][-1]


class HostSpeed:
    """Probe samples of the host's speed."""

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0  # time spent probing
        self._sampling = False

    def probe(self, *_):
        t0 = perf_counter()
        probe_unit()
        t = perf_counter() - t0
        self.samples.append(t)
        self.probe_s += t
        if self._sampling:  # re-armed after the probe, so probes never overlap
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def after(self, busy_s):
        """Probe for as long as ``busy_s``, right after it."""
        end = self.probe_s + busy_s
        while self.probe_s < end:
            self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_PERIOD_S of wall time inside the block."""
        signal.signal(signal.SIGALRM, self.probe)
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        try:
            yield
        finally:
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start=0):
        """Factor taking the times measured to the reference speed, from the
        samples from ``start`` on (None when there are none)."""
        samples = self.samples[start:]
        return statistics.fmean(PROBE_REF_S / t for t in samples) if samples else None


def measure_setup():
    """Median seconds to import sympcoh in a fresh process (after one warm-up),
    raw and at the reference speed; each import is followed by as long a probe."""
    times = []
    speed = HostSpeed()
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        if i:
            times.append(float(done.stdout))
            speed.after(times[-1])
    raw = statistics.median(times)
    return raw * speed.scale(), raw


class Pass:
    def __init__(self, latencies, speeds, outputs, failed, layers):
        self.wall = sum(latencies)
        self.latencies = latencies
        self.speeds = speeds
        self.outputs = outputs
        self.failed = failed
        self.layers = layers
        self.digest = hashlib.sha256("\x00".join(outputs).encode()).hexdigest()


def run_pass(workload, index, tracer, speed):
    """One pass; ``speed`` probes the host while requests of untraced passes run."""
    requests = workload.requests(index)
    labels = [label for label, _ in requests]
    outputs, latencies, speeds, failed = [], [], [], {}
    if tracer:
        tracer.install()
    with contextlib.nullcontext() if tracer else speed.sampling():
        for i, (label, fn) in enumerate(requests):
            probed, sampled = speed.probe_s, len(speed.samples)
            t0 = perf_counter()
            try:
                out = tracer.request(fn) if tracer else fn()
            except Exception as exc:  # a failed request is counted; the pass goes on
                out = f"error: {type(exc).__name__}: {exc}"
                failed[i] = f"{label}: {traceback.format_exc()}"
            latencies.append(perf_counter() - t0 - (speed.probe_s - probed))
            speeds.append(speed.scale(sampled))
            outputs.append(out)
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.collect(sum(latencies))
    failed.update((i, why) for i, why in workload.check(labels, outputs).items()
                  if i not in failed)
    return Pass(latencies, speeds, outputs, failed, layers)


def environment(args, workload):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    source = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                source.update(name.encode() + b"\x00" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": workload.digest,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_digest": source.hexdigest(),
    }


def layer_metrics(spec, tracer, plain, traced, failed_ratio):
    """Per-layer metrics: the median over traced passes, errors summed."""
    names = {key for p in traced for key in p.layers}
    values = {}
    for key in names:
        series = [p.layers.get(key, 0) for p in traced]
        values[key] = sum(series) if key.endswith(".errors") else statistics.median(series)
    values["trace.root_coverage"] = min(p.layers["trace.root_coverage"] for p in traced)
    values["trace.wall_s"] = min(p.wall for p in traced)
    values["trace.untraced_wall_s"] = min(p.wall for p in plain)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1
    values["failed_ratio"] = failed_ratio
    known = set(tracer.names) | set(spans.MODULES)
    for metric in spec:
        if metric["name"] not in values:
            if metric["name"].rsplit(".", 1)[0] not in known:
                raise KeyError(f"per-layer metric {metric['name']} is never measured")
            values[metric["name"]] = 0
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no sympcoh sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sympcoh
    import sympcoh.cli  # not imported by the package itself

    if os.path.dirname(os.path.abspath(sympcoh.__file__)) != PACKAGE:
        print(f"error: imported sympcoh from {sympcoh.__file__}", file=sys.stderr)
        return 2

    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup()
    speed = HostSpeed()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        workload = workloads.WORKLOADS[args.workload](sympcoh, args.seed, workdir)
        tracer = spans.Tracer(sympcoh) if args.trace else None
        plain, traced = [], []
        start = perf_counter()
        while True:
            with_trace = bool(tracer) and len(plain) > len(traced)
            p = run_pass(workload, len(plain) + len(traced),
                         tracer if with_trace else None, speed)
            (traced if with_trace else plain).append(p)
            elapsed = perf_counter() - start
            made = len(plain) + len(traced)
            # Start no pass that would end after --seconds, once the minimum is met.
            if made >= MIN_PASSES and elapsed + elapsed / made > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = plain + traced
    problems = []
    reference = passes[0].outputs
    for index, p in enumerate(passes):
        for i, out in enumerate(p.outputs):
            if i not in p.failed and out != reference[i]:
                p.failed[i] = f"request {i}: answer differs from pass 0"
        problems += [f"pass {index}: {why}" for why in p.failed.values()]
    attempted = sum(len(p.outputs) for p in passes)
    failed = sum(len(p.failed) for p in passes)

    if tracer:
        metrics = layer_metrics(spec["per_layer"], tracer, plain, traced, failed / attempted)
        for name in workloads.EXPECTED_CALLS[args.workload]:
            if not metrics.get(f"{name}.calls"):
                problems.append(f"traced run saw no call of {name}")
        if metrics["trace.root_coverage"] < COVERAGE_FLOOR:
            problems.append(f"root spans cover {metrics['trace.root_coverage']:.3f} of a pass")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # Each request at the speed sampled while it ran (the run's, when no
        # probe fell inside it), averaged over the passes.  Latency quantiles
        # are over the requests of a pass.
        scale = speed.scale()
        latencies = [
            statistics.fmean(t * (s or scale) for t, s in zip(times, speeds))
            for times, speeds in zip(zip(*(p.latencies for p in plain)),
                                     zip(*(p.speeds for p in plain)))
        ]
        metrics = {
            "wall_s": sum(latencies),
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    info = environment(args, workload)
    info.update(
        passes=len(plain), traced_passes=len(traced), requests_per_pass=len(reference),
        request_samples=sum(len(p.latencies) for p in plain), failed_ratio=failed / attempted,
        pass_digests=sorted({p.digest for p in passes}), peak_rss_mib=peak_rss_mib,
        pass_walls=[p.wall for p in passes],
    )
    if speed.samples:
        info.update(host_scale=speed.scale(), probes=len(speed.samples),
                    probe_fastest_s=min(speed.samples), setup_raw_s=setup_raw_s)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
