"""Benchmark for negwit: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload fock-table --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; negwit is imported from its ``src/``.
With ``--trace 0`` a run measures the end-to-end metrics: the median wall
and CPU time of a pass, scaled to a reference machine speed by a probe
loop timed during the pass, the peak resident memory, and the median
set-up time of fresh interpreters.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
pass with the median wall time, writing its spans to ``perfbench/out/``.

Every run first makes one untimed warm-up pass, then at least one timed
pass, and more while the last pass would still end within ``--seconds``.
Every pass is checked, outside the timed part.  The last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
REPEAT_TOL = 1e-6
# The host's speed drifts by 15% and more over seconds to minutes, and its
# slow phases outlast a run.  So a timer interrupts each timed pass every
# PROBE_EVERY_S to time a fixed interpreter loop of PROBE_LOOP steps.  A
# pass's wall and CPU times, less the loop's, are scaled by
# PROBE_REF_S / (mean loop time in that pass): they are the times of a
# machine on which the loop takes PROBE_REF_S.
PROBE_EVERY_S = 0.1
PROBE_LOOP = 30000
PROBE_REF_S = 0.0025


def _cap_blas_threads():
    """One process, with BLAS threads at most the usable core count."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var)
        if not (current and current.isdigit() and 0 < int(current) <= int(cores)):
            os.environ[var] = cores


def _import_negwit():
    """Import negwit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "negwit" / "__init__.py").is_file():
        sys.exit(f"error: no negwit sources under {src}")
    sys.path.insert(0, str(src))
    import negwit

    if Path(negwit.__file__).resolve().parent != (src / "negwit").resolve():
        sys.exit(f"error: negwit was imported from {negwit.__file__}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_seconds(args):
    """Median time from starting a fresh interpreter to built inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit("error: set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


def _flat(value):
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _flat(v)
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from _flat(value[k])
    else:
        yield value


def _repeats(a, b):
    """Two passes agree: same numbers within REPEAT_TOL, same failures."""
    fa, fb = list(_flat(a)), list(_flat(b))
    if len(fa) != len(fb):
        return False
    for x, y in zip(fa, fb):
        if isinstance(x, float) and isinstance(y, float):
            if not (abs(x - y) <= REPEAT_TOL or (x != x and y != y)):
                return False
        elif x != y:
            return False
    return True


class Run:
    """Counts operations over every pass of one run and checks repeats."""

    def __init__(self, jobs, check):
        self.jobs, self.check = jobs, check
        self.attempted = self.failed = 0
        self.first = None
        self.repeatable = True

    def record(self, outs):
        from workloads import plain_outputs

        ops = self.check(outs)
        self.attempted += len(ops)
        self.failed += sum(not ok for ok in ops.values())
        flat = plain_outputs(outs)
        if self.first is None:
            self.first = flat
        else:
            self.repeatable &= _repeats(self.first, flat)
        bad = sorted(name for name, ok in ops.items() if not ok)
        if bad:
            print(f"failed operations: {', '.join(bad)}", file=sys.stderr)


def _probe_loop():
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times the probe loop before a pass and on a timer signal during it."""

    def __init__(self):
        self.times = []
        self.wall = self.cpu = 0.0

    def _take(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        _probe_loop()
        w1, c1 = time.perf_counter(), time.thread_time()
        self.times.append(w1 - w0)
        self.wall += w1 - w0
        self.cpu += c1 - c0

    def __enter__(self):
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self):
        return PROBE_REF_S / statistics.mean(self.times)


def _timed_pass(jobs):
    """(outputs, wall s, CPU s, probe) of one pass; the times leave out the probe's."""
    from workloads import run_pass

    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    with SpeedProbe() as probe:
        outs = run_pass(jobs)
    t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return outs, t1 - t0 - probe.wall, cpu - probe.cpu, probe


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _more(start, lengths, seconds):
    """Another pass fits in the run if the last one's length still fits."""
    return not lengths or time.perf_counter() - start + lengths[-1] <= seconds


def measure(args, run):
    lengths, raw, walls, cpus = [], [], [], []
    start = time.perf_counter()
    while _more(start, lengths, args.seconds):
        p0 = time.perf_counter()
        outs, wall, cpu, probe = _timed_pass(run.jobs)
        lengths.append(time.perf_counter() - p0)
        run.record(outs)
        raw.append(wall)
        walls.append(wall * probe.scale())
        cpus.append(cpu * probe.scale())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"pass wall s: {' '.join(f'{w:.3f}' for w in raw)};"
        f" scaled by the probe: {' '.join(f'{w:.3f}' for w in walls)}",
        file=sys.stderr,
    )
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "setup_s": _metric(_setup_seconds(args), "s"),
    }


def trace(args, run):
    from tracing import LAYER_METRICS, SELF_METRIC, Tracer, wrapper_cost
    from workloads import plain_outputs, run_pass

    per_call = wrapper_cost()
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while _more(start, [u + t[0] for u, t in zip(untraced, traced)], args.seconds):
        outs, wall, _, _ = _timed_pass(run.jobs)
        run.record(outs)
        untraced.append(wall)
        tracer.install()
        try:
            outs, wall = tracer.run_pass(lambda: run_pass(run.jobs))
        finally:
            tracer.uninstall()
        run.record(outs)
        traced.append((wall, tracer.layer_metrics(), tracer.spans_json(), plain_outputs(outs)))
    traced.sort(key=lambda t: t[0])
    wall, layers, spans, outputs = traced[(len(traced) - 1) // 2]
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = (
        statistics.median(t[0] for t in traced) - statistics.median(untraced)
    )
    # The self times sum to the traced wall time by construction.  Less the
    # estimated wrapper cost they should give the untraced wall time; the
    # gap is recorded, not checked, since neighbouring passes on a drifting
    # machine differ by more than any useful tolerance.
    estimated = per_call * (len(spans) - 1)
    self_sum = sum(layers[key] for key in set(SELF_METRIC.values()))
    gap = (self_sum - estimated) / statistics.median(untraced) - 1.0
    print(
        f"self times {self_sum:.3f} s, estimated overhead {estimated:.4f} s"
        f" ({len(spans) - 1} spans), gap to untraced median {gap:+.1%}",
        file=sys.stderr,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_wall_s": untraced,
                "traced_wall_s": [t[0] for t in traced],
                "wrapper_cost_s": per_call,
                "estimated_overhead_s": estimated,
                "self_sum_s": self_sum,
                "untraced_gap": gap,
                "metrics": layers,
                "spans": spans,
                "outputs": outputs,
            },
            fh,
            indent=1,
        )
    print(f"trace written to {path}", file=sys.stderr)
    return {k: _metric(layers[k], unit) for k, unit in LAYER_METRICS.items()}


def main(argv=None):
    args = _parse(argv)
    _cap_blas_threads()
    _import_negwit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    workdir = OUT_DIR / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs, check = workloads.build(args.workload, args.seed, str(workdir))
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    run = Run(jobs, check)
    run.record(workloads.run_pass(jobs))  # warm-up, checked but not timed
    metrics = (trace if args.trace else measure)(args, run)
    result = {
        "correct": run.repeatable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
