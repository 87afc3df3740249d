"""Benchmark of opendicke: three workloads, end-to-end metrics, traced run.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json, the one place
that sets the run length.

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Without ``--workload`` every workload runs, each in its own
process, and a table of their metrics is printed.  With ``--workload`` one
workload runs in this process and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run sets up (median of several fresh-process imports), runs one round of
the workload untimed, as warm-up and as the round the correctness checks
verify, then repeats whole rounds until the calls have taken ``--seconds``.
Every timed round must return results identical to the checked one.  With
``--trace 1`` it instead alternates untraced and traced rounds, and prints
the per-module metrics of ``spans.py``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: every workload runs serially in one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("figure-scan", "sweep-wide", "oracle-check")
SETUP_RUNS = 11
TRACE_PAIRS = 5     # untraced/traced round pairs of the traced run

# The speed of the virtual CPU drifts by tens of percent within minutes, in
# CPU time as much as in wall time.  A fixed reference unit of work is timed
# between the calls, and every timed metric is quoted at the speed at which
# that unit takes REF_NOMINAL seconds: a call is scaled by REF_NOMINAL over
# the mean of the two reference samples around it.
REF_NOMINAL = 0.004
REF_EVERY = 0.05    # seconds of calls between two reference samples
_REF_RNG = np.random.default_rng(20110721)
_REF_MATRIX = (_REF_RNG.standard_normal((4, 4))
               + 1j * _REF_RNG.standard_normal((4, 4)))
# Bound now, so that the tracer's wrappers of numpy.linalg never reach the
# reference unit.
_EIG, _INV = np.linalg.eig, np.linalg.inv

# Fresh-process set-up: import the package and build the CLI parser.
_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import opendicke
from opendicke import cli
cli.build_parser()
print(repr(time.perf_counter() - start))
"""


def reference_unit() -> float:
    """Time one fixed unit of interpreter and small-LAPACK work, the mix the
    program runs, with no opendicke code in it."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(60):
        lam, vecs = _EIG(_REF_MATRIX)
        inv = _INV(vecs)
        acc += float(np.max(np.abs(vecs @ (lam[:, None] * inv) - _REF_MATRIX)))
        row = tuple(complex(z) for z in lam)
        acc += sum(abs(z) for z in row) + len({j: row for j in range(k % 8)})
    return time.perf_counter() - start


class Clock:
    """Times calls and samples the reference unit between them.

    A sample is taken before the first call and after any call once
    REF_EVERY seconds of calls have passed since the last one; ``close``
    takes the last.  ``raw`` holds the wall time of each call and ``scaled``
    the same at reference speed.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.samples = [reference_unit()]
        self._scale: list[bool] = []
        self._since = 0.0
        self._open = 0      # first call not yet scaled

    def call(self, fn, scale=True):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.raw.append(elapsed)
        self._scale.append(scale)
        self._since += elapsed
        if self._since >= REF_EVERY:
            self._sample()
        return result

    def _sample(self):
        self.samples.append(reference_unit())
        factor = REF_NOMINAL / (0.5 * (self.samples[-2] + self.samples[-1]))
        self.scaled += [t * factor if s else t for t, s in
                        zip(self.raw[self._open:], self._scale[self._open:])]
        self._open = len(self.raw)
        self._since = 0.0

    def close(self):
        if self._open < len(self.raw):
            self._sample()


def setup_seconds() -> tuple[float, float]:
    """(scaled, raw) median of SETUP_RUNS fresh-process set-ups, after one
    unmeasured set-up that may have to write the bytecode cache.

    Each set-up is scaled by the reference sampled before and after it,
    each sample the median of three units, since one 4 ms unit is easily
    disturbed.
    """
    def reference_sample() -> float:
        return statistics.median(reference_unit() for _ in range(3))

    scaled, raw = [], []
    before = reference_sample()
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = reference_sample()
        if k > 0:
            raw.append(seconds)
            scaled.append(seconds * REF_NOMINAL / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def run_round(ops, clock):
    """One pass over the operations: (points, failed, digests).

    Only the calls are timed; tallying their results happens between them.
    """
    digests = []
    points = failed = 0
    for op in ops:
        raw = clock.call(op.call, op.scale)
        op_failed, digest = op.tally(raw)
        points += op.points
        failed += op_failed
        digests.append(digest)
    return points, failed, digests


def round_seconds(ops, context=None) -> tuple[float, tuple]:
    """Time of one round's calls at reference speed, run inside
    ``context``, with the round's result."""
    clock = Clock()
    with context or contextlib.nullcontext():
        result = run_round(ops, clock)
    clock.close()
    return sum(clock.scaled), result


def tail(samples: list[float]) -> str:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    if n < 40:
        return f"median only, {n} samples"
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            value = ordered[min(n - 1, int(pct / 100.0 * n))] * 1e3
            return f"p{pct:g} {value:.4f} ms over {n} samples"
    return f"median only, {n} samples"


def calls_of(times: list[float], size: int) -> list[float]:
    return [sum(times[i:i + size]) for i in range(0, len(times), size)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        setup_s, setup_raw = setup_seconds()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOAD_BUILDERS[name](seed)
    checked = [op.call() for op in workload.ops]
    expected = [op.tally(raw)[1] for op, raw in zip(workload.ops, checked)]

    rounds = []
    report = []
    if trace:
        import spans

        # The overhead is the median over alternating round pairs, each
        # round quoted at reference speed, so that drift of the machine's
        # speed between two rounds does not pass for tracing cost.
        overheads = []
        for _ in range(TRACE_PAIRS):
            untraced, result = round_seconds(workload.ops)
            rounds.append(result)
            tracer = spans.Tracer()
            traced, result = round_seconds(workload.ops, tracer)
            rounds.append(result)
            overheads.append(traced - untraced)
        tracer.write(os.path.join(HERE, "out", f"spans-{name}.jsonl"))
        metrics = tracer.metrics(points=rounds[-1][0])
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        report.append("trace overhead per round at reference speed: "
                      + ", ".join(f"{t:.4f} s" for t in overheads))
    else:
        clock = Clock()
        while sum(clock.raw) < seconds:
            rounds.append(run_round(workload.ops, clock))
        clock.close()
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        points = sum(r[0] for r in rounds)
        calls = calls_of(clock.scaled, workload.call_size)
        raw_calls = calls_of(clock.raw, workload.call_size)
        metrics = {
            "setup_s": (setup_s, "s"),
            "points_per_s": (points / sum(clock.scaled), "points/s"),
            "call_ms_p50": (statistics.median(calls) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        report += [
            f"{len(rounds)} rounds, {len(calls)} calls, {sum(clock.raw):.3f} s "
            f"in calls; call time at reference speed: {tail(calls)}",
            f"wall clock: setup_s {setup_raw:.4f}, points_per_s "
            f"{points / sum(clock.raw):.2f}, call_ms_p50 "
            f"{statistics.median(raw_calls) * 1e3:.4f}",
            f"reference unit: median {statistics.median(clock.samples) * 1e3:.4f} ms "
            f"over {len(clock.samples)} samples, quoted at {REF_NOMINAL * 1e3:g} ms",
        ]
        if workload.call_size > 1:
            size = workload.call_size
            report += [f"median ms at reference speed {statistics.median(clock.scaled[j::size]) * 1e3:9.2f}"
                       f", wall clock {statistics.median(clock.raw[j::size]) * 1e3:9.2f}: {op.label}"
                       for j, op in enumerate(workload.ops)]

    correct, lines, rejected = workload.check(checked)
    unchanged = all(r[2] == expected for r in rounds)
    if not unchanged:
        lines.append("FAIL a timed round returned results that differ "
                     "from the checked round")
    return {
        "correct": bool(correct and unchanged),
        "attempted": sum(r[0] for r in rounds),
        "failed": sum(r[1] + rejected for r in rounds),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "report": lines + report,
    }


def configured_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def run_all(args) -> int:
    """Every workload in its own process; prints a table of their metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
    print()
    print(f"{'workload':<14} {'metric':<44} {'value':>14}  unit")
    for name, res in results.items():
        print(f"{name:<14} {'attempted / failed':<44} "
              f"{res['attempted']:>8} / {res['failed']:<5} correct={res['correct']}")
        for metric, entry in res["metrics"].items():
            print(f"{name:<14} {metric:<44} {entry['value']:>14.6g}  {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(res["correct"] for res in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="seconds of calls to time (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "opendicke", "__init__.py")):
        print(f"error: the opendicke sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = configured_seconds()
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
