"""Benchmark for foxhom: seeded CLI workloads, end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness imports ``foxhom`` from the checkout's ``src`` and calls
``foxhom.cli.main(argv)`` in this process for every op, serially (a closed
loop with one client).  Every op's report is checked by ``gate.py``.

``--trace 0`` measures set-up in fresh interpreters, then runs passes of the
workload until ``--seconds`` are used, and reports the end-to-end metrics.
Pass and op times are reported in ``ref`` units: each op is divided by the
median time of ``reference_kernel`` run just before and just after it.  On a
shared host the speed of the whole machine drifts by tens of percent over
seconds to minutes; the ratio cancels that drift.  ``setup_s`` is scaled
the same way, back to seconds on a host where the kernel takes
``REF_SECONDS``.  The raw seconds still go to the record line.
``--trace 1`` repeats the seed's first pass untraced and traced in turn, with
span wrappers from ``spans.py``, and reports the per-layer metrics plus the
tracing overhead.  The last stdout line is the result as one JSON object;
the line before it records the seed, the environment and the sample counts.
The exit code is 1 if any op failed, 2 if the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_SAMPLES = 15
REF_PER_BLOCK = 2
# the reference kernel's time that setup_s is scaled to (seconds)
REF_SECONDS = 0.015
# what a fresh process pays before its first computation
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import foxhom.cli
from foxhom import datasets
datasets.standard_cover_job()
datasets.load_poly("delta_L")
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    pass


def import_cli():
    """foxhom.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "foxhom" / "cli.py").is_file():
        raise BenchError(f"no foxhom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import foxhom.cli

    if Path(foxhom.cli.__file__).resolve().parent != SRC / "foxhom":
        raise BenchError(f"foxhom imported from {foxhom.cli.__file__}, not {SRC}")
    return foxhom.cli


@dataclass
class Outcome:
    argv: tuple
    seconds: float
    exit_code: object
    stdout: str
    stderr: str


def run_op(cli, argv, tracer=None):
    """One CLI invocation, timed, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.call(spans.CLI, cli.main, list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code = f"raised {exc!r}"
    return Outcome(argv, time.perf_counter() - start, code, out.getvalue(), err.getvalue())


@dataclass
class Pass:
    wall: float
    outcomes: list
    digests: list
    problems: list


def run_pass(cli, ops, expected, tracer=None, after_op=None):
    """Run ops in order and gate them; after_op runs between ops, untimed."""
    outcomes = []
    for argv in ops:
        outcomes.append(run_op(cli, argv, tracer))
        if after_op is not None:
            after_op()
    wall = sum(o.seconds for o in outcomes)
    digests, problems = [], []
    for o in outcomes:
        digest, problem = gate.check(o.argv, o.exit_code, o.stdout, expected)
        digests.append(digest)
        if problem:
            problems.append(f"{gate.op_key(o.argv)}: {problem} {o.stderr.strip()}".strip())
    return Pass(wall, outcomes, digests, problems)


def measure_setup(samples=SETUP_SAMPLES):
    """Set-up seconds of fresh interpreters, raw and scaled to REF_SECONDS.

    Each probe is divided by the reference kernel timed around it and
    multiplied by REF_SECONDS: the set-up time on a host where the kernel
    takes REF_SECONDS, so a period of slow host does not read as slow set-up.
    """
    def probe():
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1])

    probe()  # warms the bytecode cache
    raw, blocks = [], [reference_block()]
    for _ in range(samples):
        raw.append(probe())
        blocks.append(reference_block())
    scaled = [t / ref * REF_SECONDS for t, ref in zip(raw, around(blocks))]
    return scaled, raw


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
    }


def _enough(start, rounds, seconds, minimum):
    """Stop once another round of the mean length would overrun the budget."""
    elapsed = time.perf_counter() - start
    return rounds >= minimum and elapsed + elapsed / rounds > seconds


def reference_kernel():
    """Seconds for a fixed pure-Python workload that shares no code with foxhom.

    It does the two kinds of work foxhom does: products of dict-keyed
    polynomials, and Euclidean row reduction of an integer matrix whose
    entries grow to a hundred-odd bits.  A period in which the host runs
    slower slows it by about the same factor as the ops around it.
    """
    start = time.perf_counter()
    poly = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(8) for j in range(8)}
    acc = {(0, 0): 1}
    for _ in range(3):
        out = {}
        for (i, j), c in acc.items():
            for (k, l), d in poly.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
        acc = out
    rng = random.Random(1)
    n = 30
    rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        while any(row[r] for row in rows[r + 1:]):
            live = [q for q in range(r, n) if rows[q][r]]
            p = min(live, key=lambda q: abs(rows[q][r]))
            rows[r], rows[p] = rows[p], rows[r]
            pivot = rows[r]
            for q in range(r + 1, n):
                f = rows[q][r] // pivot[r]
                if f:
                    rows[q] = [u - f * v for u, v in zip(rows[q], pivot)]
    return time.perf_counter() - start


def reference_block():
    return [reference_kernel() for _ in range(REF_PER_BLOCK)]


def around(blocks):
    """Median kernel time around each item timed between two blocks."""
    return [statistics.median(a + b) for a, b in zip(blocks, blocks[1:])]


def end_to_end(cli, workload, seed, seconds, expected):
    setup, raw_setup = measure_setup()
    passes = workload.passes(seed)
    run_op(cli, workload.strata[0][0])  # warm-up, not measured

    done, blocks = [], [reference_block()]
    start = time.perf_counter()
    while not _enough(start, len(done), seconds, MIN_PASSES):
        done.append(run_pass(cli, next(passes), expected,
                             after_op=lambda: blocks.append(reference_block())))
    # each op is divided by the kernel times just before and just after it
    refs = iter(around(blocks))
    per_pass = [[o.seconds / next(refs) for o in p.outcomes] for p in done]
    walls = [sum(ops) for ops in per_pass]
    latencies = [t for ops in per_pass for t in ops]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (statistics.median(walls), "ref"),
        "op_p50_ref": (statistics.median(latencies), "ref"),
        "op_p90_ref": (statistics.quantiles(latencies, n=10)[8], "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "wall_ref": len(walls),
        "op_p50_ref": len(latencies),
        "op_p90_ref": len(latencies),
        "peak_rss_mb": 1,
        "ref_s": sum(map(len, blocks)),
    }
    raw = [o.seconds for p in done for o in p.outcomes]
    raw_seconds = {
        "wall_s": statistics.median(p.wall for p in done),
        "op_p50_s": statistics.median(raw),
        "op_p90_s": statistics.quantiles(raw, n=10)[8],
        "ref_s": statistics.median(t for block in blocks for t in block),
        "setup_s": statistics.median(raw_setup),
    }
    return metrics, samples, done, {"raw_seconds": raw_seconds}


def traced(cli, workload, seed, seconds, expected):
    ops = next(workload.passes(seed))
    run_op(cli, workload.strata[0][0])  # warm-up, not measured
    done, traces = [], []
    start = time.perf_counter()
    while not _enough(start, len(traces), seconds, 1):
        done.append(run_pass(cli, ops, expected))
        tracer = spans.Tracer()
        with tracer:
            done.append(run_pass(cli, ops, expected, tracer))
        traces.append(tracer)
    leftover = spans.wrapped_bindings()
    if leftover:
        raise BenchError(f"span wrappers left installed: {leftover}")
    untraced_wall = statistics.median(p.wall for p in done[0::2])
    traced_wall = statistics.median(p.wall for p in done[1::2])
    metrics = spans.layer_metrics(traces)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    samples = {name: len(traces) if unit == "s" else 1 for name, (_, unit) in metrics.items()}
    overhead = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    return metrics, samples, done, {"overhead": overhead}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_cli()
        expected = gate.load_expected()
        measure = traced if args.trace else end_to_end
        metrics, samples, done, extra = measure(cli, workload, args.seed, args.seconds, expected)
    except (BenchError, OSError, ImportError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(p.outcomes) for p in done)
    problems = [msg for p in done for msg in p.problems]
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(done),
        "ops_per_pass": len(workload.strata),
        "samples": samples,
        "fail_ratio": len(problems) / attempted,
        **extra,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
