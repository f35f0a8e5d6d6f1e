"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload games-mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  The workload's fixed job runs
in whole rounds, one command at a time, for about --seconds seconds, and the
end-to-end metrics are medians over the rounds.  With --trace 1 the job runs
alternately untraced and traced (the difference is the tracing overhead,
reported in the trace file), then the layer probes of layers.py give every
per-layer metric.  Results and traces are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11

IMPORT_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import slithercode, slithercode.cli
print(time.perf_counter() - t0)
"""


def import_package() -> float:
    """Import slithercode and slithercode.cli from SRC; return the seconds taken."""
    if not (SRC / "slithercode" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'slithercode'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import slithercode
    import slithercode.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(slithercode.__file__).resolve().parent != SRC / "slithercode":
        raise SystemExit(f"error: imported slithercode from {slithercode.__file__}")
    return elapsed


def import_seconds(count: int) -> list:
    """Import times of the package in `count` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], env=os.environ,
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return samples


def run_round(workload, inp, runner) -> tuple:
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    outs = workload.job(inp, runner)
    return outs, time.perf_counter() - w0, time.process_time() - c0


def fingerprint(outs: list) -> list:
    """Label, exit status and a digest of the output of each operation."""
    return [(o.label, o.rc, hashlib.sha256(repr(o.out).encode()).hexdigest()) for o in outs]


@dataclass
class Measurement:
    rounds: list = field(default_factory=list)       # (wall s, cpu s) per untraced round
    trace_pairs: list = field(default_factory=list)  # (untraced, traced) wall s
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def measure(workload, runner, seed: int, seconds: float, tracer=None) -> Measurement:
    """Run whole rounds of the workload's job for about `seconds`, checking as they run.

    Only digests of the outputs outlive a round, so every round starts from
    the same live heap.  With a tracer, each untraced round is followed by a
    traced one.
    """
    inp = workload.inputs(seed)
    m, reference = Measurement(), None
    start = time.perf_counter()
    while True:
        outs, wall, cpu = run_round(workload, inp, runner)
        m.rounds.append((wall, cpu))
        runs = [outs]
        if tracer:
            tracer.install()
            try:
                traced, traced_wall, _ = run_round(workload, inp, runner)
            finally:
                tracer.uninstall()
            m.trace_pairs.append((wall, traced_wall))
            runs.append(traced)
        if reference is None:
            reference = fingerprint(outs)
            try:
                m.errors += workload.check(inp, outs, runner)
            except (ValueError, KeyError, IndexError) as exc:
                m.errors.append(f"output could not be checked: {exc!r}")
        for o in runs:
            m.attempted += len(o)
            m.failed += sum(op.failed for op in o)
            if fingerprint(o) != reference:
                m.errors.append(f"round {len(m.rounds)}: outputs differ from round 1")
        outs = traced = runs = None
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(m.rounds) > seconds:
            return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("games-mc", "codec-large", "exact-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("SLITHER_THREADS", None)
    # Half the fresh imports run before the job and half after, so that the
    # median spans the run rather than the host's speed in its first seconds.
    setup = [import_package(), *import_seconds(SETUP_SAMPLES // 2)]

    import slithercode.cli as cli
    from workloads import WORKLOADS, Runner

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = None
    if args.trace:
        from layers import Tracer, probe_all

        tracer = Tracer()
    m = measure(WORKLOADS[args.workload], Runner(cli), args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += import_seconds(SETUP_SAMPLES - len(setup))
    print("rounds (wall s, cpu s): " + ", ".join(f"({w:.3f}, {c:.3f})" for w, c in m.rounds),
          file=sys.stderr)

    if tracer:
        job_spans = tracer.collect()
        gc.collect()
        values = probe_all(args.seed)
        kind = "per_layer"
        write_trace(args, job_spans, m.trace_pairs, values)
    else:
        values = {"setup_s": statistics.median(setup),
                  "job_s": statistics.median(w for w, _ in m.rounds),
                  "cpu_s": statistics.median(c for _, c in m.rounds),
                  "peak_rss_mb": peak_rss_mb}
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json {kind}")

    for e in m.errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not m.errors, "attempted": m.attempted, "failed": m.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def write_trace(args, spans, pairs, values) -> None:
    """Write the job's spans (npz) and a summary with the tracing overhead (json)."""
    import numpy as np

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    np.savez_compressed(f"{stem}.npz", names=np.array(spans.names), name=spans.name, parent=spans.parent,
             start=spans.start, end=spans.end, thread=spans.thread)
    overhead = [traced / plain - 1 for plain, traced in pairs]
    summary = {"workload": args.workload, "seed": args.seed,
               "job_s_untraced": [p for p, _ in pairs], "job_s_traced": [t for _, t in pairs],
               "overhead_share": statistics.median(overhead),
               "per_layer": values, "job_spans": spans.summary()}
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"tracing overhead on job_s: {100 * summary['overhead_share']:.1f}%", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
