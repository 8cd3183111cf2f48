"""One repetition of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/rep.py --workload NAME --seed N --out FILE
        [--trace] [--setup-only] [--smoke]

Measures set-up (import folclass, parse, build tables), then the workload's
work up to its checked verdict, and writes one JSON object to --out (and,
with --trace, the spans beside it as <out>.spans.json).  Untraced times are
scaled to the reference speed of speed.py, and the raw ones kept beside them
as raw_*; traced repetitions are not sampled, so their spans hold only
folclass's work.  Exits 3 when folclass cannot be imported from this
checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import speed  # noqa: E402  (the benchmark's own modules import no folclass)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NO_PACKAGE = 3


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    inputs = workloads.choose_inputs(args.workload, args.seed, args.smoke)
    speed.probe()  # warm-up, untimed
    probes = speed.time_probes()
    started = time.perf_counter()
    try:
        state, tables_s = workloads.setup(args.workload, inputs)
    except ImportError as exc:
        print(f"rep: cannot import folclass from {SRC}: {exc}", file=sys.stderr)
        return NO_PACKAGE
    raw_setup_s = time.perf_counter() - started
    probes += speed.time_probes()
    package = sys.modules["folclass"].__file__
    if os.path.commonpath([package, SRC]) != SRC:
        print(f"rep: folclass was imported from {package}, not from {SRC}", file=sys.stderr)
        return NO_PACKAGE
    result = {
        "inputs": inputs,
        "setup_s": raw_setup_s * speed.scale(probes),
        "raw_setup_s": raw_setup_s,
        "tables_s": tables_s,
    }
    if not args.setup_only:
        result.update(_measure(args, inputs, state, tables_s))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(args, inputs, state, tables_s):
    tracer = tracing.Tracer(run_id=os.path.basename(args.out)) if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    checks = workloads.Checks()
    sampler = contextlib.nullcontext() if args.trace else speed.Sampler()
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(args.out))) as work_dir, sampler:
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            workloads.run(args.workload, inputs, state, tracer, checks, work_dir)
        except Exception as exc:  # a crash of the program is a failed check, reported as data
            checks.check(f"exception: {type(exc).__name__}: {exc}", False)
        wall_s = time.perf_counter() - started
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu_s = _cpu_s(children_after) - _cpu_s(children_before)
    cpu_s = _cpu_s(self_after) - _cpu_s(self_before) + child_cpu_s
    # a traced repetition is not sampled: its times stay raw
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "raw_wall_s": wall_s, "raw_cpu_s": cpu_s}
    if not args.trace:
        factor = sampler.factor()
        out.update(
            wall_s=(wall_s - sampler.spent_wall_s) * factor,
            cpu_s=(cpu_s - sampler.spent_cpu_s) * factor,
            speed_factor=factor,
            speed_samples=len(sampler.samples),
        )
    out.update(
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
    )
    if args.trace:
        candidates = 4 * (inputs["q"] ** 8 - 1) if args.workload.startswith("verify") else 0
        out["layers"] = tracing.layer_metrics(tracer, wall_s, tables_s, child_cpu_s, candidates)
        tracer.write(args.out[: -len(".json")] + ".spans.json")
    return out


if __name__ == "__main__":
    sys.exit(main())
