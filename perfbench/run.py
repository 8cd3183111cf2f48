"""folclass benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (rep.py), one at a time, in a
closed loop: the next starts when the previous one has ended.  Repetitions
run until the next one would end after --seconds (at least one runs).  With
--trace 0 the run reports the end-to-end metrics: the medians of wall_s,
cpu_s and peak_rss_mb over the repetitions, and setup_s as the median over
every set-up in the run, including extra set-up-only interpreters.  The times
are in reference seconds (speed.py); the raw medians are printed beside them
and kept in the record.  With
--trace 1 repetitions alternate untraced and traced and the run reports the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  A record of the run
(machine, inputs, every repetition) is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUTPUT_DIR = os.path.join(ROOT, ".perfbench")
# Set-ups per run, counting those of the repetitions.  Half are taken before
# the repetitions and the rest after, because the speed of a shared machine
# drifts over seconds and one burst of samples would see only one phase.
SETUP_SAMPLES = 15
DEADLINE_S = 165  # the whole run ends well within 180 s
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class NoPackage(Exception):
    """folclass cannot be imported from this checkout."""


def _rep(args, run_dir, index, deadline, trace=False, setup_only=False):
    out = os.path.join(run_dir, f"rep{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", args.workload, "--seed", str(args.seed), "--out", out]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    # fixed string hashing for steadier timings; temporary files stay in the checkout
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=run_dir)
    started = time.monotonic()
    # its own process group, so that a timeout also stops the scan's pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, preexec_fn=os.setpgrp)
    try:
        code = proc.wait(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = "timeout"
    elapsed = time.monotonic() - started
    if code == 3:
        raise NoPackage(f"folclass could not be imported from {os.path.join(ROOT, 'src')}")
    if code != 0:
        return {"elapsed": elapsed, "trace": trace, "attempted": 1, "failed": 1, "failures": [f"repetition exit {code}"]}
    with open(out) as fh:
        result = json.load(fh)
    result.update(elapsed=elapsed, trace=trace)
    return result


def run(args, run_dir):
    deadline = time.monotonic() + DEADLINE_S
    setups = [_rep(args, run_dir, index, deadline, setup_only=True) for index in range(SETUP_SAMPLES // 2)]
    reps = []
    index = len(setups)
    # one unit is a repetition, or an untraced/traced pair on the traced pass
    unit = (False, True) if args.trace else (False,)
    started = time.monotonic()
    while True:
        unit_started = time.monotonic()
        for trace in unit:
            reps.append(_rep(args, run_dir, index, deadline, trace=trace))
            index += 1
        now = time.monotonic()
        if any("wall_s" not in r for r in reps) or now - started + (now - unit_started) > args.seconds:
            break
    setups += [r for r in reps if "setup_s" in r]
    for _ in range(SETUP_SAMPLES - len(setups)):
        setups.append(_rep(args, run_dir, index, deadline, setup_only=True))
        index += 1
    return reps, setups


def summarize(args, reps, setups):
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    measured = [r for r in reps if "wall_s" in r]
    traced = [r["layers"] for r in measured if r["trace"]]
    untraced = [r for r in measured if not r["trace"]]
    if not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        values = tracing.combine(traced, [r["raw_wall_s"] for r in untraced])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _better in tracing.PER_LAYER}
    else:
        values = {name: median(r[name] for r in measured) for name, _unit in END_TO_END[1:]}
        values["setup_s"] = median(r["setup_s"] for r in setups if "setup_s" in r)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _raw(name, reps, setups):
    """The raw median beside a time in reference seconds, for the printout."""
    if name not in ("setup_s", "wall_s", "cpu_s"):
        return ""
    raw = [r["raw_" + name] for r in (setups if name == "setup_s" else reps) if "raw_" + name in r]
    return f"  (raw median {median(raw):.6g} s)" if raw else ""


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def record(args, reps, setups, result):
    """Write the run record, and return its path."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = os.path.join(OUTPUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{stamp}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    inputs = next((r["inputs"] for r in reps + setups if "inputs" in r), None)
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "inputs": inputs,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "cpu_model": _cpu_model(),
                "git_commit": _git_commit(),
                "repetitions": [{k: v for k, v in r.items() if k != "inputs"} for r in reps],
                "setup_s_samples": [r.get("setup_s") for r in setups],
                "result": result,
            },
            fh,
            indent=1,
        )
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="GF(2)/GF(4) and shallow traces, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "folclass", "__init__.py")):
        print(f"run: no folclass package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR)
    try:
        reps, setups = run(args, run_dir)
        result = summarize(args, reps, setups)
        path = record(args, reps, setups, result)
        for spans in sorted(f for f in os.listdir(run_dir) if f.endswith(".spans.json")):
            shutil.move(os.path.join(run_dir, spans), path[: -len(".json")] + "-" + spans)
    except NoPackage as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checks = f"{result['failed']} of {result['attempted']} checks"
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, record {os.path.relpath(path, ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{_raw(name, reps, setups)}")
    print(f"  {'failed_frac':34s} {result['failed'] / max(1, result['attempted']):.6g} ({checks})")
    for failure in sorted({f for r in reps for f in r["failures"]}):
        print(f"  failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
