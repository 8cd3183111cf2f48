"""Command-line frontend.

Commands: enumerate, classify, verify-families, verify-theorem, cartier,
fields.  Exit codes: 0 success, 1 usage or internal error, 2 when a
verification command finds counterexamples (unmatched scalar classes,
inadmissible family instances, a vanishing trace).  Summary reports are
JSON by default (CSV with --format csv); enumerate and verify-theorem
write JSON-lines per-class detail when --detail names a file.  All report
files embed a run manifest; timing fields (and the worker count) are
suppressed by --no-timing so identical inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
import time

from . import __version__
from .cartier import Quadric, TraceOperator
from .classifier import classify
from .derivation import DerivationTriple, LieCase
from .enumerator import (
    case_c_corollaries,
    total_triple_count,
    verify_completeness,
    verify_soundness,
)
from .errors import FolclassError, ParseError
from .finite_field import _MAX_DIGITS, _read_element, format_modulus, parse_field
from .polynomial import MAX_EXPONENT, BiPoly, parse_poly

_ALL_CASES = tuple(LieCase)


def _positive_int(text):
    """argparse type for counts that must be at least 1 (--jobs, --e-max).

    Only ASCII digits are read, as in field literals; int() alone would also
    take other scripts' digits, signs, spaces and underscores.  A value of
    more than _MAX_DIGITS digits is refused by its length before int() reads
    it, because only some Python versions cap int() there."""
    if sum("0" <= ch <= "9" for ch in text) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"number longer than {_MAX_DIGITS} digits")
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_cases(text):
    """--case: all, or a comma list of distinct Lie cases."""
    if text.strip().lower() == "all":
        return _ALL_CASES
    cases = tuple(LieCase.from_name(part) for part in text.split(","))
    for i, case in enumerate(cases):
        if case in cases[:i]:
            raise ValueError(f"Lie case {case.name} is named twice in --case {text!r}")
    return cases


def _manifest(command, args, **extra):
    m = {"tool": "folclass", "version": __version__, "command": command}
    m.update(extra)
    outputs = {"summary": args.out or "stdout"}
    if getattr(args, "detail", None):
        outputs["detail"] = args.detail
    m["outputs"] = outputs
    return m


def _report_file(path):
    """The file that a report path names: a symlink is resolved to its
    target, and an existing path that is not a regular file is refused, so
    that no FIFO, device or folder is replaced by the report."""
    target = os.path.realpath(path) if os.path.islink(path) else path
    if os.path.exists(target) and not os.path.isfile(target):
        kind = "a directory" if os.path.isdir(target) else "not a regular file"
        raise FolclassError(f"cannot write report to {path}: it is {kind}")
    return target


def _write_atomic(path, content):
    target = _report_file(path)
    tmp = target + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(content)
        try:
            os.replace(tmp, target)
        except OSError:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise FolclassError(f"cannot write report to {path}: {exc}") from exc


def _check_writable(path):
    """Refuse a report path that cannot be written, before any work is done:
    it must name a regular file or nothing (_report_file), and the folder
    of that file must exist and be writable."""
    folder = os.path.dirname(_report_file(path)) or "."
    if not os.path.isdir(folder):
        reason = f"no directory {folder!r}"
    elif not os.access(folder, os.W_OK):
        reason = f"directory {folder!r} is not writable"
    else:
        return
    raise FolclassError(f"cannot write report to {path}: {reason}")


def _emit(args, payload, started=None, csv_rows=None):
    """Write the summary (csv_rows under --format csv, else the payload).

    csv_rows is a nonempty list of dicts with the same keys in the same
    order, one per row; the header is the first row's keys.

    The one owner of the timing block, added last: the runtime since
    `started` and, for the commands that take it, the --jobs value, unless
    --no-timing.
    """
    if started is not None and not args.no_timing:
        timing = {"runtime_seconds": round(time.monotonic() - started, 6)}
        if hasattr(args, "jobs"):
            timing["jobs"] = args.jobs
        payload["timing"] = timing
    if args.format == "csv" and csv_rows is not None:
        lines = [",".join(csv_rows[0])]
        lines += [",".join(str(v) for v in row.values()) for row in csv_rows]
        content = "\n".join(lines) + "\n"
    else:
        content = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_atomic(args.out, content)
    else:
        sys.stdout.write(content)


# -- commands -----------------------------------------------------------------


def cmd_fields(args):
    spec = parse_field(args.field)
    info = {
        "literal": spec.literal(),
        "p": spec.p,
        "k": spec.k,
        "order": spec.order,
        "modulus": format_modulus(spec.modulus),
        "elements": [str(x) for x in spec.elements()],
    }
    if args.tables:
        info["add_table"] = [list(r) for r in spec.add]
        info["mul_table"] = [list(r) for r in spec.mul]
        info["inv_table"] = list(spec.inv)
    payload = {"manifest": _manifest("fields", args, field=spec.literal()), "field": info}
    _emit(args, payload)
    return 0


def cmd_classify(args):
    started = time.monotonic()
    spec = parse_field(args.field)
    case = LieCase.from_name(args.case)
    triple = DerivationTriple(
        case,
        parse_poly(args.a, spec),
        parse_poly(args.b, spec),
        parse_poly(args.c, spec),
    )
    matches = classify(triple)
    payload = {
        "manifest": _manifest("classify", args, field=spec.literal(), case=case.name),
        "triple": triple.to_json_dict(),
        "matches": [m.to_json_dict() for m in matches],
    }
    _emit(args, payload, started)
    return 0


def _detail_lines(classes):
    # one scalar class per line; _run_cases puts the case's manifest head first
    return [
        json.dumps({"triple": triple.to_json_dict(), "matches": [m.to_json_dict() for m in matches]})
        for triple, matches in classes
    ]


def _run_task(task):
    """One stage of one case, as (report-ready data, seconds it took).

    A task is (stage, field literal, case name, detail).  A worker inherits
    the task list at the fork and is sent only an index into it, and the
    pair it sends back must be marshal-able: dicts, lists, strings and
    numbers, as JSON holds.  A soundness task's data is verify_soundness's
    report; a completeness task's is {"report": the report of
    verify_completeness, "corollaries": ... (cases I and II), "detail":
    [lines] (only when detail is set)}, the last two read from its classes.
    """
    started = time.monotonic()
    stage, literal, case_name, detail = task
    spec, case = parse_field(literal), LieCase[case_name]
    if stage == "soundness":
        return verify_soundness(spec, case), time.monotonic() - started
    report, classes = verify_completeness(spec, case)
    out = {"report": report}
    if case in (LieCase.I, LieCase.II):
        all_zero, all_nonzero = case_c_corollaries([t for t, _m in classes])
        out["corollaries"] = {
            "all_valid_have_c_zero": all_zero,
            "all_valid_have_c_nonzero": all_nonzero,
        }
    if detail:
        out["detail"] = _detail_lines(classes)
    return out, time.monotonic() - started


def _run_tasks(tasks, jobs):
    """The results of the tasks, in task order.

    At --jobs 1, or with one task, they run in this process.  Else
    min(jobs, len(tasks)) workers are forked for the whole call, each fed
    over its own pair of pipes.  Each idle worker is sent the index of the
    next task, every completeness task before any soundness task, since
    completeness is the longer stage in every case.  A worker sends back
    its (data, seconds) marshalled, or its exception pickled, which is
    raised here; a worker that ends without sending its result raises
    FolclassError.  Every worker has ended and been reaped when this
    returns or raises."""
    if jobs > 1 and not hasattr(os, "fork"):
        raise FolclassError(f"--jobs {jobs} needs os.fork, which this platform lacks; use --jobs 1")
    jobs = min(jobs, len(tasks))
    if jobs == 1:
        return list(map(_run_task, tasks))
    import select

    todo = iter(sorted(range(len(tasks)), key=lambda i: tasks[i][0] != "completeness"))
    results = [None] * len(tasks)
    workers = {}  # result pipe -> [pid, task pipe, index of the task it runs or None]
    try:
        for _ in range(jobs):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # an earlier worker's task pipe held open here would never end
                    for fd in (task_w, result_r, *(w[1] for w in workers.values())):
                        os.close(fd)
                    for pipe in workers:
                        pipe.close()
                    with open(result_w, "wb") as out:
                        _serve(tasks, task_r, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(result_w)
            workers[open(result_r, "rb")] = [pid, task_w, None]
        for worker in workers.values():
            _assign(worker, next(todo, None))
        while busy := [pipe for pipe, worker in workers.items() if worker[2] is not None]:
            for pipe in select.select(busy, [], [])[0]:
                worker = workers[pipe]
                size = int.from_bytes(pipe.read(8), "little")
                reply = pipe.read(size)
                if not size or len(reply) < size:
                    raise FolclassError(_lost_worker(pipe, workers.pop(pipe), tasks))
                kind, body = marshal.loads(reply)
                if kind == "e":
                    import pickle

                    raise pickle.loads(body)
                results[worker[2]] = body
                _assign(worker, next(todo, None))
        return results
    finally:
        # closing a task pipe ends an idle worker; a busy one is left only
        # while an error propagates, and is killed
        for pipe, (pid, task_w, index) in workers.items():
            pipe.close()
            os.close(task_w)
            if index is not None:
                os.kill(pid, 9)  # SIGKILL
        for pid, _task_w, _index in workers.values():
            os.waitpid(pid, 0)


def _serve(tasks, task_fd, out):
    """A worker's loop: run each task whose index arrives on task_fd and
    write to out ("r", its result) or ("e", its pickled exception),
    marshalled and after its length, until task_fd ends.  One read takes a
    whole index, since the next is sent only after this one's result."""
    while index := os.read(task_fd, 32):
        try:
            reply = marshal.dumps(("r", _run_task(tasks[int(index)])))
        except Exception as exc:
            import pickle

            reply = marshal.dumps(("e", pickle.dumps(exc)))
        out.write(len(reply).to_bytes(8, "little") + reply)
        out.flush()


def _assign(worker, index):
    """Send a worker the index of its next task, or nothing at None."""
    worker[2] = index
    if index is not None:
        try:
            os.write(worker[1], str(index).encode())
        except BrokenPipeError:
            pass  # the worker has ended: its result pipe reports that to select


def _lost_worker(pipe, worker, tasks):
    """Why a worker's result pipe ended before its result: the worker, its
    task and how it ended.  Its pipes are closed and it is reaped here."""
    pid, task_w, index = worker
    pipe.close()
    os.close(task_w)
    status = os.waitpid(pid, 0)[1]
    if os.WIFSIGNALED(status):
        import signal

        how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        how = f"exited with code {os.waitstatus_to_exitcode(status)}"
    stage, _literal, case_name, _detail = tasks[index]
    return f"worker process {pid} {how} before sending the {stage} result of case {case_name}"


def _run_cases(args, stages):
    """Run the stages of every --case over --field, case by case, at --jobs
    (1 for verify-families, which has none).

    Returns the manifest's field and cases, and one {stage: data} map per
    case.  Unless --no-timing, each completeness report gets its task's
    runtime_seconds.  With --detail, the detail file holds each case's
    manifest head, then that case's class lines.
    """
    detail = getattr(args, "detail", None)
    if detail and args.out and os.path.realpath(detail) == os.path.realpath(args.out):
        raise FolclassError(f"--detail and --out name the same file {args.out!r}")
    literal = parse_field(args.field).literal()
    cases = _parse_cases(args.case)
    tasks = [(stage, literal, case.name, bool(detail)) for case in cases for stage in stages]
    for path in (args.out, detail):
        if path:
            _check_writable(path)
    results = iter(_run_tasks(tasks, getattr(args, "jobs", 1)))
    runs, lines = [], []
    for case in cases:
        # zip stops after the last stage, so it takes exactly this case's results
        timed = dict(zip(stages, results))
        runs.append({stage: data for stage, (data, _seconds) in timed.items()})
        if "completeness" not in timed:
            continue
        data, seconds = timed["completeness"]
        head = {"field": literal, "case": case.name, "tool": "folclass", "version": __version__}
        if not args.no_timing:
            data["report"]["runtime_seconds"] = head["runtime_seconds"] = seconds
        if detail:
            lines += [json.dumps({"manifest": head}), *data["detail"]]
    if detail:
        _write_atomic(detail, "\n".join(lines) + "\n")
    return {"field": literal, "cases": [case.name for case in cases]}, runs


def cmd_enumerate(args):
    started = time.monotonic()
    scope, runs = _run_cases(args, ("completeness",))
    results = [run["completeness"]["report"] for run in runs]
    unmatched = sum(len(r["unmatched"]) for r in results)
    payload = {
        "manifest": _manifest("enumerate", args, **scope),
        "results": results,
        "findings": unmatched,
    }
    _emit(args, payload, started, [_completeness_row(r) for r in results])
    return 2 if unmatched else 0


def _completeness_row(r):
    """The CSV row of one completeness report, keyed by column name."""
    return {
        "field": r["field"],
        "case": r["case"],
        "total_triples": r["total_triples"],
        "valid_count": r["valid_count"],
        "scalar_classes": r["scalar_classes"],
        "matched": r["matched"],
        "unmatched": len(r["unmatched"]),
        "overlaps": len(r["overlaps"]),
        "complete": r["complete"],
        "version": __version__,
        "runtime_seconds": r.get("runtime_seconds", ""),
    }


def cmd_verify_families(args):
    started = time.monotonic()
    scope, runs = _run_cases(args, ("soundness",))
    results = [run["soundness"] for run in runs]
    failures = 0
    csv_rows = []
    for report in results:
        failures += len(report["failures"])
        for family, count in report["instances"].items():
            fam_failures = sum(1 for f in report["failures"] if f["family"] == family)
            row = {
                "field": report["field"],
                "case": report["case"],
                "family": family,
                "instances": count,
                "failures": fam_failures,
                "passed": fam_failures == 0,
                "version": __version__,
            }
            csv_rows.append(row)
    payload = {
        "manifest": _manifest("verify-families", args, **scope),
        "results": results,
        "findings": failures,
    }
    _emit(args, payload, started, csv_rows)
    return 2 if failures else 0


def cmd_verify_theorem(args):
    started = time.monotonic()
    scope, runs = _run_cases(args, ("soundness", "completeness"))
    results = []
    findings = 0
    for run in runs:
        soundness, completeness = run["soundness"], run["completeness"]
        findings += len(soundness["failures"]) + len(completeness["report"]["unmatched"])
        entry = {
            "case": soundness["case"],
            "soundness": soundness,
            "completeness": completeness["report"],
        }
        if "corollaries" in completeness:
            entry["corollaries"] = completeness["corollaries"]
        results.append(entry)
    total = total_triple_count(parse_field(args.field))
    payload = {
        "manifest": _manifest("verify-theorem", args, **scope, total_triples_per_case=total),
        "results": results,
        "findings": findings,
    }
    csv_rows = [
        {**_completeness_row(r["completeness"]), "soundness_failures": len(r["soundness"]["failures"])}
        for r in results
    ]
    _emit(args, payload, started, csv_rows)
    return 2 if findings else 0


def _parse_quadric(text):
    """--G literal: `s,t` (symbolic) or `<elem>,<elem>@GF(q)` (concrete).

    Every ParseError names the literal as typed and a position in it."""
    at = text.rfind("@")
    if at >= 0:
        try:
            spec = parse_field(text[at + 1 :])
        except ParseError as exc:
            raise ParseError(exc.message, text, at + 1 + exc.position) from None
        comma = text.find(",", 0, at)
        extra = text.find(",", comma + 1, at)
        if comma < 0 or extra >= 0:
            raise ParseError("expected two quadric coefficients", text, max(extra, 0))
        s = _read_element(text, spec, 0, comma)
        t = _read_element(text, spec, comma + 1, at)
        return Quadric.concrete(s, t)
    if text.replace(" ", "") == "s,t":
        return Quadric.symbolic()
    raise ParseError("quadric literal must be `s,t` or `<elem>,<elem>@GF(q)`", text, 0)


def cmd_cartier(args):
    started = time.monotonic()
    quadric = _parse_quadric(args.G)
    e_max = args.e_max if args.e_max is not None else (4 if quadric.p == 2 else 3)
    # the trace at e takes e p-th roots of every coefficient it keeps, and
    # SymbolicCoeff's exponents are multiples of 2^-10, so a symbolic trace
    # stops at e = 10; keep p^e - 1, the canonical input's exponent, within
    # MAX_EXPONENT = 2^10, the bound that scale was chosen for
    exponent = quadric.p**e_max - 1
    if exponent > MAX_EXPONENT:
        raise ValueError(
            f"--e-max {e_max}: p^e - 1 = {exponent} is above the exponent "
            f"bound {MAX_EXPONENT} for p = {quadric.p}"
        )
    op = TraceOperator(quadric)
    results = []
    vanished = 0
    for e in range(1, e_max + 1):
        nonzero, form = op.verify_nonvanishing(e)
        if not nonzero:
            vanished += 1
        one = quadric.G.constant_term()
        entry = {
            "e": e,
            "nonzero": nonzero,
            "image": str(form),
            "numerator_degree": form.numerator.total_degree() if nonzero else 0,
            # whether the image is literally 1/G dx^dy (it is for p = 3; for
            # p = 2 the computed image is the square root of G over G instead)
            "image_is_1_over_G": form.numerator == BiPoly.monomial(0, 0, one),
        }
        if quadric.p == 2:
            entry["numerator_squared_equals_G"] = (
                form.numerator * form.numerator == quadric.G
            )
        results.append(entry)
    payload = {
        "manifest": _manifest("cartier", args, G=args.G, p=quadric.p, e_max=e_max),
        "results": results,
        "findings": vanished,
    }
    _emit(args, payload, started)
    return 2 if vanished else 0


# -- parser -------------------------------------------------------------------


def _add_output(p, formats=("json",), timing=True):
    """The summary output options; `fields` reports no timing to omit."""
    p.add_argument("--out", help="write the summary report to this path (atomic)")
    p.add_argument("--format", choices=formats, default="json", help="summary format")
    if timing:
        p.add_argument("--no-timing", action="store_true",
                       help="omit timing fields (for reproducible output)")


def _add_common(p, scan=False):
    """Options of the per-case commands; the scanning ones (enumerate,
    verify-theorem) also take the worker count and the per-class detail file."""
    p.add_argument("--field", required=True, help="field literal, e.g. GF(4) or GF(8;mod=x3+x+1)")
    p.add_argument("--case", default="all", help="Lie case: I, II, III, IV, a comma list, or all")
    if scan:
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes, at most one per (stage, case) task (default 1)")
        p.add_argument("--detail", help="write JSON-lines per-class detail to this path")
    _add_output(p, formats=("json", "csv"))


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; code 2 is reserved for
    verification findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="folclass",
        description="Classify and exhaustively verify rank-one p-closed foliation "
        "generators over small fields of characteristic 2, and check the "
        "iterated Frobenius trace on plane forms.",
    )
    parser.add_argument("--version", action="version", version=f"folclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fields", help="describe a field (modulus, elements, optional tables)")
    p.add_argument("--field", required=True)
    p.add_argument("--tables", action="store_true", help="include add/mul/inv tables")
    _add_output(p, timing=False)
    p.set_defaults(func=cmd_fields)

    p = sub.add_parser("classify", help="classify one triple into the family taxonomy")
    p.add_argument("--field", required=True)
    p.add_argument("--case", required=True, help="Lie case: I, II, III or IV")
    p.add_argument("--a", required=True, help="polynomial literal for a(t)")
    p.add_argument("--b", required=True, help="polynomial literal for b(t)")
    p.add_argument("--c", required=True, help="polynomial literal for c(t)")
    _add_output(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate, filter and classify all triples of a case")
    _add_common(p, scan=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-families", help="check every family instance is admissible")
    _add_common(p)
    p.set_defaults(func=cmd_verify_families)

    p = sub.add_parser("verify-theorem", help="soundness + completeness over one field")
    _add_common(p, scan=True)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("cartier", help="verify nonvanishing of the iterated trace")
    p.add_argument("--G", default="s,t", help="quadric coefficients: `s,t` or `u,u+1@GF(4)`")
    p.add_argument("--e-max", type=_positive_int, default=None, dest="e_max",
                   help="check e = 1..e_max (default 4 for p=2, 3 otherwise); "
                   f"p^e_max - 1 may not exceed {MAX_EXPONENT}")
    _add_output(p)
    p.set_defaults(func=cmd_cartier)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FolclassError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
