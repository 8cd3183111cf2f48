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
import os
import sys
import time

from . import __version__
from .cartier import Quadric, TraceOperator
from .polynomial import BiPoly
from .classifier import classify
from .derivation import DerivationTriple, LieCase
from .enumerator import (
    case_c_corollaries,
    total_triple_count,
    verify_completeness,
    verify_soundness,
)
from .errors import FolclassError, ParseError
from .finite_field import _MAX_DIGITS, format_modulus, parse_element, parse_field
from .polynomial import MAX_EXPONENT, parse_poly

_ALL_CASES = tuple(LieCase)


def _positive_int(text):
    """argparse type for counts that must be at least 1 (--jobs, --e-max).

    A value of more than _MAX_DIGITS digits is refused by its length before
    int() reads it, because only some Python versions cap int() there."""
    if sum("0" <= ch <= "9" for ch in text) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"number longer than {_MAX_DIGITS} digits")
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _parse_cases(text):
    if text.lower() == "all":
        return _ALL_CASES
    return tuple(LieCase.from_name(part) for part in text.split(","))


def _manifest(command, args, **extra):
    m = {"tool": "folclass", "version": __version__, "command": command}
    m.update(extra)
    outputs = {"summary": args.out or "stdout"}
    if getattr(args, "detail", None):
        outputs["detail"] = args.detail
    m["outputs"] = outputs
    return m


def _write_atomic(path, content):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
        raise FolclassError(f"cannot write report to {path}: {exc}") from exc


def _emit(args, payload, started=None, jobs=None, csv_rows=None):
    """Write the summary (csv_rows under --format csv, else the payload).

    The one owner of the timing block, added last: the runtime since
    `started` and the --jobs value, unless --no-timing.
    """
    if started is not None and not args.no_timing:
        timing = {"runtime_seconds": round(time.monotonic() - started, 6)}
        if jobs is not None:
            timing["jobs"] = jobs
        payload["timing"] = timing
    if args.format == "csv" and csv_rows is not None:
        header, rows = csv_rows
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(v) for v in row))
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
        q, add, mul, inv = spec.tables()
        info["add_table"] = [list(add[i * q : (i + 1) * q]) for i in range(q)]
        info["mul_table"] = [list(mul[i * q : (i + 1) * q]) for i in range(q)]
        info["inv_table"] = list(inv)
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


def _detail_lines(report, with_timing):
    # first line carries the per-case manifest; one scalar class per line after
    head = {
        "field": report.field,
        "case": report.case,
        "tool": "folclass",
        "version": __version__,
    }
    if with_timing:
        head["runtime_seconds"] = report.runtime_seconds
    lines = [json.dumps({"manifest": head})]
    for triple, matches in report.class_matches:
        lines.append(
            json.dumps(
                {"triple": triple.to_json_dict(), "matches": [m.to_json_dict() for m in matches]}
            )
        )
    return lines


def _run_task(task):
    """One stage of one case, as report-ready data.

    A task is (stage, field literal, case name, with_timing, detail).  It
    carries the literal, not the FieldSpec: parse_field returns the field's
    one interned spec in the parent and in a worker alike.  A soundness task
    returns its report's JSON dict; a completeness task returns
    {"report": ..., "corollaries": ... (cases I and II), "detail": [lines]
    (only when detail is set)}.
    """
    stage, literal, case_name, with_timing, detail = task
    spec, case = parse_field(literal), LieCase[case_name]
    if stage == "soundness":
        return verify_soundness(spec, case).to_json_dict()
    report = verify_completeness(spec, case)
    out = {"report": report.to_json_dict(with_timing=with_timing)}
    if case in (LieCase.I, LieCase.II):
        all_zero, all_nonzero = case_c_corollaries([t for t, _m in report.class_matches])
        out["corollaries"] = {
            "all_valid_have_c_zero": all_zero,
            "all_valid_have_c_nonzero": all_nonzero,
        }
    if detail:
        out["detail"] = _detail_lines(report, with_timing)
    return out


def _run_tasks(tasks, jobs):
    """The results of the tasks, in task order: in this process at --jobs 1,
    else in one pool of min(jobs, len(tasks)) workers for the whole run."""
    jobs = min(jobs, len(tasks))
    if jobs == 1:
        return list(map(_run_task, tasks))
    # imported here: with socket and pickle it adds about 1 MB to a serial run
    import multiprocessing

    # the platform's default start method: tasks carry only literals, so any
    # method works, and forked workers (Linux's default before Python 3.14)
    # skip re-importing the package
    with multiprocessing.Pool(jobs) as pool:
        return list(pool.imap(_run_task, tasks))


def cmd_enumerate(args):
    started = time.monotonic()
    spec = parse_field(args.field)
    cases = _parse_cases(args.case)
    with_timing, detail = not args.no_timing, bool(args.detail)
    tasks = [("completeness", spec.literal(), case.name, with_timing, detail) for case in cases]
    results = []
    detail_lines = []
    unmatched = 0
    for out in _run_tasks(tasks, args.jobs):
        unmatched += len(out["report"]["unmatched"])
        results.append(out["report"])
        detail_lines.extend(out.get("detail", ()))
    payload = {
        "manifest": _manifest(
            "enumerate",
            args,
            field=spec.literal(),
            cases=[c.name for c in cases],
        ),
        "results": results,
        "findings": unmatched,
    }
    if args.detail:
        _write_atomic(args.detail, "\n".join(detail_lines) + "\n")
    _emit(args, payload, started, args.jobs, _completeness_csv(results))
    return 2 if unmatched else 0


def _completeness_csv(results, soundness_failures=None):
    """CSV rows of the completeness reports; verify-theorem passes each
    case's soundness failure count, which becomes the last column."""
    header = [
        "field",
        "case",
        "total_triples",
        "valid_count",
        "scalar_classes",
        "matched",
        "unmatched",
        "overlaps",
        "complete",
        "version",
        "runtime_seconds",
    ]
    rows = []
    for r in results:
        rows.append(
            [
                r["field"],
                r["case"],
                r["total_triples"],
                r["valid_count"],
                r["scalar_classes"],
                r["matched"],
                len(r["unmatched"]),
                len(r["overlaps"]),
                r["complete"],
                __version__,
                r.get("runtime_seconds", ""),
            ]
        )
    if soundness_failures is not None:
        header.append("soundness_failures")
        for row, count in zip(rows, soundness_failures):
            row.append(count)
    return header, rows


def cmd_verify_families(args):
    started = time.monotonic()
    spec = parse_field(args.field)
    cases = _parse_cases(args.case)
    tasks = [("soundness", spec.literal(), case.name, False, False) for case in cases]
    results = _run_tasks(tasks, 1)
    failures = 0
    csv_rows = []
    for report in results:
        failures += len(report["failures"])
        for family, count in report["instances"].items():
            fam_failures = sum(1 for f in report["failures"] if f["family"] == family)
            csv_rows.append(
                [spec.literal(), report["case"], family, count, fam_failures,
                 fam_failures == 0, __version__]
            )
    payload = {
        "manifest": _manifest(
            "verify-families", args, field=spec.literal(), cases=[c.name for c in cases]
        ),
        "results": results,
        "findings": failures,
    }
    header = ["field", "case", "family", "instances", "failures", "passed", "version"]
    _emit(args, payload, started, csv_rows=(header, csv_rows))
    return 2 if failures else 0


def cmd_verify_theorem(args):
    started = time.monotonic()
    spec = parse_field(args.field)
    cases = _parse_cases(args.case)
    with_timing, detail = not args.no_timing, bool(args.detail)
    tasks = [
        (stage, spec.literal(), case.name, with_timing, detail)
        for case in cases
        for stage in ("soundness", "completeness")
    ]
    outs = _run_tasks(tasks, args.jobs)
    results = []
    detail_lines = []
    findings = 0
    for case, soundness, completeness in zip(cases, outs[0::2], outs[1::2]):
        findings += len(soundness["failures"]) + len(completeness["report"]["unmatched"])
        entry = {
            "case": case.name,
            "soundness": soundness,
            "completeness": completeness["report"],
        }
        if "corollaries" in completeness:
            entry["corollaries"] = completeness["corollaries"]
        results.append(entry)
        detail_lines.extend(completeness.get("detail", ()))
    payload = {
        "manifest": _manifest(
            "verify-theorem",
            args,
            field=spec.literal(),
            cases=[c.name for c in cases],
            total_triples_per_case=total_triple_count(spec),
        ),
        "results": results,
        "findings": findings,
    }
    if args.detail:
        _write_atomic(args.detail, "\n".join(detail_lines) + "\n")
    csv_rows = _completeness_csv(
        [r["completeness"] for r in results],
        [len(r["soundness"]["failures"]) for r in results],
    )
    _emit(args, payload, started, args.jobs, csv_rows)
    return 2 if findings else 0


def _parse_quadric(text):
    """--G literal: `s,t` (symbolic) or `<elem>,<elem>@GF(q)` (concrete)."""
    text = text.strip()
    if "@" in text:
        coeffs, field_lit = text.rsplit("@", 1)
        spec = parse_field(field_lit)
        parts = coeffs.split(",")
        if len(parts) != 2:
            raise ParseError("expected two quadric coefficients", text, 0)
        s = parse_element(parts[0], spec)
        t = parse_element(parts[1], spec)
        return Quadric.concrete(s, t)
    if text.replace(" ", "") == "s,t":
        return Quadric.symbolic()
    raise ParseError("quadric literal must be `s,t` or `<elem>,<elem>@GF(q)`", text, 0)


def cmd_cartier(args):
    started = time.monotonic()
    quadric = _parse_quadric(args.G)
    e_max = args.e_max if args.e_max is not None else (4 if quadric.p == 2 else 3)
    # the trace at e multiplies by G^(p^e - 1); keep it within parse_poly's exponent bound
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
