"""Acceptance suite: each test checks one numbered criterion at its exact
tolerance and prints one [acceptance] PASS/FAIL line.  Run with -s (or read
captured output) to see the lines; several tests share the session-scoped
GF(8) enumeration fixtures, so the heavy scans run once."""

import json
import random
import time

from folclass.cartier import Quadric, SymbolicCoeff, TraceOperator, cartier_extract, cartier_once
from folclass.classifier import classify
from folclass.cli import main
from folclass.derivation import (
    LieCase,
    chart_at_infinity,
    delta_squared,
    oracle_delta_squared,
    satisfies_C2,
    scale,
)
from folclass.enumerator import enumerate_triples, verify_soundness
from folclass.finite_field import GF
from folclass.polynomial import BiPoly
from scan_reference import full_scan


def _report(number, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({description}): {status}{extra}")
    assert ok, f"criterion {number} failed: {description}{extra}"


def test_criterion_1_delta_squared_oracle_equivalence(F2, F4):
    """Formula and oracle agree on every triple over GF(2) and GF(4).

    Over GF(4) this is a proof for every field of characteristic 2.  In each
    Lie case both paths are straight-line maps from the eight coefficients
    of (a, b, c) to the coefficients of delta^2: sums of products of two
    components or of a component and a derivative.  So each output
    coefficient is a polynomial over GF(2) of degree at most 2 in each
    input coefficient, and so is the difference of the two paths.  A
    polynomial that vanishes on S^8 and whose degree in each variable is
    below |S| is zero (Alon, "Combinatorial Nullstellensatz", 1999,
    Lemma 2.1); GF(4) has 4 > 2 points.  The premise is that no branch
    depends on a coefficient's value: the branches read the Lie case or the
    word of a product, or skip a term that is zero and so add nothing, and
    the two caches on the path (each Poly's derivative, and delta_squared's
    last triple) are looked up by object identity, never by value.
    """
    start = time.monotonic()
    checked = 0
    disagreements = 0
    for spec in (F2, F4):
        for case in LieCase:
            for d in enumerate_triples(spec, case):
                if delta_squared(d) != oracle_delta_squared(d):
                    disagreements += 1
                checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "delta^2 formula vs rewrite oracle, GF(2)+GF(4), all cases",
        disagreements == 0 and checked == (255 + 65535) * 4,
        f" [{checked} triples, {disagreements} disagreements, {elapsed:.1f}s]",
    )


def test_criterion_2_family_soundness(F4, F8):
    start = time.monotonic()
    failures = 0
    instances = 0
    for spec in (F4, F8):
        for case in LieCase:
            report = verify_soundness(spec, case)
            failures += len(report["failures"])
            instances += sum(report["instances"].values())
    elapsed = time.monotonic() - start
    _report(
        2,
        "every family instance over GF(4) and GF(8) satisfies C1, C2, C3",
        failures == 0,
        f" [{instances} instances, {failures} failures, {elapsed:.1f}s]",
    )


def test_criterion_3_completeness_desk_scale(gf4_reports, gf8_reports):
    start = time.monotonic()
    unmatched = []
    classes = 0
    for reports in (gf4_reports, gf8_reports):
        for report, _classes in reports.values():
            unmatched.extend(report["unmatched"])
            classes += report["scalar_classes"]
    elapsed = time.monotonic() - start
    for um in unmatched:
        print(f"[acceptance] UNMATCHED: {json.dumps(um)}")
    _report(
        3,
        "every valid scalar class over GF(4) and GF(8) is classified",
        not unmatched,
        f" [{classes} classes, {len(unmatched)} unmatched, {elapsed:.1f}s + fixture scans]",
    )


def test_criterion_4_proof_branch_corollaries(gf4_reports, gf8_reports):
    exceptions = 0
    for reports in (gf4_reports, gf8_reports):
        for triple, _matches in reports[LieCase.I][1]:
            if triple.c:
                exceptions += 1
        for triple, _matches in reports[LieCase.II][1]:
            if not triple.c:
                exceptions += 1
    _report(
        4,
        "case I valid => c = 0 and case II valid => c != 0 over GF(4) and GF(8)",
        exceptions == 0,
        f" [{exceptions} exceptions]",
    )


def test_criterion_5_scaling_invariance(F4, gf4_reports):
    q, _add, mul, _inv = F4.tables()
    exceptions = 0
    # validity: the valid keys of each case are stable under every nonzero
    # scalar, which covers all 65535 triples, valid and invalid
    for case in LieCase:
        valid = set(full_scan(F4, case))
        for lam in range(1, q):
            scaled = {tuple(mul[x][lam] for x in key) for key in valid}
            if scaled != valid:
                exceptions += 1
    # classification outcomes: same families and parameters, scalar follows
    nonzero = [x for x in F4.elements() if x]
    for _summary, classes in gf4_reports.values():
        for triple, matches in classes:
            base = [(m.family, tuple(sorted((k, str(v)) for k, v in m.params.items()))) for m in matches]
            base_lams = [m.lam for m in matches]
            for lam in nonzero:
                got = classify(scale(lam, triple))
                keyed = [(m.family, tuple(sorted((k, str(v)) for k, v in m.params.items()))) for m in got]
                if keyed != base or [m.lam for m in got] != [lam * l0 for l0 in base_lams]:
                    exceptions += 1
    _report(
        5,
        "validity and classification invariant under all scalings over GF(4)",
        exceptions == 0,
        f" [{exceptions} exceptions]",
    )


def test_criterion_6_c2_iff_chart(F4):
    start = time.monotonic()
    exceptions = 0
    checked = 0
    for d in enumerate_triples(F4, LieCase.I):
        ch = chart_at_infinity(d)
        if satisfies_C2(d) != (ch.regular and ch.nonvanishing_at_s0):
            exceptions += 1
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        6,
        "C2 iff chart-at-infinity regular and nonvanishing at s=0, all GF(4) triples",
        exceptions == 0 and checked == 65535,
        f" [{checked} triples, {exceptions} exceptions, {elapsed:.1f}s]",
    )


def test_criterion_7_trace_nonvanishing():
    start = time.monotonic()
    ok = True
    notes = []
    sym = TraceOperator(Quadric.symbolic())
    for e in range(1, 5):
        nonzero, form = sym.verify_nonvanishing(e)
        ok &= nonzero
        ok &= form.numerator.total_degree() <= 1
        ok &= form.numerator * form.numerator == sym.quadric.G
    notes.append("p=2 symbolic e=1..4")
    F3 = GF(3)
    p3 = TraceOperator(Quadric.concrete(F3.one, F3.one))
    for e in range(1, 4):
        nonzero, form = p3.verify_nonvanishing(e)
        ok &= nonzero
        ok &= form.numerator == BiPoly.monomial(0, 0, F3.one)  # exactly 1/G dx^dy
        ok &= form.numerator.total_degree() <= 1
    notes.append("p=3 e=1..3 image 1/G")
    F4 = GF(4)
    u = F4.generator
    conc = TraceOperator(Quadric.concrete(u, u + F4.one))
    for e in range(1, 5):
        nonzero, form = conc.verify_nonvanishing(e)
        ok &= nonzero
        ok &= form.numerator.total_degree() <= 1
    notes.append("p=2 GF(4) e=1..4")
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(7, "iterated trace nonvanishing (" + "; ".join(notes) + ")", ok, f" [{elapsed:.2f}s]")


def test_criterion_8_cartier_self_consistency():
    rng = random.Random(2026)
    F4 = GF(4)
    F9 = GF(9)
    pools = {
        2: [
            [x for x in F4.elements() if x],
            [SymbolicCoeff.one(), SymbolicCoeff.s(), SymbolicCoeff.t(),
             SymbolicCoeff.s() + SymbolicCoeff.t()],
        ],
        3: [[x for x in F9.elements() if x]],
    }
    mismatches = 0
    checked = 0
    for p in (2, 3):
        for e in (1, 2, 3):
            for _ in range(1000):
                pool = rng.choice(pools[p])
                h = BiPoly(
                    {
                        (rng.randrange(40), rng.randrange(40)): rng.choice(pool)
                        for _ in range(rng.randrange(1, 7))
                    }
                )
                stepwise = h
                for _ in range(e):
                    stepwise = cartier_once(stepwise, p)
                if stepwise != cartier_extract(h, p, e):
                    mismatches += 1
                checked += 1
    _report(
        8,
        "e-fold Cartier composition equals one-shot extraction, 1000 random polys per (p, e)",
        mismatches == 0 and checked == 6000,
        f" [{checked} comparisons, {mismatches} mismatches]",
    )


def test_criterion_9_report_determinism(tmp_path):
    out = tmp_path / "acc9.json"
    blobs = {}
    for jobs in ("1", "2", "3"):
        code = main(
            ["verify-theorem", "--field", "GF(4)", "--jobs", jobs, "--no-timing",
             "--out", str(out)]
        )
        assert code == 0
        blobs[jobs] = out.read_bytes()
    main(["verify-theorem", "--field", "GF(4)", "--jobs", "2", "--no-timing", "--out", str(out)])
    identical = blobs["1"] == blobs["2"] == blobs["3"] == out.read_bytes()
    _report(
        9,
        "verify-theorem reports byte-identical across --jobs and reruns",
        identical,
        f" [{len(blobs['1'])} bytes]",
    )
