"""The benchmark's workloads: seed-chosen inputs, set-up, the timed work, and
the checks of every verdict against its closed form.

These run inside the fresh interpreter of one repetition (see rep.py).  The
module imports nothing from folclass at load time, so the measured set-up
includes the package import.
"""

from __future__ import annotations

import json
import os
import random
import time

WORKLOADS = ("verify-gf8", "verify-gf8-jobs2", "oracle-gf4", "cartier-trace")

# The two irreducible cubics over GF(2); either gives the same GF(8) up to
# isomorphism, so the seed picks one without changing the amount of work.
GF8_MODULI = ("x3+x+1", "x3+x2+1")

# Field sizes and trace depths: the benchmark proper, and the smoke variant
# (GF(2)/GF(4), shallow traces) that the benchmark's own tests run.
SIZES = {
    False: {"verify_q": 8, "oracle_q": 4, "trace_e": {"symbolic": 8, "char2": 8, "char3": 5}},
    True: {"verify_q": 4, "oracle_q": 2, "trace_e": {"symbolic": 2, "char2": 2, "char3": 2}},
}


class Checks:
    """Tally of verdict checks; failures keep the first few names."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def tally(self, name, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(name)

    def check(self, name, ok):
        self.tally(name, 1, 0 if ok else 1)


def gl2_order(q):
    return (q * q - 1) * (q * q - q)


def pgl2_order(q):
    return q**3 - q


def choose_inputs(workload, seed, smoke=False):
    """The seed-chosen inputs of one repetition, as JSON-ready values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    sizes = SIZES[smoke]
    if workload.startswith("verify"):
        q = sizes["verify_q"]
        field = f"GF(8;mod={rng.choice(GF8_MODULI)})" if q == 8 else f"GF({q})"
        return {"field": field, "q": q, "jobs": 2 if workload.endswith("jobs2") else 1}
    if workload == "oracle-gf4":
        # GF(4) and GF(2) each have one irreducible modulus: nothing to choose.
        q = sizes["oracle_q"]
        return {"field": f"GF({q})", "q": q, "case": "II"}
    return {
        "char2_field": f"GF(8;mod={rng.choice(GF8_MODULI)})",
        "s": rng.randrange(1, 8),
        "t": rng.randrange(1, 8),
        "e_max": sizes["trace_e"],
    }


def setup(workload, inputs):
    """Import folclass, parse the field or quadrics and build their tables.

    Returns the state the workload runs on and the time the first
    FieldSpec.tables() calls took.
    """
    from folclass.finite_field import parse_field

    if workload != "cartier-trace":
        spec = parse_field(inputs["field"])
        started = time.perf_counter()
        spec.tables()
        return {"spec": spec}, time.perf_counter() - started

    from folclass.cartier import Quadric, TraceOperator

    gf8, gf3 = parse_field(inputs["char2_field"]), parse_field("GF(3)")
    started = time.perf_counter()
    gf8.tables()
    gf3.tables()
    tables_s = time.perf_counter() - started
    quadrics = {
        "symbolic": Quadric.symbolic(),
        "char2": Quadric.concrete(gf8.element(inputs["s"]), gf8.element(inputs["t"])),
        "char3": Quadric.concrete(gf3.one, gf3.one),  # G = x^2 + y^2 + 1
    }
    return {"operators": {mode: TraceOperator(g) for mode, g in quadrics.items()}}, tables_s


def run(workload, inputs, state, tracer, checks, work_dir):
    """The timed work of one repetition, ending in checked verdicts."""
    if workload.startswith("verify"):
        run_verify(inputs, work_dir, checks)
    elif workload == "oracle-gf4":
        run_oracle(inputs, state, tracer, checks)
    else:
        run_trace(inputs, state, tracer, checks)


def run_verify(inputs, work_dir, checks):
    from folclass import cli

    out = os.path.join(work_dir, "verify-theorem.json")
    argv = ["verify-theorem", "--field", inputs["field"], "--jobs", str(inputs["jobs"]), "--no-timing", "--out", out]
    code = cli.main(argv)
    report = {}  # no report file: the exit code says why
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    check_verify_report(report, code, inputs["q"], checks)


def check_verify_report(report, exit_code, q, checks):
    """Exit 0, no findings, and every case at the closed-form counts:
    |GL2(q)| valid triples, |PGL2(q)| scalar classes, all of them matched,
    and every family instance admissible."""
    checks.check("exit code 0", exit_code == 0)
    checks.check("findings == 0", report.get("findings") == 0)
    results = report.get("results", [])
    checks.check("four Lie cases reported", [r.get("case") for r in results] == ["I", "II", "III", "IV"])
    for entry in results:
        case = entry.get("case")
        completeness = entry.get("completeness", {})
        classes = completeness.get("scalar_classes")
        checks.check(f"case {case}: valid_count == (q^2-1)(q^2-q)", completeness.get("valid_count") == gl2_order(q))
        checks.check(f"case {case}: scalar_classes == q^3-q", classes == pgl2_order(q))
        checks.check(f"case {case}: matched == scalar_classes", completeness.get("matched") == classes)
        checks.check(f"case {case}: soundness passed", entry.get("soundness", {}).get("passed") is True)


def run_oracle(inputs, state, tracer, checks):
    """Every case-II triple through the closed formula, the rewrite oracle
    (which must agree) and the admissibility check."""
    from folclass import derivation
    from folclass.derivation import LieCase
    from folclass.enumerator import enumerate_triples
    from folclass.errors import ConsistencyError

    generate = tracer.span("enumerator.enumerate_triples")
    formula_span = tracer.span("derivation.delta_squared")
    oracle_span = tracer.span("derivation.oracle_delta_squared")
    validity_span = tracer.span("derivation.is_valid_foliation")
    triples = enumerate_triples(state["spec"], LieCase[inputs["case"]])
    seen = disagreements = valid = 0
    while True:
        with generate:
            d = next(triples, None)
        if d is None:
            break
        seen += 1
        try:
            with formula_span:
                formula = derivation.delta_squared(d)
            with oracle_span:
                oracle = derivation.oracle_delta_squared(d)
        except ConsistencyError:
            disagreements += 1
            continue
        if formula != oracle:
            disagreements += 1
        with validity_span:
            valid += derivation.is_valid_foliation(d)
    check_oracle_counts(seen, disagreements, valid, inputs["q"], checks)


def check_oracle_counts(seen, disagreements, valid, q, checks):
    """Formula equals oracle on each of the q^8 - 1 triples, and exactly
    |GL2(q)| of them are admissible."""
    checks.tally("delta^2 formula == rewrite oracle", seen, disagreements)
    checks.check("q^8 - 1 triples enumerated", seen == q**8 - 1)
    checks.check("valid count == (q^2-1)(q^2-q)", valid == gl2_order(q))


def run_trace(inputs, state, tracer, checks):
    for mode, op in state["operators"].items():
        span = tracer.span(f"cartier.verify_nonvanishing.{mode}")
        for e in range(1, inputs["e_max"][mode] + 1):
            with span:
                nonzero, form = op.verify_nonvanishing(e)
            check_trace_image(f"{mode} e={e}", op.quadric, nonzero, form, checks)


def check_trace_image(label, quadric, nonzero, form, checks):
    """The image is nonzero; for p = 2 its numerator squares to G, for p = 3
    it is exactly 1/G."""
    from folclass.polynomial import BiPoly

    checks.check(f"{label}: image nonzero", nonzero and not form.is_zero())
    if quadric.p == 2:
        checks.check(f"{label}: numerator^2 == G", form.numerator * form.numerator == quadric.G)
    else:
        one = BiPoly.monomial(0, 0, quadric.G.constant_term())
        checks.check(f"{label}: image == 1/G", form.numerator == one and form.pole_power == 1)
