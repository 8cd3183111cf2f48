"""Exhaustive verification over small fields: enumerate every candidate
triple (deg a, b <= 1, deg c <= 3) up to scalars, filter by the
admissibility conditions, and check the family taxonomy both ways
(soundness: every instance is admissible; completeness: every admissible
scalar class is matched).  Both verifications return their report as the
JSON-ready dict that the command line writes.

The scan works on coefficient keys (a1, a0, b1, b0, c3, c2, c1, c0), tuples
of element indices that sort in enumeration order, with the field's row
tables (mul[x][y]); in characteristic 2 index addition is XOR.  It never
loops over c: for each (a, b) pair the first minor reads c*P + K = 0 with
P = (ab)' a scalar and K a cubic (see _scan_block), so a pair with P != 0
has the one triple c = K/P, admissible as it stands.  A pair with P = 0 has
no admissible triple, and the scan checks it in closed form: K != 0 or
a = b = 0 leaves none, and otherwise one value (_p_zero_value) decides C1
and C2 on every p-closed c at once, so these pairs are decided, never
skipped.  A block of the scan is one a with a list of b: _scalar_classes
visits one normalised pair per scalar class.  The verifications run in one
process and measure no time: the command line spreads whole (stage, case)
tasks over its workers and times each task.
"""

from __future__ import annotations

import itertools

# instantiate is not called here; the per-layer benchmark tracer
# (perfbench/tracer.py) wraps it as an attribute of this module.
from .classifier import _build, classify, families_of_case, instantiate  # noqa: F401
from .derivation import DerivationTriple, is_valid_foliation
from .errors import ConsistencyError
from .polynomial import Poly

# ---------------------------------------------------------------------------
# object-level enumeration (reference path; the scan below must agree with it)
# ---------------------------------------------------------------------------


def _key_to_triple(key, spec, case):
    """The triple of the key (a1, a0, b1, b0, c3, c2, c1, c0)."""
    return DerivationTriple(
        case,
        Poly._make(spec, key[1::-1]),
        Poly._make(spec, key[3:1:-1]),
        Poly._make(spec, key[:3:-1]),
    )


def enumerate_triples(spec, case):
    """Deterministic stream of all candidate triples except (0, 0, 0).

    Order is lexicographic on the key (a1, a0, b1, b0, c3, c2, c1, c0) of
    coefficient indices; the first triple is (0, 0, 1).  Each distinct
    polynomial is one Poly object, shared by every triple that contains it.
    """
    if spec.p != 2:
        raise ValueError("enumeration is specific to characteristic 2")
    q = spec.order
    lines = [Poly._make(spec, f[::-1]) for f in itertools.product(range(q), repeat=2)]
    cubics = [Poly._make(spec, f[::-1]) for f in itertools.product(range(q), repeat=4)]
    triples = itertools.product(lines, lines, cubics)
    next(triples)  # (0, 0, 0)
    for a, b, c in triples:
        yield DerivationTriple(case, a, b, c)


def total_triple_count(spec):
    return spec.order**8 - 1


# ---------------------------------------------------------------------------
# coefficient scan
# ---------------------------------------------------------------------------

def _p_zero_value(l1, l0, r0, r2, mul, inv):
    """The value that decides every p-closed c of a P = 0 pair with K = 0 and
    l = l0 + l1*t != 0 (see _scan_block): the points of low x high, the
    lines l1*c0 + l0*c1 = r0 and l1*c2 + l0*c3 = r2.

    If l1 != 0, with root r = l0/l1, c(r) = (c0 + r*c1) + r^2*(c2 + r*c3), so
    l1*c(r) = r0 + r^2*r2 at every point; C2 holds, and C1 exactly when the
    value is nonzero.  If l1 = 0, l0*c3 = r2 at every point; C1 holds, and
    C2 exactly when the value is nonzero.  So one value decides them all.
    """
    if not l1:
        return r2
    by_root = mul[mul[l0][inv[l1]]]
    return r0 ^ by_root[by_root[r2]]


def _scan_block(a, bs, case, mul, inv):
    """Scan the pairs of one a = (a1, a0) with each b = (b1, b0) of bs; return the valid keys.

    p-closedness is linear in c.  Write delta^2 = (A, B, C) as in
    delta_squared and let S_A, S_B be the parts that a^2 and b^2 contribute
    to alpha and beta.  Then A = c*a' + S_A, B = c*b' + S_B, C = c*c', and in
    characteristic 2 the three minors factor as

        A*b + B*a = c*P + K,        P = (ab)' = a1*b0 + a0*b1,  K = S_A*b + S_B*a,
        A*c + C*a = c*((ac)' + S_A),
        B*c + C*b = c*((bc)' + S_B).

    For c != 0 the triple is p-closed exactly when (ac)' = S_A and
    (bc)' = S_B; these give A = a*c' and B = b*c', so minor 1 follows.  Both
    sides are even of degree <= 2, so the condition is the two 2x2 systems
    M*(c0, c1) = (S_A0, S_B0) and M*(c2, c3) = (S_A2, S_B2) with
    M = [[a1, a0], [b1, b0]] and det M = P.  For c = 0 the triple is p-closed
    exactly when K = 0.  Every p-closed c, zero or not, satisfies minor 1,
    c*P + K = 0, so when P != 0 the one c is K/P.  P != 0 also makes
    gcd(a, b) = 1 (a and b span the polynomials of degree <= 1) and a1 or b1
    nonzero, so C1 and C2 hold: the pair's key is valid as it stands, with
    no system to solve and no candidate to filter.

    No admissible triple has P = 0, and the scan checks this for each of the
    q^3 + q^2 - q such pairs, which are decided, never skipped.  One proof
    covers all four cases.  If a = b = 0, C1 asks for a constant c, which C2
    refuses.  Otherwise P = 0 makes a = alpha*l and b = beta*l for one
    l = l0 + l1*t, so S_A and S_B, sums of alpha^2*l^2 and beta^2*l^2, are
    multiples of l^2.  If K != 0, minor 1 reads c*P + K = K != 0 for every c.
    Otherwise K = l*(beta*S_A + alpha*S_B) = 0 is exactly the consistency of
    the two singular systems.  Take l = a if a != 0, else l = b, and (r0, r2)
    the right-hand sides of its rows, (S_A0, S_A2) or (S_B0, S_B2): the
    solutions are the points of low x high, the lines l1*c0 + l0*c1 = r0
    and l1*c2 + l0*c3 = r2.  If l is constant, so are a, b, S_A and S_B,
    and the second line reads l0*c3 = r2 = 0: c3 = 0, and C2 fails.  If
    l is linear with root r, a solution c has alpha*(lc)' = S_A and
    beta*(lc)' = S_B with alpha or beta nonzero, so (lc)' = l1*c + l*c' is a
    multiple of l.  Then c(r) = 0, l divides c and C1 fails.  In particular
    c = 0 fails C1 (l linear) or C2 (l constant).  _p_zero_value gives l1*c(r)
    or l0*c3 on the whole solution set at once; a nonzero value would make
    every solution admissible, and raises ConsistencyError.

    Scaling by lam != 0 keeps C1-C3, as (lam*delta)^2 = lam^2*delta^2, so a scalar
    class has q - 1 valid keys.  As (a, b) != 0 (C1, C2 above), its least key is the
    one whose first nonzero entry of (a1, a0, b1, b0) is 1: the normalised pairs.
    """
    a1, a0 = a
    out = []
    for b1, b0 in bs:
        # squares routed as in delta_squared; f^2 = f0^2 + f1^2*t^2 in char 2
        routed = {"alpha": [0, 0], "beta": [0, 0], "zero": [0, 0]}
        for f0, f1, slot in ((a0, a1, case.alpha_sq), (b0, b1, case.beta_sq)):
            routed[slot][0] ^= mul[f0][f0]
            routed[slot][1] ^= mul[f1][f1]
        (sa0, sa2), (sb0, sb2) = routed["alpha"], routed["beta"]
        m = (a1, a0, b1, b0)
        # K = S_A*b + S_B*a, keyed (k3, k2, k1, k0) as c is
        k3 = mul[sa2][b1] ^ mul[sb2][a1]
        k2 = mul[sa2][b0] ^ mul[sb2][a0]
        k1 = mul[sa0][b1] ^ mul[sb0][a1]
        k0 = mul[sa0][b0] ^ mul[sb0][a0]
        det = mul[a1][b0] ^ mul[a0][b1]  # P
        if det:
            by_inv = mul[inv[det]]
            out.append(m + (by_inv[k3], by_inv[k2], by_inv[k1], by_inv[k0]))
        elif not (k3 or k2 or k1 or k0) and any(m):
            line = (a1, a0, sa0, sa2) if a1 or a0 else (b1, b0, sb0, sb2)
            if _p_zero_value(*line, mul, inv):
                raise ConsistencyError(
                    f"case {case.name}: every p-closed c of the P = 0 pair "
                    f"(a1, a0, b1, b0) = {m} would be admissible")
    return out


def _scalar_classes(spec, case):
    """(valid count, sorted least keys of the scalar classes) from the (q+1)(q^2+1)
    normalised pairs (_scan_block): a = 0 with the q + 1 normalised b, then each
    normalised a with every b, already in key order.  The valid (a, b) are the
    P != 0 pairs, one c each, so there are |GL2(q)| / (q - 1) = q^3 - q classes."""
    if spec.p != 2:
        raise ValueError("enumeration is specific to characteristic 2")
    q, _add, mul, inv = spec.tables()
    lines = [(0, 1)] + [(1, x) for x in range(q)]
    pairs = list(itertools.product(range(q), repeat=2))
    blocks = [((0, 0), lines)] + [(a, pairs) for a in lines]
    classes = [key for a, bs in blocks for key in _scan_block(a, bs, case, mul, inv)]
    if len(classes) != q**3 - q:
        raise ConsistencyError(
            f"{len(classes)} scalar classes over {spec.literal()}, expected q^3 - q = {q**3 - q}")
    return len(classes) * (q - 1), classes


# ---------------------------------------------------------------------------
# soundness and completeness reports
# ---------------------------------------------------------------------------


def _sweep(family, tuples, verdicts):
    """(accepted count, failures) over the (parameter tuple, orbit size)
    pairs, in order; an accepted tuple counts its orbit's size.

    verdicts maps each triple decided so far to is_valid_foliation's
    verdict, and gains the triples decided here."""
    count = 0
    failures = []
    for vals, size in tuples:
        triple = _build(family, vals)
        if triple is None:
            continue
        count += size
        valid = verdicts.get(triple)
        if valid is None:
            valid = verdicts[triple] = is_valid_foliation(triple)
        if not valid:
            failures.append(
                {
                    "family": family.value,
                    "params": {k: str(v) for k, v in zip(family.param_names, vals)},
                    "triple": triple.to_json_dict(),
                }
            )
    return count, failures


def _orbit_slice(family, spec):
    """One (parameter tuple, orbit size) per torus orbit of the family's
    accepted tuples, in increasing tuple order.

    The family's weight vectors are taken in turn, each on the tuples that
    the ones before it kept.  A vector keeps a tuple whose first nonzero
    parameter of nonzero weight is 1, one of an orbit of q - 1, and a tuple
    whose weighted parameters are all 0, an orbit of its own.  IV-iii's and
    IV-iv's first vector has weight 1 on s1, which the constraints keep
    nonzero, so on the accepted tuples it keeps s1 = 1 alone; the scaling
    vector after it has weight 0 on s1."""
    units = spec.order - 1
    elements = spec.elements()
    kept, scaling = family.torus_weights, family.scaling_weights
    pivot = None if kept is None else kept.index(1)  # s1
    tuples = [((), False)]  # (values so far, whether a scaling-weighted value is nonzero)
    for i, w in enumerate(scaling):
        tuples = [
            (vals + (x,), led or bool(w and x))
            for vals, led in tuples
            for x in ((spec.one,) if i == pivot else (spec.zero, spec.one) if w and not led else elements)
        ]
    size = 1 if kept is None else units
    return [(vals, size * units if led else size) for vals, led in tuples]


def verify_soundness(spec, case):
    """Check that every instance of every family of the case, over all
    base-field parameters, is admissible; failures are returned as data,
    never raised.  The report is {field, case, instances (family tag ->
    count), failures ([{family, params, triple}]), passed}.

    Every accepted tuple is counted and, when its triple is refused,
    reported in order.  The sweep builds one tuple per orbit of the family's
    torus (_orbit_slice) and counts each accepted one by its orbit's size.
    The substitution t -> alpha*t maps an admissible a*alpha_L + b*beta_L +
    c*d/dt to (a(alpha*t), b(alpha*t), c(alpha*t)/alpha): in the coordinate
    s = t/alpha, d/dt = alpha^-1 * d/ds, and C1-C3 do not depend on the
    coordinate.  Under the scaling weights a tuple's image builds a unit
    multiple of that image of its triple, so validity is constant on an
    orbit; IV-iii's and IV-iv's first vector keeps the triple itself.  A
    verdict that is not invariant under t -> alpha*t is outside this
    contract: it could refuse a triple off the slice and go unseen.  A
    refused triple in the slice sends the family through every tuple, so
    its failures are listed as if every tuple had been tried.  Distinct
    tuples can still give one triple (families of one case share triples),
    so validity is decided once per distinct triple of the call and the
    verdict is reused for the others.
    """
    instances, failures = {}, []
    verdicts = {}  # triple -> is_valid_foliation(triple), for this call only
    for family in families_of_case(case):
        count, found = _sweep(family, _orbit_slice(family, spec), verdicts)
        if found:
            every = itertools.product(spec.elements(), repeat=len(family.param_names))
            count, found = _sweep(family, ((vals, 1) for vals in every), verdicts)
        instances[family.value] = count
        failures += found
    return {
        "field": spec.literal(),
        "case": case.name,
        "instances": instances,
        "failures": failures,
        "passed": not failures,
    }


def verify_completeness(spec, case):
    """Classify every valid scalar class; unmatched classes are report data.

    Returns (report, classes): report is the JSON-ready summary, and classes
    is the key-ordered list of (triple, matches), one per scalar class, that
    the per-class detail and the case I/II corollaries read."""
    valid_count, keys = _scalar_classes(spec, case)
    classes = []
    for key in keys:
        triple = _key_to_triple(key, spec, case)
        classes.append((triple, classify(triple)))
    overlaps = []
    for triple, matches in classes:
        families = sorted({m.family.value for m in matches})
        if len(families) > 1:
            overlaps.append({"triple": triple.to_json_dict(), "families": families})
    unmatched = [triple.to_json_dict() for triple, matches in classes if not matches]
    report = {
        "field": spec.literal(),
        "case": case.name,
        "total_triples": total_triple_count(spec),
        "valid_count": valid_count,
        "scalar_classes": len(classes),
        "matched": len(classes) - len(unmatched),
        "unmatched": unmatched,
        "overlaps": overlaps,
        "complete": not unmatched,
    }
    return report, classes


def case_c_corollaries(reps):
    """Observed c-vanishing pattern over the valid set of a case.

    Returns (all_c_zero, all_c_nonzero) across scalar-class representatives;
    scaling never changes whether c vanishes, so classes suffice.
    """
    all_zero = all(not r.c for r in reps)
    all_nonzero = all(bool(r.c) for r in reps)
    return all_zero, all_nonzero
