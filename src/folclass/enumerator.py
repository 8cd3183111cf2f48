"""Exhaustive verification over small fields: enumerate every candidate
triple (deg a, b <= 1, deg c <= 3), filter by the admissibility conditions,
deduplicate scalar orbits, and check the family taxonomy both ways
(soundness: every instance is admissible; completeness: every admissible
scalar class is matched).

The scan works on coefficient keys (a1, a0, b1, b0, c3, c2, c1, c0), tuples
of element indices that sort in enumeration order, with flat field tables;
in characteristic 2 index addition is XOR.  It never loops over c: for each
(a, b) pair, p-closedness with c != 0 is two 2x2 linear systems in the
coefficients of c whose matrix has determinant P(a,b) (the scalar of the
first minor), and c = 0 is p-closed exactly when K(a,b) = 0 (see
_scan_block).  Cramer's rule solves the systems when P != 0; a singular
system lists the q points on the line of one nonzero equation and filters
them by the other, so P = 0 pairs are decided, never skipped.  C1 is
decided without a gcd (_is_primitive).  One block of the scan is one a;
blocks are concatenated in order.  The verifications run in one process:
the command line spreads whole (stage, case) tasks over its workers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .classifier import classify, families_of_case, instantiate
from .derivation import DerivationTriple, is_valid_foliation
from .errors import ConsistencyError, InvalidParameterError
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

def _solve2(m, rhs, q, mul, inv):
    """Solutions (x, y) of m*(x, y) = rhs, m = (m00, m01, m10, m11) row by
    row, in increasing (y, x) order (char 2).  Cramer's rule gives the one
    solution when det m != 0.  A singular m != 0 has none or q: every
    solution lies on the line of one nonzero row, so its q points are listed
    and filtered by both equations.  m = 0 has all q^2 when rhs = 0, else
    none.
    """
    m00, m01, m10, m11 = m
    r0, r1 = rhs
    det = mul[m00 * q + m11] ^ mul[m01 * q + m10]
    if det:
        x = mul[(mul[r0 * q + m11] ^ mul[m01 * q + r1]) * q + inv[det]]
        y = mul[(mul[m00 * q + r1] ^ mul[m10 * q + r0]) * q + inv[det]]
        return [(x, y)]
    if m00 or m01:
        u, v, r = m00, m01, r0
    elif m10 or m11:
        u, v, r = m10, m11, r1
    else:
        return [(x, y) for y in range(q) for x in range(q)] if not (r0 or r1) else []
    # the q points of the row u*x + v*y = r, in increasing (y, x) order
    if u:
        iu = inv[u]
        line = [(mul[(r ^ mul[v * q + y]) * q + iu], y) for y in range(q)]
    else:
        y = mul[r * q + inv[v]]
        line = [(x, y) for x in range(q)]
    return [
        (x, y) for x, y in line
        if mul[m00 * q + x] ^ mul[m01 * q + y] == r0 and mul[m10 * q + x] ^ mul[m11 * q + y] == r1
    ]


def _is_primitive(key, q, mul, inv):
    """C1 for the key (a1, a0, b1, b0, c3, c2, c1, c0).

    If P = a1*b0 + a0*b1 != 0, a and b span the polynomials of degree <= 1,
    so gcd(a, b) = 1.  If P = 0, a and b are multiples of one l = l0 + l1*t:
    if a = b = 0 the gcd is c, a constant l is a unit, and a linear l divides
    c exactly when c(l0/l1) = 0.
    """
    a1, a0, b1, b0 = key[:4]
    c = key[4:]
    if mul[a1 * q + b0] ^ mul[a0 * q + b1]:
        return True
    l1, l0 = (a1, a0) if a1 or a0 else (b1, b0)
    if not (l0 or l1):
        return bool(c[3]) and not any(c[:3])
    if not l1:
        return True
    root = mul[l0 * q + inv[l1]]
    value = 0
    for ci in c:
        value = mul[value * q + root] ^ ci
    return value != 0


def _scan_block(a, case, q, mul, inv):
    """Scan the (a, b) pairs of one a = (a1, a0); return the valid keys.

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
    exactly when K = 0.  When P != 0, Cramer's rule gives one c (and minor 1
    reads c = K/P).  The q^3 + q^2 - q pairs with P = 0 have no solution, q
    (the points of one nonzero row's line that solve the other row), or q^2
    when a = b = 0.  They are decided, never skipped,
    as "no admissible triple has P = 0" is part of what the scan verifies.
    The candidates, in increasing key order, then need C2 and C1.

    In case I (S_A = S_B = 0) that emptiness has a short proof.  P = 0 makes
    a and b multiples of one l.  If l is linear, (lc)' = 0 makes lc a square,
    so l divides c and C1 fails.  If l is constant, c' = 0 makes c even, so
    deg c <= 2 and, with a and b constant, C2 fails.  If a = b = 0, C1 asks
    for a constant c, which C2 refuses.
    """
    a1, a0 = a
    out = []
    for b1, b0 in itertools.product(range(q), repeat=2):
        # squares routed as in delta_squared; f^2 = f0^2 + f1^2*t^2 in char 2
        routed = {"alpha": [0, 0], "beta": [0, 0], "zero": [0, 0]}
        for f0, f1, slot in ((a0, a1, case.alpha_sq), (b0, b1, case.beta_sq)):
            routed[slot][0] ^= mul[f0 * q + f0]
            routed[slot][1] ^= mul[f1 * q + f1]
        (sa0, sa2), (sb0, sb2) = routed["alpha"], routed["beta"]
        m = (a1, a0, b1, b0)
        low = _solve2(m, (sa0, sb0), q, mul, inv)
        high = _solve2(m, (sa2, sb2), q, mul, inv)
        # c = 0 is p-closed iff K = S_A*b + S_B*a vanishes
        k_zero = not (
            mul[sa0 * q + b0] ^ mul[sb0 * q + a0]
            or mul[sa0 * q + b1] ^ mul[sb0 * q + a1]
            or mul[sa2 * q + b0] ^ mul[sb2 * q + a0]
            or mul[sa2 * q + b1] ^ mul[sb2 * q + a1]
        )
        # c is keyed (c3, c2, c1, c0), so high before low keeps this increasing
        candidates = [(0, 0, 0, 0)] if k_zero else []
        candidates += [(c3, c2, c1, c0) for c2, c3 in high for c0, c1 in low if c0 or c1 or c2 or c3]
        for c in candidates:
            key = m + c
            if (a1 or b1 or c[0]) and _is_primitive(key, q, mul, inv):
                out.append(key)
    return out


def _scan(spec, case):
    """All valid keys of the case, in increasing order."""
    if spec.p != 2:
        raise ValueError("enumeration is specific to characteristic 2")
    q, _add, mul, inv = spec.tables()
    out = []
    for a in itertools.product(range(q), repeat=2):
        out.extend(_scan_block(a, case, q, mul, inv))
    return out


def _canonical_rep(key, spec):
    """Least key of the scalar orbit: scale the first nonzero entry to 1, the
    least nonzero index.  Scaling keeps the zeros before it, and lam*x = 1
    only for lam = x^-1."""
    q, _add, mul, inv = spec.tables()
    lam = inv[next(x for x in key if x)]
    return tuple(mul[x * q + lam] for x in key)


def _scalar_classes(spec, case):
    """(valid count, sorted least keys of the scalar classes)."""
    valid = _scan(spec, case)
    reps = sorted({_canonical_rep(key, spec) for key in valid})
    if len(valid) != len(reps) * (spec.order - 1):
        raise ConsistencyError(
            f"scalar orbits do not partition the valid set: {len(valid)} valid, "
            f"{len(reps)} classes over {spec.literal()}"
        )
    return len(valid), reps


# ---------------------------------------------------------------------------
# family instance iteration and reports
# ---------------------------------------------------------------------------


def iter_family_instances(spec, family):
    """All (params, triple) pairs over the base field: the instances are the
    parameter tuples, in param_names order, that instantiate accepts."""
    names = family.param_names
    for values in itertools.product(spec.elements(), repeat=len(names)):
        params = dict(zip(names, values))
        try:
            yield params, instantiate(family, params, spec)
        except InvalidParameterError:
            continue


@dataclass
class SoundnessReport:
    field: str
    case: str
    instances: dict = field(default_factory=dict)  # family tag -> instance count
    failures: list = field(default_factory=list)  # [{family, params, triple}]

    @property
    def passed(self):
        return not self.failures

    def to_json_dict(self):
        return {
            "field": self.field,
            "case": self.case,
            "instances": dict(self.instances),
            "failures": list(self.failures),
            "passed": self.passed,
        }


def verify_soundness(spec, case):
    """Instantiate every family of the case over all base-field parameters
    and check admissibility; failures are returned as data, never raised.

    Every tuple is instantiated, counted and, when its triple is refused,
    reported in order.  Distinct tuples can give one triple (IV-iii and
    IV-iv read only s1*s2, and families of one case share triples), so
    validity is decided once per distinct triple of the call and the verdict
    is reused for the others.
    """
    report = SoundnessReport(field=spec.literal(), case=case.name)
    verdicts = {}  # triple -> is_valid_foliation(triple), for this call only
    for family in families_of_case(case):
        count = 0
        for params, triple in iter_family_instances(spec, family):
            count += 1
            valid = verdicts.get(triple)
            if valid is None:
                valid = verdicts[triple] = is_valid_foliation(triple)
            if not valid:
                report.failures.append(
                    {
                        "family": family.value,
                        "params": {k: str(v) for k, v in params.items()},
                        "triple": triple.to_json_dict(),
                    }
                )
        report.instances[family.value] = count
    return report


@dataclass
class EnumerationReport:
    field: str
    case: str
    total_triples: int
    valid_count: int
    runtime_seconds: float
    class_matches: list  # [(triple, [FamilyMatch...])], one per scalar class

    @property
    def scalar_classes(self):
        return len(self.class_matches)

    @property
    def matched(self):
        return sum(1 for _triple, matches in self.class_matches if matches)

    @property
    def unmatched(self):
        return [triple.to_json_dict() for triple, matches in self.class_matches if not matches]

    @property
    def overlaps(self):
        out = []
        for triple, matches in self.class_matches:
            families = sorted({m.family.value for m in matches})
            if len(families) > 1:
                out.append({"triple": triple.to_json_dict(), "families": families})
        return out

    @property
    def complete(self):
        return all(matches for _triple, matches in self.class_matches)

    def to_json_dict(self, with_timing=True):
        out = {
            "field": self.field,
            "case": self.case,
            "total_triples": self.total_triples,
            "valid_count": self.valid_count,
            "scalar_classes": self.scalar_classes,
            "matched": self.matched,
            "unmatched": self.unmatched,
            "overlaps": self.overlaps,
            "complete": self.complete,
        }
        if with_timing:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def verify_completeness(spec, case):
    """Classify every valid scalar class; unmatched classes are report data."""
    start = time.monotonic()
    valid_count, keys = _scalar_classes(spec, case)
    class_matches = []
    for key in keys:
        triple = _key_to_triple(key, spec, case)
        class_matches.append((triple, classify(triple)))
    return EnumerationReport(
        field=spec.literal(),
        case=case.name,
        total_triples=total_triple_count(spec),
        valid_count=valid_count,
        runtime_seconds=time.monotonic() - start,
        class_matches=class_matches,
    )


def case_c_corollaries(reps):
    """Observed c-vanishing pattern over the valid set of a case.

    Returns (all_c_zero, all_c_nonzero) across scalar-class representatives;
    scaling never changes whether c vanishes, so classes suffice.
    """
    all_zero = all(not r.c for r in reps)
    all_nonzero = all(bool(r.c) for r in reps)
    return all_zero, all_nonzero
