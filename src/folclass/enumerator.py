"""Exhaustive verification over small fields: enumerate every candidate
triple (deg a, b <= 1, deg c <= 3), filter by the admissibility conditions,
deduplicate scalar orbits, and check the family taxonomy both ways
(soundness: every instance is admissible; completeness: every admissible
scalar class is matched).

The scan works on packed coefficient indices with flat field tables; in
characteristic 2 index addition is XOR.  It never loops over c: for each
(a, b) pair, p-closedness with c != 0 is two 2x2 linear systems in the
coefficients of c whose matrix has determinant P(a,b) (the scalar of the
first minor), and c = 0 is p-closed exactly when K(a,b) = 0 (see
_scan_block).  Cramer's rule solves the systems when P != 0, the singular
pairs test the q^2 coefficient pairs, and P = 0 pairs are decided, never
skipped.  C1 is decided without a gcd (_is_primitive).  Each worker block is
one a-index; blocks are merged in order, so any worker count gives the same
report.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .classifier import classify, families_of_case, instantiate
from .derivation import DerivationTriple, LieCase, is_valid_foliation
from .errors import ConsistencyError, InvalidParameterError
from .finite_field import parse_field
from .polynomial import Poly

# ---------------------------------------------------------------------------
# object-level enumeration (reference path; the scan below must agree with it)
# ---------------------------------------------------------------------------


def _poly_from_index(spec, idx, max_deg):
    q = spec.order
    return Poly._make(spec, [idx // q**e % q for e in range(max_deg + 1)])


def enumerate_triples(spec, case):
    """Deterministic stream of all candidate triples except (0, 0, 0).

    Order is lexicographic on (index of a, index of b, index of c) where a
    polynomial's index encodes its coefficients with the constant one least
    significant; the first triple is (0, 0, 1).
    """
    if spec.p != 2:
        raise ValueError("enumeration is specific to characteristic 2")
    q = spec.order
    lines = [_poly_from_index(spec, i, 1) for i in range(q * q)]
    cubics = [_poly_from_index(spec, i, 3) for i in range(q**4)]
    for ia, a in enumerate(lines):
        for ib, b in enumerate(lines):
            for ic, c in enumerate(cubics):
                if ia == 0 and ib == 0 and ic == 0:
                    continue
                yield DerivationTriple(case, a, b, c)


def total_triple_count(spec):
    return spec.order**8 - 1


# ---------------------------------------------------------------------------
# packed scan
# ---------------------------------------------------------------------------

def _solve2(m, rhs, q, mul, inv):
    """Solutions of m*(x, y) = rhs, m = (m00, m01, m10, m11) row by row, as
    increasing indices x + q*y (char 2).  Cramer's rule gives the one solution
    when det m != 0; a singular m has none, q or all q^2, found by testing.
    """
    m00, m01, m10, m11 = m
    r0, r1 = rhs
    det = mul[m00 * q + m11] ^ mul[m01 * q + m10]
    if det:
        x = mul[(mul[r0 * q + m11] ^ mul[m01 * q + r1]) * q + inv[det]]
        y = mul[(mul[m00 * q + r1] ^ mul[m10 * q + r0]) * q + inv[det]]
        return [x + q * y]
    return [
        x + q * y for y in range(q) for x in range(q)
        if mul[m00 * q + x] ^ mul[m01 * q + y] == r0 and mul[m10 * q + x] ^ mul[m11 * q + y] == r1
    ]


def _is_primitive(a, b, c, q, mul, inv):
    """C1 for packed coefficient tuples a = (a0, a1), b = (b0, b1), c = (c0, ..., c3).

    If P = a1*b0 + a0*b1 != 0, a and b span the polynomials of degree <= 1,
    so gcd(a, b) = 1.  If P = 0, a and b are multiples of one l = l0 + l1*t:
    if a = b = 0 the gcd is c, a constant l is a unit, and a linear l divides
    c exactly when c(l0/l1) = 0.
    """
    if mul[a[1] * q + b[0]] ^ mul[a[0] * q + b[1]]:
        return True
    l0, l1 = a if a != (0, 0) else b
    if not (l0 or l1):
        return bool(c[0]) and not any(c[1:])
    if not l1:
        return True
    root = mul[l0 * q + inv[l1]]
    value = 0
    for ci in reversed(c):
        value = mul[value * q + root] ^ ci
    return value != 0


def _scan_block(args):
    """Scan the (a, b) pairs of one a-index; return packed valid triples.

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
    reads c = K/P).  The q^3 + q^2 - q pairs with P = 0 test all q^2 pairs:
    no solution, q, or q^2 when a = b = 0.  They are decided, never skipped,
    as "no admissible triple has P = 0" is part of what the scan verifies.
    The candidates, in increasing c-index, then need C2 and C1.
    """
    literal, case_name, ia = args
    q, _add, mul, inv = parse_field(literal).tables()
    pairs = tuple((i % q, i // q) for i in range(q * q))
    case = LieCase[case_name]
    q2 = q * q
    a0, a1 = a = pairs[ia]
    out = []
    for ib, b in enumerate(pairs):
        b0, b1 = b
        # squares routed as in delta_squared; an even poly e0 + e2*t^2 is
        # packed as the index e0 + e2*q, so XOR adds them
        routed = {"alpha": 0, "beta": 0, "zero": 0}
        routed[case.alpha_sq] ^= mul[a0 * q + a0] + mul[a1 * q + a1] * q
        routed[case.beta_sq] ^= mul[b0 * q + b0] + mul[b1 * q + b1] * q
        sa0, sa2 = pairs[routed["alpha"]]
        sb0, sb2 = pairs[routed["beta"]]
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
        # c-index is low + q^2 * high, so this order is increasing
        candidates = [0] if k_zero else []
        candidates += [il + q2 * ih for ih in high for il in low if il or ih]
        for ic in candidates:
            c = pairs[ic % q2] + pairs[ic // q2]
            if (a1 or b1 or c[3]) and _is_primitive(a, b, c, q, mul, inv):
                out.append((ia, ib, ic))
    return out


def _scan(spec, case, jobs=1):
    """All valid packed triples of the case, in lexicographic order."""
    if spec.p != 2:
        raise ValueError("enumeration is specific to characteristic 2")
    literal, q = spec.literal(), spec.order
    blocks = [(literal, case.name, ia) for ia in range(q * q)]
    jobs = min(jobs, len(blocks))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_scan_block, blocks, chunksize=max(1, len(blocks) // (4 * jobs)))
    else:
        results = [_scan_block(b) for b in blocks]
    out = []
    for r in results:
        out.extend(r)
    return out


def _scale_packed(packed, lam, spec, mul):
    q = spec.order

    def scale_idx(idx, width):
        return sum(mul[(idx // q**e % q) * q + lam] * q**e for e in range(width))

    return tuple(scale_idx(idx, width) for idx, width in zip(packed, (2, 2, 4)))


def _canonical_rep(packed, spec, mul, inv):
    """Least element of the scalar orbit: scale the most significant nonzero
    coefficient (a1, a0, b1, b0, c3, ..., c0) to 1, the least nonzero index.
    Scaling keeps the zeros before it, and lam*x = 1 only for lam = x^-1."""
    q = spec.order
    ia, ib, ic = packed
    lead = (ia * q * q + ib) * q**4 + ic
    while lead >= q:
        lead //= q
    return _scale_packed(packed, inv[lead], spec, mul)


def _packed_to_triple(packed, spec, case):
    ia, ib, ic = packed
    return DerivationTriple(
        case,
        _poly_from_index(spec, ia, 1),
        _poly_from_index(spec, ib, 1),
        _poly_from_index(spec, ic, 3),
    )


def _scalar_classes(spec, case, jobs):
    """(valid count, sorted packed least representatives of the scalar classes)."""
    _, _add, mul, inv = spec.tables()
    valid = _scan(spec, case, jobs=jobs)
    reps = sorted({_canonical_rep(pk, spec, mul, inv) for pk in valid})
    if len(valid) != len(reps) * (spec.order - 1):
        raise ConsistencyError(
            f"scalar orbits do not partition the valid set: {len(valid)} valid, "
            f"{len(reps)} classes over {spec.literal()}"
        )
    return len(valid), reps


def find_valid(spec, case, jobs=1):
    """Lexicographically least representatives of the valid scalar classes."""
    _count, reps = _scalar_classes(spec, case, jobs)
    return [_packed_to_triple(pk, spec, case) for pk in reps]


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
    and check admissibility; failures are returned as data, never raised."""
    report = SoundnessReport(field=spec.literal(), case=case.name)
    for family in families_of_case(case):
        count = 0
        for params, triple in iter_family_instances(spec, family):
            count += 1
            if not is_valid_foliation(triple):
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
    scalar_classes: int
    matched: int
    unmatched: list
    overlaps: list
    runtime_seconds: float
    class_matches: list = field(default_factory=list)  # [(triple, [FamilyMatch...])]

    @property
    def complete(self):
        return not self.unmatched

    def to_json_dict(self, with_timing=True):
        out = {
            "field": self.field,
            "case": self.case,
            "total_triples": self.total_triples,
            "valid_count": self.valid_count,
            "scalar_classes": self.scalar_classes,
            "matched": self.matched,
            "unmatched": list(self.unmatched),
            "overlaps": list(self.overlaps),
            "complete": self.complete,
        }
        if with_timing:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def verify_completeness(spec, case, jobs=1):
    """Classify every valid scalar class; unmatched classes are report data."""
    start = time.monotonic()
    valid_count, reps_packed = _scalar_classes(spec, case, jobs)
    unmatched = []
    overlaps = []
    matched = 0
    class_matches = []
    for pk in reps_packed:
        triple = _packed_to_triple(pk, spec, case)
        matches = classify(triple)
        class_matches.append((triple, matches))
        if matches:
            matched += 1
            families = sorted({m.family.value for m in matches})
            if len(families) > 1:
                overlaps.append({"triple": triple.to_json_dict(), "families": families})
        else:
            unmatched.append(triple.to_json_dict())
    return EnumerationReport(
        field=spec.literal(),
        case=case.name,
        total_triples=total_triple_count(spec),
        valid_count=valid_count,
        scalar_classes=len(reps_packed),
        matched=matched,
        unmatched=unmatched,
        overlaps=overlaps,
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
