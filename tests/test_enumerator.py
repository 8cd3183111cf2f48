import itertools
import json
import random

import pytest

from folclass import cli, enumerator
from folclass.classifier import FamilyId, families_of_case
from folclass.derivation import (
    DerivationTriple,
    LieCase,
    delta_squared,
    is_valid_foliation,
    oracle_delta_squared,
    satisfies_C1,
    satisfies_C2,
)
from folclass.enumerator import (
    enumerate_triples,
    iter_family_instances,
    total_triple_count,
    verify_completeness,
    verify_soundness,
    _canonical_rep,
    _is_primitive,
    _key_to_triple,
    _scalar_classes,
    _scan,
    _solve2,
)
from folclass.finite_field import GF
from folclass.polynomial import Poly, parse_poly


def triple(case, a, b, c, spec):
    return DerivationTriple(
        LieCase[case], parse_poly(a, spec), parse_poly(b, spec), parse_poly(c, spec)
    )


def key_of(d):
    """The key (a1, a0, b1, b0, c3, c2, c1, c0) of a triple."""
    a, b, c = d.components()
    return tuple(f.coeff(e).index for f, width in ((a, 2), (b, 2), (c, 4)) for e in reversed(range(width)))


def all_keys(q):
    """Every key except the zero one, in increasing order."""
    keys = itertools.product(range(q), repeat=8)
    next(keys)
    return keys


def class_reps(spec, case):
    """The least representatives of the valid scalar classes, as triples."""
    _count, keys = _scalar_classes(spec, case)
    return [_key_to_triple(key, spec, case) for key in keys]


def valid_via_oracle(d):
    """Validity recomputed with the operator-composition square."""
    if not (satisfies_C1(d) and satisfies_C2(d)):
        return False
    sq = oracle_delta_squared(d)
    A, B, C = sq.components()
    a, b, c = d.components()
    return not ((A * b + B * a) or (A * c + C * a) or (B * c + C * b))


def test_counts_and_first_triple(F2):
    triples = list(enumerate_triples(F2, LieCase.I))
    assert len(triples) == 255 == total_triple_count(F2)
    first = triples[0]
    assert (str(first.a), str(first.b), str(first.c)) == ("0", "0", "1")


def test_total_count_gf4(F4):
    assert total_triple_count(F4) == 4**8 - 1 == 65535


def test_keys_follow_enumeration_order_gf4(F4):
    # every GF(4) triple: _key_to_triple inverts key_of, and the keys increase
    # strictly in enumerate_triples order, the order the reports sort by
    previous = None
    count = 0
    for d in enumerate_triples(F4, LieCase.II):
        key = key_of(d)
        assert _key_to_triple(key, F4, LieCase.II) == d
        assert previous is None or previous < key
        previous = key
        count += 1
    assert count == 65535


def test_scan_agrees_with_object_filter_gf2(F2):
    for case in LieCase:
        keys = set(_scan(F2, case))
        expected = set()
        for key in all_keys(F2.order):
            d = _key_to_triple(key, F2, case)
            ok = is_valid_foliation(d)
            assert ok == valid_via_oracle(d)
            if ok:
                expected.add(key)
        assert keys == expected, f"case {case.name}"


def test_scan_agrees_with_object_filter_gf4_case_ii(F4):
    keys = set(_scan(F4, LieCase.II))
    count = 0
    for d in enumerate_triples(F4, LieCase.II):
        ok = is_valid_foliation(d)
        if ok:
            count += 1
            assert key_of(d) in keys
    assert count == len(keys)


def test_scan_agrees_with_oracle_filter_gf4_sampled(F4):
    rng = random.Random(29)
    q = F4.order
    for case in LieCase:
        keys = set(_scan(F4, case))
        for _ in range(3000):
            key = tuple(rng.randrange(q) for _ in range(8))
            if not any(key):
                continue
            d = _key_to_triple(key, F4, case)
            assert valid_via_oracle(d) == (key in keys)


def test_find_valid_gf2_case_i(F2):
    reps = class_reps(F2, LieCase.I)
    shown = {(str(d.a), str(d.b), str(d.c)) for d in reps}
    # the full c = 0 locus: gcd(a, b) = 1 with max degree 1
    assert shown == {
        ("1", "t", "0"),
        ("1", "t+1", "0"),
        ("t", "1", "0"),
        ("t+1", "1", "0"),
        ("t", "t+1", "0"),
        ("t+1", "t", "0"),
    }
    assert all(not d.c for d in reps)


def test_find_valid_gf2_case_ii_contains_known_member(F2):
    reps = class_reps(F2, LieCase.II)
    assert triple("II", "t+1", "t", "t^2+t", F2) in reps
    assert all(d.c for d in reps)


# Scalar-class counts, derived by hand from the family parameter spaces:
# each case's classes are q^3 - q.  Case I: pairs (a, b) of max degree 1 with
# gcd 1 modulo scalars: (q^2-1)^2 - (q-1)^2 - q(q-1)^2 = q(q-1)^2(q+1) triples,
# i.e. q(q-1)(q+1) classes.  Case II: II-i/ii/iii give q(q-1) classes each and
# II-iv gives q(q-1)(q-2).  Case III: III-i/ii give q(q-1) each, III-iii gives
# q(q-1)^2.  Case IV: IV-i gives q(q-1), IV-ii with t2 = 0 gives q-1, IV-iii
# gives (q-1)^2 and IV-iv gives q(q-1)^2 (it subsumes IV-ii with t2 != 0).
# All four sums collapse to q^3 - q.
@pytest.mark.parametrize("q,classes", [(2, 6), (4, 60)])
def test_scalar_class_counts(q, classes):
    spec = GF(q)
    for case in LieCase:
        reps = class_reps(spec, case)
        assert len(reps) == classes == q**3 - q


def test_partition_identity_gf4(F4, gf4_reports):
    for case, report in gf4_reports.items():
        assert report.valid_count == report.scalar_classes * (F4.order - 1)
        assert report.total_triples == 65535


def test_completeness_gf4(gf4_reports):
    for case, report in gf4_reports.items():
        assert report.unmatched == []
        assert report.matched == report.scalar_classes == 60


def test_case_i_overlap_classes_gf4(gf4_reports):
    # both-degree-one pairs land in I-a and I-b simultaneously:
    # q(q-1)^3 triples = 36 classes over GF(4)
    report = gf4_reports[LieCase.I]
    assert len(report.overlaps) == 36
    for entry in report.overlaps:
        assert entry["families"] == ["I-a", "I-b"]


def test_case_iv_overlap_classes_gf4(gf4_reports):
    # IV-ii with t2 != 0 is also IV-iv with t1 = 0: (q-1)^2 = 9 classes
    report = gf4_reports[LieCase.IV]
    assert len(report.overlaps) == 9
    for entry in report.overlaps:
        assert entry["families"] == ["IV-ii", "IV-iv"]


def test_completeness_gf8(gf8_reports):
    for case, report in gf8_reports.items():
        assert report.scalar_classes == 504 == 8**3 - 8
        assert report.valid_count == 3528
        assert report.unmatched == []


def test_case_i_classification_needs_no_extension(F4):
    # parameters of the c = 0 families are coefficient ratios, so the base
    # field suffices
    report = verify_completeness(F4, LieCase.I)
    assert report.complete and report.matched == 60


def test_enumeration_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        next(enumerate_triples(GF(9), LieCase.I))
    with pytest.raises(ValueError, match="characteristic 2"):
        _scan(GF(9), LieCase.I)


def test_determinism_across_worker_counts(F4):
    # completeness tasks give the same data serially and in the task pool,
    # and the same as a direct run
    tasks = [("completeness", F4.literal(), name, False, True) for name in ("II", "III")]
    serial = cli._run_tasks(tasks, 1)
    assert cli._run_tasks(tasks, 2) == serial
    assert serial[0]["report"] == verify_completeness(F4, LieCase.II).to_json_dict(with_timing=False)


def test_canonical_rep_is_orbit_minimum(F4, F8):
    rng = random.Random(31)
    for spec in (F4, F8):
        q, _add, mul, _inv = spec.tables()
        for _ in range(200):
            key = tuple(rng.randrange(q) for _ in range(8))
            if not any(key):
                continue
            rep = _canonical_rep(key, spec)
            orbit = {rep}
            for lam in range(1, q):
                orbit.add(tuple(mul[x * q + lam] for x in key))
            assert rep == min(orbit)


def pair_filter(m, rhs, q, mul):
    """The solutions of m*(x, y) = rhs found by testing all q^2 pairs, in
    increasing (y, x) order."""
    m00, m01, m10, m11 = m
    r0, r1 = rhs
    return [
        (x, y)
        for y in range(q)
        for x in range(q)
        if mul[m00 * q + x] ^ mul[m01 * q + y] == r0 and mul[m10 * q + x] ^ mul[m11 * q + y] == r1
    ]


def test_solve2_matches_pair_filter_gf4(F4):
    # every 2x2 system over GF(4), against testing all q^2 pairs
    q, _add, mul, inv = F4.tables()
    nonsingular = 0
    for m00, m01, m10, m11, r0, r1 in itertools.product(range(q), repeat=6):
        m, rhs = (m00, m01, m10, m11), (r0, r1)
        nonsingular += mul[m00 * q + m11] != mul[m01 * q + m10]
        assert _solve2(m, rhs, q, mul, inv) == pair_filter(m, rhs, q, mul)
    assert nonsingular == (q * q - 1) * (q * q - q) * q * q


def test_solve2_singular_systems_match_pair_filter_gf8(F8):
    # every singular 2x2 system over GF(8), whose solutions _solve2 lists
    # along one row's line, against testing all q^2 pairs, order included
    q, _add, mul, inv = F8.tables()
    singular = 0
    for m00, m01, m10, m11 in itertools.product(range(q), repeat=4):
        if mul[m00 * q + m11] != mul[m01 * q + m10]:
            continue
        m = (m00, m01, m10, m11)
        for rhs in itertools.product(range(q), repeat=2):
            assert _solve2(m, rhs, q, mul, inv) == pair_filter(m, rhs, q, mul), (m, rhs)
            singular += 1
    assert singular == (q**3 + q**2 - q) * q * q == 36352


def test_is_primitive_matches_c1_where_p_vanishes_gf4(F4):
    # the scan's C1 shortcut on every GF(4) triple whose (a, b) has P = 0;
    # no such triple is admissible, so the scan-vs-object tests cannot see
    # whether these pairs are decided or skipped
    q, _add, mul, inv = F4.tables()
    checked = 0
    for key in all_keys(q):
        a1, a0, b1, b0 = key[:4]
        if mul[a1 * q + b0] != mul[a0 * q + b1]:
            continue
        d = _key_to_triple(key, F4, LieCase.I)
        assert _is_primitive(key, q, mul, inv) == satisfies_C1(d), d
        checked += 1
    assert checked == (q**3 + q**2 - q) * q**4 - 1 == 19455


@pytest.mark.parametrize("q", [4, 8])
def test_scan_pairs_biject_with_gl2(q, request):
    # (a, b) -> M = [[a1, a0], [b1, b0]]: the valid (a, b) pairs are exactly
    # those with P = det M != 0, each with one c, so |GL2(q)| triples
    spec = request.getfixturevalue(f"F{q}")
    _q, _add, mul, _inv = spec.tables()
    invertible = {
        (a1, a0, b1, b0)
        for a1, a0, b1, b0 in itertools.product(range(q), repeat=4)
        if mul[a1 * q + b0] != mul[a0 * q + b1]
    }
    for case in LieCase:
        valid = _scan(spec, case)
        pairs = [key[:4] for key in valid]
        assert len(pairs) == len(set(pairs)) == (q * q - 1) * (q * q - q)
        assert set(pairs) == invertible
        if q != 4:
            continue
        for key in valid:
            d = _key_to_triple(key, spec, case)
            a, b, c = d.components()
            A, B, _C = delta_squared(d).components()
            s_a = A + c * a.formal_derivative()
            s_b = B + c * b.formal_derivative()
            P = Poly.constant(a.coeff(1) * b.coeff(0) + a.coeff(0) * b.coeff(1))
            assert c * P == s_a * b + s_b * a, d


@pytest.mark.parametrize("q", [4, 8])
def test_soundness_reports(q):
    # instance counts per family, from the constraint spaces of instantiate:
    # I-a/I-b: q^3 - q^2; II-i/ii/iii: q(q-1); II-iv: q(q-1)(q-2);
    # III-i/ii: q(q-1); III-iii: q(q-1)^2; IV-i/ii: q(q-1);
    # IV-iii: (q-1)^3; IV-iv: q(q-1)^3
    line = q * (q - 1)
    expected = {
        LieCase.I: {"I-a": q**3 - q**2, "I-b": q**3 - q**2},
        LieCase.II: {"II-i": line, "II-ii": line, "II-iii": line, "II-iv": line * (q - 2)},
        LieCase.III: {"III-i": line, "III-ii": line, "III-iii": line * (q - 1)},
        LieCase.IV: {"IV-i": line, "IV-ii": line, "IV-iii": (q - 1) ** 3, "IV-iv": q * (q - 1) ** 3},
    }
    spec = GF(q)
    for case in LieCase:
        report = verify_soundness(spec, case)
        assert report.passed
        assert report.instances == expected[case]
        js = report.to_json_dict()
        assert js["passed"] is True and js["failures"] == []


@pytest.mark.parametrize("q, tuples, distinct", [(4, 375, 264), (8, 5103, 2352)])
def test_soundness_decides_each_distinct_triple_once(q, tuples, distinct, monkeypatch):
    # IV-iii and IV-iv read only s1*s2, and families of one case share
    # triples (every IV-iii triple is a IV-iv triple), so a case's tuples
    # give fewer distinct triples; each is decided once, every tuple counted
    spec = GF(q)
    seen = []
    real = enumerator.is_valid_foliation

    def counting(d):
        seen.append(d)
        return real(d)

    monkeypatch.setattr(enumerator, "is_valid_foliation", counting)
    instances = 0
    for case in LieCase:
        before = len(seen)
        instances += sum(verify_soundness(spec, case).instances.values())
        triples = {d for family in families_of_case(case) for _params, d in iter_family_instances(spec, family)}
        assert len(seen) - before == len(set(seen[before:])) == len(triples)
        assert set(seen[before:]) == triples
    assert instances == tuples
    assert len(seen) == distinct


def test_soundness_reports_every_tuple_of_a_refused_triple(F4, monkeypatch):
    # refuse every IV-iv triple: each of the q(q-1)^3 IV-iv tuples is
    # reported, and so is each tuple of another family with such a triple,
    # in the order of a loop that checks every tuple
    q = F4.order
    refused = {d for _params, d in iter_family_instances(F4, FamilyId.IV_IV)}
    monkeypatch.setattr(enumerator, "is_valid_foliation", lambda d: d not in refused)
    expected = [
        {
            "family": family.value,
            "params": {k: str(v) for k, v in params.items()},
            "triple": d.to_json_dict(),
        }
        for family in families_of_case(LieCase.IV)
        for params, d in iter_family_instances(F4, family)
        if d in refused
    ]
    report = verify_soundness(F4, LieCase.IV)
    assert report.failures == expected
    assert sum(f["family"] == "IV-iv" for f in report.failures) == q * (q - 1) ** 3 == 108
    assert not report.passed


def test_family_instances_respect_constraints(F4):
    for _params, d in iter_family_instances(F4, FamilyId.II_IV):
        roots = {str(_params["t0"]), str(_params["t1"]), str(_params["t2"])}
        assert len(roots) == 3


def test_report_json_round_trips(gf4_reports):
    report = gf4_reports[LieCase.II]
    js = report.to_json_dict(with_timing=True)
    assert json.loads(json.dumps(js)) == js
    assert js["complete"] is True
    assert "runtime_seconds" in js
    assert "runtime_seconds" not in report.to_json_dict(with_timing=False)
