import itertools
import json
import random

import pytest

from folclass import cli, derivation, enumerator
from folclass.classifier import FamilyId, families_of_case
from folclass.derivation import (
    DerivationTriple,
    LieCase,
    delta_squared,
    is_valid_foliation,
    oracle_delta_squared,
    satisfies_C1,
)
from folclass.enumerator import (
    enumerate_triples,
    total_triple_count,
    verify_completeness,
    verify_soundness,
    _key_to_triple,
    _scalar_classes,
)
from folclass.errors import ConsistencyError
from folclass.finite_field import GF, parse_field
from folclass.polynomial import Poly, parse_poly
from scan_reference import full_scan, is_primitive, p_zero_candidates, solve2
from soundness_reference import iter_family_instances, per_tuple_soundness


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
    """Validity recomputed with the operator-composition square, with the
    C1 and C2 that derivation holds when it is called."""
    if not (derivation.satisfies_C1(d) and derivation.satisfies_C2(d)):
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


def _c2_without_an_attained_degree(d):
    return d.a.degree <= 1 and d.b.degree <= 1 and d.c.degree <= 3


@pytest.mark.parametrize(
    "seeded, kept",
    [(False, (6, 6, 6, 6)), (True, (19, 22, 16, 11))],
    ids=["real-C2", "C2-without-an-attained-degree"],
)
def test_scan_agrees_with_object_filter_gf2(F2, monkeypatch, seeded, kept):
    # the scan decides C2 by its own key tests, not through satisfies_C2, so
    # a C2 that drops "at least one degree attained" moves the object filter
    # (and the oracle, which reads the same C2) away from the scan in every case
    if seeded:
        monkeypatch.setattr(derivation, "satisfies_C2", _c2_without_an_attained_degree)
    for case, count in zip(LieCase, kept):
        keys = set(full_scan(F2, case))
        expected = set()
        for key in all_keys(F2.order):
            d = _key_to_triple(key, F2, case)
            ok = is_valid_foliation(d)
            assert ok == valid_via_oracle(d)
            if ok:
                expected.add(key)
        assert len(keys) == 6 and len(expected) == count, f"case {case.name}"
        assert (keys == expected) is not seeded, f"case {case.name}"


def test_scan_agrees_with_object_filter_gf4_case_ii(F4):
    keys = set(full_scan(F4, LieCase.II))
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
        keys = set(full_scan(F4, case))
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
    for report, _classes in gf4_reports.values():
        assert report["valid_count"] == report["scalar_classes"] * (F4.order - 1)
        assert report["total_triples"] == 65535


def test_completeness_gf4(gf4_reports):
    for report, _classes in gf4_reports.values():
        assert report["unmatched"] == []
        assert report["matched"] == report["scalar_classes"] == 60


def test_case_i_overlap_classes_gf4(gf4_reports):
    # both-degree-one pairs land in I-a and I-b simultaneously:
    # q(q-1)^3 triples = 36 classes over GF(4)
    overlaps = gf4_reports[LieCase.I][0]["overlaps"]
    assert len(overlaps) == 36
    for entry in overlaps:
        assert entry["families"] == ["I-a", "I-b"]


def test_case_iv_overlap_classes_gf4(gf4_reports):
    # IV-ii with t2 != 0 is also IV-iv with t1 = 0: (q-1)^2 = 9 classes
    overlaps = gf4_reports[LieCase.IV][0]["overlaps"]
    assert len(overlaps) == 9
    for entry in overlaps:
        assert entry["families"] == ["IV-ii", "IV-iv"]


def test_completeness_gf8(gf8_reports):
    for report, _classes in gf8_reports.values():
        assert report["scalar_classes"] == 504 == 8**3 - 8
        assert report["valid_count"] == 3528
        assert report["unmatched"] == []


def test_case_i_classification_needs_no_extension(F4):
    # parameters of the c = 0 families are coefficient ratios, so the base
    # field suffices
    report, _classes = verify_completeness(F4, LieCase.I)
    assert report["complete"] and report["matched"] == 60


def test_enumeration_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        next(enumerate_triples(GF(9), LieCase.I))
    with pytest.raises(ValueError, match="characteristic 2"):
        _scalar_classes(GF(9), LieCase.I)


def test_determinism_across_worker_counts(F4):
    # completeness tasks give the same data serially and in the task pool,
    # and the same as a direct run
    tasks = [("completeness", F4.literal(), name, True) for name in ("II", "III")]
    serial = [data for data, _seconds in cli._run_tasks(tasks, 1)]
    assert [data for data, _seconds in cli._run_tasks(tasks, 2)] == serial
    assert serial[0]["report"] == verify_completeness(F4, LieCase.II)[0]


@pytest.mark.parametrize("q, mod", [(2, None), (4, None), (8, "x3+x+1"), (8, "x3+x2+1")])
def test_class_scan_matches_brute_force_scan(q, mod):
    # the normalised-pair scan against the scan of all q^4 (a, b) pairs: the
    # scalar multiples of the class keys are exactly the valid keys, and each
    # class key is its orbit's minimum, with first nonzero entry 1
    spec = GF(q, mod)
    _q, _add, mul, _inv = spec.tables()
    for case in LieCase:
        valid_count, keys = _scalar_classes(spec, case)
        orbits = [sorted(tuple(mul[x][lam] for x in key) for lam in range(1, q)) for key in keys]
        assert sorted(k for orbit in orbits for k in orbit) == full_scan(spec, case), case
        for key, orbit in zip(keys, orbits):
            assert next(x for x in key if x) == 1
            assert key == orbit[0]
        assert keys == sorted(keys)
        assert len(keys) == q**3 - q
        assert valid_count == (q * q - 1) * (q * q - q)


def test_class_count_guard_fires_on_a_skipped_pair(F4, monkeypatch, capsys):
    # a class scan that skips the normalised a = t, key (1, 0), loses its
    # q(q-1) classes, those with P = b0 != 0; the run stops naming both counts
    real = enumerator._scan_block

    def skipping(a, *args):
        return [] if a == (1, 0) else real(a, *args)

    monkeypatch.setattr(enumerator, "_scan_block", skipping)
    message = "48 scalar classes over GF(4), expected q^3 - q = 60"
    with pytest.raises(ConsistencyError) as exc:
        verify_completeness(F4, LieCase.II)
    assert str(exc.value) == message
    assert cli.main(["enumerate", "--field", "GF(4)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def pair_filter(m, rhs, q, mul):
    """The solutions of m*(x, y) = rhs found by testing all q^2 pairs, in
    increasing (y, x) order."""
    m00, m01, m10, m11 = m
    r0, r1 = rhs
    return [
        (x, y)
        for y in range(q)
        for x in range(q)
        if mul[m00][x] ^ mul[m01][y] == r0 and mul[m10][x] ^ mul[m11][y] == r1
    ]


def test_solve2_matches_pair_filter_gf4(F4):
    # every 2x2 system over GF(4), against testing all q^2 pairs
    q, _add, mul, inv = F4.tables()
    nonsingular = 0
    for m00, m01, m10, m11, r0, r1 in itertools.product(range(q), repeat=6):
        m, rhs = (m00, m01, m10, m11), (r0, r1)
        nonsingular += mul[m00][m11] != mul[m01][m10]
        assert solve2(m, rhs, q, mul, inv) == pair_filter(m, rhs, q, mul)
    assert nonsingular == (q * q - 1) * (q * q - q) * q * q


def test_solve2_singular_systems_match_pair_filter_gf8(F8):
    # every singular 2x2 system over GF(8), whose solutions solve2 lists
    # along one row's line, against testing all q^2 pairs, order included
    q, _add, mul, inv = F8.tables()
    singular = 0
    for m00, m01, m10, m11 in itertools.product(range(q), repeat=4):
        if mul[m00][m11] != mul[m01][m10]:
            continue
        m = (m00, m01, m10, m11)
        for rhs in itertools.product(range(q), repeat=2):
            assert solve2(m, rhs, q, mul, inv) == pair_filter(m, rhs, q, mul), (m, rhs)
            singular += 1
    assert singular == (q**3 + q**2 - q) * q * q == 36352


def test_is_primitive_matches_c1_where_p_vanishes_gf4(F4):
    # the reference's C1 shortcut on every GF(4) triple whose (a, b) has
    # P = 0; no such triple is admissible, so the scan-vs-object tests cannot
    # see whether these pairs are decided or skipped
    q, _add, mul, inv = F4.tables()
    checked = 0
    for key in all_keys(q):
        a1, a0, b1, b0 = key[:4]
        if mul[a1][b0] != mul[a0][b1]:
            continue
        d = _key_to_triple(key, F4, LieCase.I)
        assert is_primitive(key, mul, inv) == satisfies_C1(d), d
        checked += 1
    assert checked == (q**3 + q**2 - q) * q**4 - 1 == 19455


@pytest.mark.parametrize("q, mod", [(4, None), (8, "x3+x+1"), (8, "x3+x2+1")])
def test_p_zero_pairs_follow_the_emptiness_argument(q, mod, monkeypatch):
    # every P = 0 pair that the class scan visits, sorted into the three
    # kinds of _scan_block's argument, each with its conclusion checked on
    # the reference's candidates: K != 0 leaves no c, K = 0 with l constant
    # forces c3 = 0 (C2 fails), K = 0 with l linear forces c(r) = 0 (C1 fails)
    spec = GF(q, mod)
    _q, _add, mul, inv = spec.tables()
    elements = spec.elements()
    real = enumerator._scan_block
    visited = []

    def recording(a, bs, *args):
        visited.extend((a, b) for b in bs)
        return real(a, bs, *args)

    monkeypatch.setattr(enumerator, "_scan_block", recording)
    for case in LieCase:
        visited.clear()
        _scalar_classes(spec, case)
        kinds = {"K != 0": 0, "l constant": 0, "l linear": 0}
        for (a1, a0), (b1, b0) in visited:
            if mul[a1][b0] != mul[a0][b1]:
                continue
            m = (a1, a0, b1, b0)
            d = _key_to_triple(m + (0, 0, 0, 0), spec, case)
            a, b, _c = d.components()
            s_a, s_b, _ = delta_squared(d).components()  # c = 0 leaves S_A, S_B
            candidates, passing = p_zero_candidates(spec, case, m)
            if s_a * b + s_b * a:
                kind = "K != 0"
                assert candidates == [], d
            elif not (a1 or b1):
                kind = "l constant"
                assert all(c3 == 0 for c3, _c2, _c1, _c0 in candidates), d
            else:
                kind = "l linear"
                l1, l0 = (a1, a0) if a1 or a0 else (b1, b0)
                r = elements[l0] / elements[l1]
                for c in candidates:
                    value = spec.zero
                    for ci in c:
                        value = value * r + elements[ci]
                    assert not value, (d, c)
            kinds[kind] += 1
            assert passing == [], d
            assert real((a1, a0), [(b1, b0)], case, mul, inv) == [], d
        k_nonzero = {"I": 0, "II": (q + 1) * (q - 2), "III": (q + 1) * (q - 1), "IV": q * (q + 1)}
        l_constant = {"I": q + 1, "II": 3, "III": 2, "IV": 1}
        assert kinds["K != 0"] == k_nonzero[case.name], case
        assert kinds["l constant"] == l_constant[case.name], case
        assert sum(kinds.values()) == (q + 1) ** 2, case


@pytest.mark.parametrize("q, mod", [(4, None), (8, "x3+x+1"), (8, "x3+x2+1")])
def test_p_zero_decision_matches_the_candidate_reference(q, mod):
    # every P = 0 pair of all q^4, a = b = 0 included, in every case: the
    # closed-form decision keeps no key, and the reference, which lists the
    # pair's p-closed c one by one, finds none that passes C2 and C1
    spec = GF(q, mod)
    _q, _add, mul, inv = spec.tables()
    p_zero = [m for m in itertools.product(range(q), repeat=4) if mul[m[0]][m[3]] == mul[m[1]][m[2]]]
    assert len(p_zero) == q**3 + q**2 - q
    for case in LieCase:
        for m in p_zero:
            assert enumerator._scan_block(m[:2], [m[2:]], case, mul, inv) == [], (case, m)
            _candidates, passing = p_zero_candidates(spec, case, m)
            assert passing == [], (case, m)


@pytest.mark.parametrize("q, mod", [(4, None), (8, "x3+x+1"), (8, "x3+x2+1")])
def test_p_zero_value_on_every_line_pair(q, mod):
    # the deciding value on arbitrary line data, not only on real pairs
    # (where it is always 0, so only this test tells it from "return 0"):
    # for every l = l0 + l1*t != 0 and every (r0, r2), at every point of
    # low x high as the reference solver lists them, it is l1*c(l0/l1), or
    # l0*c3 when l1 = 0
    spec = GF(q, mod)
    _q, _add, mul, inv = spec.tables()
    for l1, l0 in itertools.product(range(q), repeat=2):
        if not (l1 or l0):
            continue
        by_root = mul[mul[l0][inv[l1]]] if l1 else None
        for r0, r2 in itertools.product(range(q), repeat=2):
            value = enumerator._p_zero_value(l1, l0, r0, r2, mul, inv)
            low = solve2((l1, l0, 0, 0), (r0, 0), q, mul, inv)
            high = solve2((l1, l0, 0, 0), (r2, 0), q, mul, inv)
            assert len(low) == len(high) == q
            for c2, c3 in high:
                for c0, c1 in low:
                    if l1:
                        at_root = 0
                        for ci in (c3, c2, c1, c0):
                            at_root = by_root[at_root] ^ ci
                        expected = mul[l1][at_root]
                    else:
                        expected = mul[l0][c3]
                    assert value == expected, (l1, l0, r0, r2, (c3, c2, c1, c0))


def _root_not_its_square(l1, l0, r0, r2, mul, inv):
    if not l1:
        return r2
    return r0 ^ mul[mul[l0][inv[l1]]][r2]


def _constant_l_reads_r0(l1, l0, r0, r2, mul, inv):
    if not l1:
        return r0
    by_root = mul[mul[l0][inv[l1]]]
    return r0 ^ by_root[by_root[r2]]


@pytest.mark.parametrize(
    "seeded, pairs",
    [(_root_not_its_square, {"II": (0, 0, 1, 2), "III": (1, 2, 0, 0)}),
     (_constant_l_reads_r0, {"II": (0, 0, 0, 1), "III": (0, 1, 0, 0)})],
    ids=["root-not-its-square", "constant-l-reads-r0"],
)
def test_seeded_p_zero_value_defect_is_caught(F4, monkeypatch, capsys, seeded, pairs):
    # a wrong deciding value makes some P = 0 pair look admissible at GF(4):
    # the class scan stops with ConsistencyError naming the pair and the
    # case, and enumerate exits 1 with that message
    monkeypatch.setattr(enumerator, "_p_zero_value", seeded)
    messages = {}
    for case in LieCase:
        try:
            _scalar_classes(F4, case)
        except ConsistencyError as exc:
            messages[case.name] = str(exc)
    assert messages == {
        name: f"case {name}: every p-closed c of the P = 0 pair (a1, a0, b1, b0) = {m} would be admissible"
        for name, m in pairs.items()
    }
    assert cli.main(["enumerate", "--field", "GF(4)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {messages['II']}\n"


@pytest.mark.parametrize("q", [4, 8])
def test_scan_pairs_biject_with_gl2(q, request):
    # (a, b) -> M = [[a1, a0], [b1, b0]]: the valid (a, b) pairs are exactly
    # those with P = det M != 0, each with one c, so |GL2(q)| triples; on
    # the Poly path, from delta_squared, each c solves minor 1: c*P = K
    spec = request.getfixturevalue(f"F{q}")
    _q, _add, mul, _inv = spec.tables()
    invertible = {
        (a1, a0, b1, b0)
        for a1, a0, b1, b0 in itertools.product(range(q), repeat=4)
        if mul[a1][b0] != mul[a0][b1]
    }
    for case in LieCase:
        valid = full_scan(spec, case)
        pairs = [key[:4] for key in valid]
        assert len(pairs) == len(set(pairs)) == (q * q - 1) * (q * q - q)
        assert set(pairs) == invertible
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
        assert report["passed"] is True and report["failures"] == []
        assert report["instances"] == expected[case]


@pytest.mark.parametrize("q, tuples, built, distinct", [(4, 375, 166, 90), (8, 5103, 474, 342)])
def test_soundness_decides_each_distinct_triple_once(q, tuples, built, distinct, monkeypatch):
    # every family is built one tuple per torus orbit and counts each
    # accepted tuple by its orbit's size: 5q^2 + 17q + 18 builds in all
    # (7,104 at GF(8) with every tuple).  Families of one case share triples
    # (IV-ii's of degrees (1, 1, 3) are IV-iv's), so each triple the slice
    # gives is decided once, and every accepted tuple lies in the orbit of a
    # built and accepted one
    spec = GF(q)
    seen = []
    builds = []
    real_valid, real_build = enumerator.is_valid_foliation, enumerator._build

    def counting(d):
        seen.append(d)
        return real_valid(d)

    def counting_build(family, vals):
        builds.append((family, tuple(vals)))
        return real_build(family, vals)

    monkeypatch.setattr(enumerator, "is_valid_foliation", counting)
    monkeypatch.setattr(enumerator, "_build", counting_build)
    instances = 0
    for case in LieCase:
        before = len(seen)
        instances += sum(verify_soundness(spec, case)["instances"].values())
        assert len(seen) - before == len(set(seen[before:]))
    assert instances == tuples
    assert len(builds) == built == 5 * q**2 + 17 * q + 18
    assert len(seen) == distinct
    decided = {(family, vals): real_build(family, vals) for family, vals in builds}
    decided = {key: d for key, d in decided.items() if d is not None}
    assert set(seen) == set(decided.values())
    units = [x for x in spec.elements() if x]
    for family in FamilyId:
        kept = family.torus_weights or (0,) * len(family.param_names)
        torus = [
            [lam**k * alpha**w for k, w in zip(kept, family.scaling_weights)]
            for lam in (units if family.torus_weights else [spec.one])
            for alpha in units
        ]
        for params, _d in iter_family_instances(spec, family):
            orbit = {tuple(x * g for x, g in zip(params.values(), factors)) for factors in torus}
            assert any((family, vals) in decided for vals in orbit), (family, params)


@pytest.mark.parametrize("field", ["GF(2)", "GF(4)", "GF(8;mod=x3+x+1)", "GF(8;mod=x3+x2+1)"])
def test_torus_sweep_matches_per_tuple_reference(field):
    # GF(2) has q - 1 = 1: every orbit is a single tuple
    spec = parse_field(field)
    for case in LieCase:
        assert verify_soundness(spec, case) == per_tuple_soundness(spec, case)


@pytest.mark.parametrize("field", ["GF(4)", "GF(8;mod=x3+x+1)", "GF(8;mod=x3+x2+1)"])
def test_scan_valid_set_is_invariant_under_substitution(field):
    # g_alpha(a, b, c) = (a(alpha*t), b(alpha*t), c(alpha*t)/alpha) scales
    # each key entry by a unit, so it permutes the candidates; mapping the
    # valid keys onto themselves shows that validity is constant on its
    # orbits, which the soundness sweep's orbit slice rests on
    spec = parse_field(field)
    q, _add, mul, _inv = spec.tables()
    units = [x for x in spec.elements() if x]
    for case in LieCase:
        valid = set(full_scan(spec, case))
        for alpha in units:
            # key (a1, a0, b1, b0, c3, c2, c1, c0)
            factors = [f.index for f in (alpha, spec.one, alpha, spec.one, alpha**2, alpha, spec.one, alpha.inverse())]
            image = {tuple(mul[k][f] for k, f in zip(key, factors)) for key in valid}
            assert image == valid, (case, alpha)


def test_soundness_reports_every_tuple_of_a_refused_triple(F4, monkeypatch):
    # refuse every IV-iii and IV-iv triple: each of their (q-1)^3 and
    # q(q-1)^3 tuples is reported, though only the s1 = 1 slices are built
    # at first, and so is each tuple of another family with such a triple
    # (IV-ii's with t2 != 0), in the order of a loop that checks every tuple
    q = F4.order
    refused = {d for family in (FamilyId.IV_III, FamilyId.IV_IV) for _params, d in iter_family_instances(F4, family)}
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
    assert report["failures"] == expected
    assert sum(f["family"] == "IV-iv" for f in report["failures"]) == q * (q - 1) ** 3 == 108
    assert sum(f["family"] == "IV-iii" for f in report["failures"]) == (q - 1) ** 3 == 27
    assert sum(f["family"] == "IV-ii" for f in report["failures"]) == (q - 1) ** 2 == 9
    assert report["passed"] is False
    assert report == per_tuple_soundness(F4, LieCase.IV)


def test_refused_ii_iv_orbit_falls_back_to_every_tuple_gf8(F8, monkeypatch):
    # refuse every II-iv triple, a verdict constant on II-iv's orbits: the
    # slice meets a refused triple, so II-iv is swept over every tuple and
    # its failures are the per-tuple reference's, in the same order
    refused = {d for _params, d in iter_family_instances(F8, FamilyId.II_IV)}
    monkeypatch.setattr(enumerator, "is_valid_foliation", lambda d: d not in refused)
    report = verify_soundness(F8, LieCase.II)
    assert report == per_tuple_soundness(F8, LieCase.II)
    assert len(report["failures"]) == report["instances"]["II-iv"] == 336


def test_family_instances_respect_constraints(F4):
    for _params, d in iter_family_instances(F4, FamilyId.II_IV):
        roots = {str(_params["t0"]), str(_params["t1"]), str(_params["t2"])}
        assert len(roots) == 3


def test_report_json_round_trips(gf4_reports):
    report, _classes = gf4_reports[LieCase.II]
    assert json.loads(json.dumps(report)) == report
    assert report["complete"] is True
    assert "runtime_seconds" not in report  # timed by the command line's task runner
