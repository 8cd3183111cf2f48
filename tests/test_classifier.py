import itertools
import json

import pytest

from folclass.classifier import (
    _FAMILIES,
    _build,
    _t,
    FamilyId,
    classify,
    families_of_case,
    instantiate,
)
from folclass.derivation import DerivationTriple, LieCase, is_valid_foliation, scale
from folclass.cli import main
from folclass.enumerator import verify_completeness, verify_soundness
from folclass.errors import InvalidParameterError, NotAFoliationError
from folclass.finite_field import GF, embed, parse_field
from folclass.polynomial import Poly, parse_poly
from soundness_reference import iter_family_instances, per_tuple_soundness


def triple(case, a, b, c, spec):
    return DerivationTriple(
        LieCase[case], parse_poly(a, spec), parse_poly(b, spec), parse_poly(c, spec)
    )


def test_family_tags_and_cases():
    assert [f.value for f in FamilyId] == [
        "I-a", "I-b",
        "II-i", "II-ii", "II-iii", "II-iv",
        "III-i", "III-ii", "III-iii",
        "IV-i", "IV-ii", "IV-iii", "IV-iv",
    ]
    assert FamilyId("III-ii") is FamilyId.III_II
    assert FamilyId.II_IV.case is LieCase.II
    assert len(families_of_case(LieCase.I)) == 2
    assert len(families_of_case(LieCase.II)) == 4
    assert len(families_of_case(LieCase.III)) == 3
    assert len(families_of_case(LieCase.IV)) == 4


def test_instantiate_known_triples(F2, F4):
    d = instantiate(FamilyId.II_I, {"t1": 0, "t2": 1}, F4)
    assert d == triple("II", "1", "t", "t^2+t", F4)
    d = instantiate(FamilyId.IV_I, {"s1": 1, "t2": 0}, F2)
    assert d == triple("IV", "1", "t", "1", F2)
    d = instantiate(FamilyId.III_I, {"s": 1, "t1": 0}, F2)
    assert d == triple("III", "t", "1", "t^2", F2)


def test_instantiate_accepts_literals(F4):
    d = instantiate(FamilyId.III_I, {"s": "u+1", "t1": "u"}, F4)
    assert d.a == parse_poly("(u+1)*t+u^2+u", F4)  # (u+1)(t+u)


def test_instantiate_constraint_errors(F4):
    one = F4.one
    with pytest.raises(InvalidParameterError) as exc:
        instantiate(FamilyId.II_I, {"t1": one, "t2": one}, F4)
    assert "distinct" in str(exc.value)
    with pytest.raises(InvalidParameterError) as exc:
        instantiate(FamilyId.III_I, {"s": 0, "t1": 1}, F4)
    assert "s must be nonzero" in str(exc.value)
    with pytest.raises(InvalidParameterError):
        instantiate(FamilyId.IV_III, {"s1": 1, "s2": 1, "r2": 0}, F4)
    with pytest.raises(InvalidParameterError):
        instantiate(FamilyId.II_IV, {"t0": 1, "t1": 1, "t2": 0}, F4)
    with pytest.raises(InvalidParameterError) as exc:
        instantiate(FamilyId.I_A, {"s": 1, "t1": 1, "t2": 1}, F4)
    assert "gcd" in str(exc.value)
    with pytest.raises(InvalidParameterError) as exc:
        instantiate(FamilyId.II_I, {"t1": 0}, F4)
    assert "missing parameter" in str(exc.value)


def test_classify_case_ii_example(F4):
    matches = classify(triple("II", "1", "t", "t^2+t", F4))
    assert [m.to_json_dict() for m in matches] == [
        {"family": "II-i", "params": {"t1": "0", "t2": "1"}, "lambda": "1"}
    ]


def test_classify_case_i_example(F4):
    matches = classify(triple("I", "1", "t", "0", F4))
    assert len(matches) == 1
    m = matches[0]
    assert m.family is FamilyId.I_A and str(m.lam) == "1"


def test_classify_case_iv_example(F2):
    matches = classify(triple("IV", "1", "t", "1", F2))
    assert len(matches) == 1
    m = matches[0].to_json_dict()
    assert m["family"] == "IV-i" and m["params"] == {"s1": "1", "t2": "0"} and m["lambda"] == "1"


def test_classify_rejects_invalid(F4):
    with pytest.raises(NotAFoliationError) as exc:
        classify(triple("II", "1", "t", "t^4", F4))
    assert "C2" in str(exc.value)


def test_classify_overlap_case_i_both_degree_one(F2):
    matches = classify(triple("I", "t", "t+1", "0", F2))
    assert {m.family for m in matches} == {FamilyId.I_A, FamilyId.I_B}
    for m in matches:
        inst = scale(m.lam, instantiate(m.family, m.params, F2))
        assert inst == triple("I", "t", "t+1", "0", F2)


def test_classify_overlap_iv_ii_with_iv_iv(F4):
    # a = t, b = 1/s1 + t2*t with t2 != 0 sits in IV-ii and IV-iv at once
    d = instantiate(FamilyId.IV_II, {"s1": 1, "t2": 1}, F4)
    matches = classify(d)
    assert {m.family for m in matches} == {FamilyId.IV_II, FamilyId.IV_IV}


def test_match_serialization_shape(F4):
    m = classify(triple("II", "1", "t", "t^2+t", F4))[0]
    js = m.to_json_dict()
    assert set(js) == {"family", "params", "lambda"}


@pytest.mark.parametrize("q", [4, 8])
def test_soundness_every_instance_is_valid(q):
    spec = GF(q)
    for family in FamilyId:
        for _params, d in iter_family_instances(spec, family):
            assert is_valid_foliation(d), f"{family} instance {d} is not admissible"


@pytest.mark.parametrize("q", [4, 8])
def test_round_trip_every_instance_is_recovered(q):
    spec = GF(q)
    for family in FamilyId:
        for _params, d in iter_family_instances(spec, family):
            matches = classify(d)
            assert any(
                scale(m.lam, instantiate(m.family, m.params, spec)) == d for m in matches
            ), f"{family} instance {d} not recovered"


@pytest.mark.parametrize("q", [4, 8])
def test_signatures_are_those_of_the_instances(q):
    # classify skips a family whose signature set lacks the triple's: a
    # missing signature would lose matches, an extra one would cost time
    spec = GF(q)
    for family in FamilyId:
        instances = iter_family_instances(spec, family)
        realized = {tuple(f.degree for f in d.components()) for _params, d in instances}
        assert _FAMILIES[family].signatures == realized, family


def test_iv_iii_r2_zero_is_iv_ii_with_t2_zero(F4):
    # IV-iii's r2 != 0 is not needed for admissibility: at r2 = 0 its formula
    # gives admissible triples, which are IV-ii's t2 = 0 instances and no
    # IV-iii instance
    zero = F4.zero
    nonzero = [x for x in F4.elements() if x]
    for s1 in nonzero:
        for s2 in nonzero:
            den, a, b, c = _FAMILIES[FamilyId.IV_III].cleared(s1, s2, zero)
            d = scale(den.inverse(), DerivationTriple(LieCase.IV, a, b, c))
            assert is_valid_foliation(d)
            assert [(m.family, m.params) for m in classify(d)] == [
                (FamilyId.IV_II, {"s1": s1 * s2, "t2": zero})
            ]


def _torus_violations(spec, family):
    """Each (tuple, lam) whose image under lam builds another triple than
    the tuple, None (a refused tuple) included, and each (tuple, None) with
    s1 = 0 that the constraints accept."""
    weights = family.torus_weights
    units = [x for x in spec.elements() if x]
    out = []
    for vals in itertools.product(spec.elements(), repeat=len(weights)):
        d = _build(family, vals)
        if not vals[0] and d is not None:
            out.append((vals, None))
        for lam in units:
            if _build(family, [x * lam**w for x, w in zip(vals, weights)]) != d:
                out.append((vals, lam))
    return out


@pytest.mark.parametrize("field", ["GF(4)", "GF(8;mod=x3+x+1)", "GF(8;mod=x3+x2+1)"])
def test_torus_weights_keep_triple_and_constraints(field):
    # the soundness sweep builds a weighted family only at s1 = 1 and counts
    # each accepted tuple q - 1 times: every orbit must give one triple,
    # pass or fail the constraints as one, and s1 = 0 must be refused
    spec = parse_field(field)
    weighted = [f for f in FamilyId if f.torus_weights]
    assert weighted == [FamilyId.IV_III, FamilyId.IV_IV]
    assert [f.torus_weights for f in weighted] == [(1, -1, -1), (1, -1, 0, 0)]
    for family in weighted:
        assert _torus_violations(spec, family) == [], family


def _iv_iv_reading_s1_squared(s1, s2, t1, t2):
    sigma = s1 * s1 * s2  # s1*s2 in the real row
    return (
        sigma * (t1 + t2),
        _t(t1).scale(sigma * (t1 + t2)),
        _t(t2),
        _t(t1, t1, t1).scale(sigma * sigma * (t1 + t2)),
    )


def _iv_iii_without_s1_in_root(s1, s2, r2):
    return (
        s1 * s2,
        _t(r2).scale(s1 * s2),  # _t(s1 * r2) in the real row
        Poly.one(s1.spec),
        _t(r2, r2, r2).scale(s1 * s2 * s1 * s2),
    )


@pytest.mark.parametrize("family, cleared", [
    (FamilyId.IV_IV, _iv_iv_reading_s1_squared),
    (FamilyId.IV_III, _iv_iii_without_s1_in_root),
], ids=["IV-iv-s1-squared", "IV-iii-root-without-s1"])
def test_seeded_row_off_its_torus_fails_the_torus_test(F4, monkeypatch, family, cleared):
    # a row that reads s1 other than through its weights: the orbits of
    # s1 = 1 no longer stand for their q - 1 tuples, and the torus test
    # finds tuples whose image builds another triple
    monkeypatch.setitem(_FAMILIES, family, _FAMILIES[family]._replace(cleared=cleared))
    violations = _torus_violations(F4, family)
    assert violations
    assert all(lam is not None for _vals, lam in violations)


def _substituted(d, alpha):
    """g_alpha(d) = (a(alpha*t), b(alpha*t), c(alpha*t)/alpha)."""
    a, b, c = (Poly(d.spec, [x * alpha**i for i, x in enumerate(f.coeffs)]) for f in d.components())
    return DerivationTriple(d.case, a, b, c.scale(alpha.inverse()))


def _scaling_violations(spec, family):
    """Each (tuple, alpha) whose image under the scaling weights is accepted
    or refused unlike the tuple, or builds no unit multiple of g_alpha of the
    tuple's triple."""
    weights = family.scaling_weights
    units = [x for x in spec.elements() if x]
    out = []
    for vals in itertools.product(spec.elements(), repeat=len(weights)):
        d = _build(family, vals)
        for alpha in units:
            image = _build(family, [x * alpha**w for x, w in zip(vals, weights)])
            if (d is None) != (image is None):
                out.append((vals, alpha))
            elif d is not None:
                g = _substituted(d, alpha)
                pairs = zip(image.components(), g.components())
                lam = next((x.leading / y.leading for x, y in pairs if x and y), None)
                if lam is None or scale(lam, g) != image:
                    out.append((vals, alpha))
    return out


@pytest.mark.parametrize("field", ["GF(4)", "GF(8;mod=x3+x+1)", "GF(8;mod=x3+x2+1)"])
def test_scaling_weights_are_equivariant(field):
    # the soundness sweep builds one tuple per orbit of t -> alpha*t and
    # counts each accepted one q - 1 times: every tuple and its image must
    # pass or fail the constraints as one, and the image must build a unit
    # multiple of g_alpha of the tuple's triple, which is admissible exactly
    # when the triple is
    spec = parse_field(field)
    assert [f.scaling_weights for f in FamilyId] == [
        (0, -1, -1), (0, -1, -1),
        (-1, -1), (-1, -1), (-1, -1), (-1, -1, -1),
        (1, -1), (-1, -1), (1, -1, -1),
        (-1, 0), (1, 0), (0, 1, -1), (0, 1, -1, -1),
    ]
    for family in FamilyId:
        assert _scaling_violations(spec, family) == [], family


def _ii_i_reading_a_root_off_its_weight(t1, t2):
    return t1 + t2, Poly.constant(t1 + t2), _t(t1), _t(t1 * t1, t2)  # _t(t1, t2) in the real row


@pytest.mark.parametrize("q, missed", [(4, 6), (8, 42)])
def test_seeded_row_off_its_scaling_weights_fails_the_equivariance_test(monkeypatch, q, missed):
    # c's root t1^2 scales by alpha^-2 where its weights say alpha^-1, so the
    # row's images are no longer its triples' t -> alpha*t images.  The
    # sweep decides one tuple per orbit and finds nothing, while the
    # per-tuple reference finds the inadmissible instances: the equivariance
    # test, not the sweep, guards the slice
    spec = GF(q)
    row = _FAMILIES[FamilyId.II_I]
    monkeypatch.setitem(_FAMILIES, FamilyId.II_I, row._replace(cleared=_ii_i_reading_a_root_off_its_weight))
    assert _scaling_violations(spec, FamilyId.II_I)
    assert verify_soundness(spec, LieCase.II)["failures"] == []
    assert len(per_tuple_soundness(spec, LieCase.II)["failures"]) == missed


def test_classification_commutes_with_embedding(F2, F8, F16, gf4_reports):
    # classify(embed(d)) == embed(classify(d)) on every scalar class of every
    # case over GF(2) (into GF(8)) and GF(4) (into GF(16)): a match over an
    # extension is the image of one over the base field, which is why
    # classify never searches extensions
    classes = [(d, F8) for case in LieCase for d, _m in verify_completeness(F2, case)[1]]
    classes += [(d, F16) for _report, pairs in gf4_reports.values() for d, _m in pairs]
    assert len(classes) == 4 * (6 + 60)
    for d, F in classes:
        lifted = DerivationTriple(
            d.case, *(Poly(F, tuple(embed(x, F) for x in f.coeffs)) for f in d.components())
        )
        base = classify(d)
        assert base, f"{d} unmatched"
        expected = [
            (m.family, {k: embed(v, F) for k, v in m.params.items()}, embed(m.lam, F))
            for m in base
        ]
        got = [(m.family, m.params, m.lam) for m in classify(lifted)]
        assert got == expected, f"{d} over {F.literal()}"


def test_classification_equivariant_under_scaling(F4):
    u = F4.generator
    d = triple("II", "1", "t", "t^2+t", F4)
    base = classify(d)
    for lam in (u, u + F4.one):
        scaled = classify(scale(lam, d))
        assert [(m.family, sorted((k, str(v)) for k, v in m.params.items())) for m in scaled] == [
            (m.family, sorted((k, str(v)) for k, v in m.params.items())) for m in base
        ]
        assert [m.lam for m in scaled] == [lam * m.lam for m in base]


def _matches_through_scale(d):
    """classify's matches with its lambda test done as it used to be: the
    whole instance scaled by derivation.scale and compared with d."""
    components = d.components()
    signature = tuple(f.degree for f in components)
    out = []
    for family in families_of_case(d.case):
        row = _FAMILIES[family]
        if signature not in row.signatures:
            continue
        params = dict(zip(row.names, row.inverse(*components)))
        try:
            inst = instantiate(family, params, d.spec)
        except InvalidParameterError:
            continue
        x, y = next((x, y) for x, y in zip(components, inst.components()) if x)
        lam = x.leading / y.leading
        if scale(lam, inst) == d:
            out.append((family, params, lam))
    return out


@pytest.mark.parametrize("field", ["GF(4)", "GF(8;mod=x3+x+1)", "GF(8;mod=x3+x2+1)"])
def test_coefficientwise_lambda_test_agrees_with_scale(field):
    # classify compares lam * g with f component by component; on every
    # class of every case this gives the matches of scaling the whole
    # instance, in the same order, with the same parameters and lambda
    spec = parse_field(field)
    for case in LieCase:
        _report, classes = verify_completeness(spec, case)
        assert len(classes) == spec.order**3 - spec.order
        for d, matches in classes:
            assert matches
            assert [(m.family, m.params, m.lam) for m in matches] == _matches_through_scale(d), d


def test_seeded_iv_iv_defect_fails_the_soundness_sweep(F4, monkeypatch, capsys):
    # IV-iv's c scaled by sigma^2 (sigma = u, neither 0 nor 1) breaks the
    # p-closedness of every IV-iv instance: the real sweep refuses all
    # q(q-1)^3 of them and no other family's, and verify-families exits 2
    sigma_squared = F4.generator * F4.generator
    row = _FAMILIES[FamilyId.IV_IV]

    def cleared(*params):
        den, a, b, c = row.cleared(*params)
        return den, a, b, c.scale(sigma_squared)

    monkeypatch.setitem(_FAMILIES, FamilyId.IV_IV, row._replace(cleared=cleared))
    report = verify_soundness(F4, LieCase.IV)
    assert not report["passed"]
    assert {f["family"] for f in report["failures"]} == {"IV-iv"}
    assert len(report["failures"]) == report["instances"]["IV-iv"] == 108
    assert report == per_tuple_soundness(F4, LieCase.IV)
    assert main(["verify-families", "--field", "GF(4)", "--case", "IV", "--no-timing"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == 108


@pytest.mark.parametrize("component", ["b", "c"])
def test_seeded_b_or_c_defect_unmatches_its_family(F4, gf4_reports, monkeypatch, capsys, component):
    # IV-ii's b (or c) scaled by u while a is kept: lambda, read off a,
    # still fits a, so only classify's comparison of b (or c) can refuse
    # the family.  IV-ii matched 12 GF(4) classes, 9 of them together with
    # IV-iv; the real classify drops IV-ii from all 12 and keeps the IV-iv
    # matches, and the other 3 classes are left unmatched, so enumerate
    # exits 2 and lists exactly them
    u = F4.generator
    row = _FAMILIES[FamilyId.IV_II]

    def cleared(*params):
        den, a, b, c = row.cleared(*params)
        return (den, a, b.scale(u), c) if component == "b" else (den, a, b, c.scale(u))

    before = [
        (d, [(m.family, m.params, m.lam) for m in matches])
        for d, matches in gf4_reports[LieCase.IV][1]
        if any(m.family is FamilyId.IV_II for m in matches)
    ]
    assert len(before) == 12
    monkeypatch.setitem(_FAMILIES, FamilyId.IV_II, row._replace(cleared=cleared))
    sole = []
    for d, matches in before:
        kept = [m for m in matches if m[0] is not FamilyId.IV_II]
        assert [(m.family, m.params, m.lam) for m in classify(d)] == kept, d
        if not kept:
            sole.append(d.to_json_dict())
    assert len(sole) == 3
    assert main(["enumerate", "--field", "GF(4)", "--case", "IV", "--no-timing"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == 3
    (result,) = payload["results"]
    assert result["unmatched"] == sole
