import pytest

from folclass.classifier import (
    _FAMILIES,
    FamilyId,
    classify,
    families_of_case,
    instantiate,
)
from folclass.derivation import DerivationTriple, LieCase, is_valid_foliation, scale
from folclass.enumerator import iter_family_instances, verify_completeness
from folclass.errors import InvalidParameterError, NotAFoliationError
from folclass.finite_field import GF, embed
from folclass.polynomial import Poly, parse_poly


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


def test_classification_commutes_with_embedding(F2, F8, F16, gf4_reports):
    # classify(embed(d)) == embed(classify(d)) on every scalar class of every
    # case over GF(2) (into GF(8)) and GF(4) (into GF(16)): a match over an
    # extension is the image of one over the base field, which is why
    # classify never searches extensions
    classes = [(d, F8) for case in LieCase for d, _m in verify_completeness(F2, case).class_matches]
    classes += [(d, F16) for report in gf4_reports.values() for d, _m in report.class_matches]
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
