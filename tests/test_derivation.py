import gc
import itertools
import random
import weakref

import pytest

from folclass import derivation
from folclass.errors import ConsistencyError, FieldMismatchError
from folclass.finite_field import GF
from folclass.polynomial import Poly, parse_poly, poly_gcd
from folclass.derivation import (
    DerivationTriple,
    LieCase,
    chart_at_infinity,
    delta_squared,
    failed_conditions,
    is_valid_foliation,
    oracle_delta_squared,
    satisfies_C1,
    satisfies_C2,
    satisfies_C3,
    scale,
)
from folclass.enumerator import enumerate_triples


def triple(case, a, b, c, spec):
    return DerivationTriple(
        LieCase[case], parse_poly(a, spec), parse_poly(b, spec), parse_poly(c, spec)
    )


def test_lie_cases_are_exactly_four():
    assert [c.name for c in LieCase] == ["I", "II", "III", "IV"]
    assert (LieCase.I.alpha_sq, LieCase.I.beta_sq) == ("zero", "zero")
    assert (LieCase.II.alpha_sq, LieCase.II.beta_sq) == ("alpha", "beta")
    assert (LieCase.III.alpha_sq, LieCase.III.beta_sq) == ("alpha", "zero")
    assert (LieCase.IV.alpha_sq, LieCase.IV.beta_sq) == ("beta", "zero")
    assert LieCase.from_name("ii") is LieCase.II
    with pytest.raises(ValueError):
        LieCase.from_name("V")


def test_triple_construction_guards(F4, F8):
    with pytest.raises(ValueError):
        triple("I", "0", "0", "0", F4)
    with pytest.raises(FieldMismatchError):
        DerivationTriple(LieCase.I, Poly.one(F4), Poly.one(F8), Poly.zero(F4))
    with pytest.raises(ValueError):
        F9 = GF(9)
        DerivationTriple(LieCase.I, Poly.one(F9), Poly.one(F9), Poly.zero(F9))


def test_delta_squared_case_ii_idempotent(F4):
    d = triple("II", "1", "t", "t^2+t", F4)
    sq = delta_squared(d)
    assert (sq.A, sq.B, sq.C) == (d.a, d.b, d.c)  # delta^2 = delta


def test_delta_squared_case_i_czero(F4):
    d = triple("I", "u*t+1", "t+u", "0", F4)
    assert delta_squared(d).is_zero()  # every term carries a factor c


def test_delta_squared_case_iv_example(F2):
    d = triple("IV", "1", "t", "1", F2)
    sq = delta_squared(d)
    assert sq.is_zero()  # B = a^2 + c*b' = 1 + 1 = 0 in char 2


def test_oracle_agrees_exhaustively_over_gf2(F2):
    for case in LieCase:
        for d in enumerate_triples(F2, case):
            assert delta_squared(d) == oracle_delta_squared(d)


def test_oracle_agrees_on_gf4_sample(F4):
    rng = random.Random(3)
    polys1 = [Poly(F4, (rng.randrange(4), rng.randrange(4))) for _ in range(400)]
    polys3 = [Poly(F4, tuple(rng.randrange(4) for _ in range(4))) for _ in range(400)]
    for case in LieCase:
        for a, b, c in zip(polys1, polys1[1:] + polys1[:1], polys3):
            if not (a or b or c):
                continue
            d = DerivationTriple(case, a, b, c)
            assert delta_squared(d) == oracle_delta_squared(d)


def test_oracle_guard_reports_a_seeded_residue(F4, monkeypatch):
    # a wrong rule that sends (d/dt)^2 to the identity word instead of zero
    # must surface as a residue on word 1, not as a delta^2 that differs
    monkeypatch.setitem(derivation._REWRITES[LieCase.II], "TT", "")
    with pytest.raises(ConsistencyError, match="on word 1$"):
        oracle_delta_squared(triple("II", "1", "t", "t^2+t", F4))
    assert oracle_delta_squared(triple("II", "1", "t", "0", F4)) == delta_squared(
        triple("II", "1", "t", "0", F4)
    )


def test_formula_defect_shows_against_the_oracle(F4, monkeypatch):
    # swapping case II's alpha^2 / beta^2 routing is a defect that only the
    # formula sees: _REWRITES copied the routing at import, so the oracle
    # keeps the true relations and criterion 1's comparison must fail
    monkeypatch.setattr(LieCase.II, "alpha_sq", "beta")
    monkeypatch.setattr(LieCase.II, "beta_sq", "alpha")
    assert derivation._REWRITES[LieCase.II]["AA"] == "A"
    d = next(d for d in enumerate_triples(F4, LieCase.II) if delta_squared(d) != oracle_delta_squared(d))
    monkeypatch.undo()
    assert (LieCase.II.alpha_sq, LieCase.II.beta_sq) == ("alpha", "beta")
    again = DerivationTriple(LieCase.II, *d.components())  # not the cached object
    assert delta_squared(again) == oracle_delta_squared(again)


def _verdicts(d):
    return is_valid_foliation(d), satisfies_C3(d), failed_conditions(d)


def test_delta_squared_cache_keeps_every_verdict(F2):
    # every GF(2) triple in all four cases, each judged twice: once after
    # delta_squared ran on equal polynomials in another case, and once
    # after it ran on the triple itself.  C3 is also checked against the
    # minors of the oracle's delta^2, which never reads the cache.
    judged = 0
    for ds in zip(*(enumerate_triples(F2, case) for case in LieCase)):
        for i, d in enumerate(ds):
            delta_squared(ds[i - 1])
            cold = _verdicts(d)
            a, b, c = d.components()
            A, B, C = oracle_delta_squared(d).components()
            minors_vanish = not ((A * b + B * a) or (A * c + C * a) or (B * c + C * b))
            assert cold[1] == minors_vanish, d
            assert delta_squared(d) == oracle_delta_squared(d), d
            assert _verdicts(d) == cold, d
            judged += 1
    assert judged == 4 * 255


def test_formula_evaluated_once_per_triple(F4, monkeypatch):
    # the oracle-gf4 sequence: the formula, the oracle, then the full check,
    # whose C3 reuses the delta^2 just computed for the same triple
    calls = []
    formula = derivation._formula

    def counted(d):
        calls.append(d)
        return formula(d)

    monkeypatch.setattr(derivation, "_formula", counted)
    seen = valid = 0
    for d in enumerate_triples(F4, LieCase.II):
        sq = delta_squared(d)
        assert oracle_delta_squared(d) == sq
        valid += is_valid_foliation(d)
        assert delta_squared(d) is sq
        seen += 1
        assert len(calls) == seen and calls[-1] is d
    assert seen == 4**8 - 1
    assert valid == (16 - 1) * (16 - 4)  # |GL2(4)|


def test_delta_squared_cache_holds_only_the_last_triple(F4):
    first = triple("II", "1", "t", "t^2+t", F4)
    delta_squared(first)
    ref = weakref.ref(first)
    delta_squared(triple("II", "1", "t", "t^2+t", F4))  # equal, not identical
    del first
    gc.collect()
    assert ref() is None


def _routed_squares(d):
    """S_A and S_B: the parts a^2 and b^2 contribute to A and B in d's case."""
    a, b = d.a, d.b
    routed = {"alpha": Poly.zero(d.spec), "beta": Poly.zero(d.spec), "zero": Poly.zero(d.spec)}
    routed[d.case.alpha_sq] = routed[d.case.alpha_sq] + a * a
    routed[d.case.beta_sq] = routed[d.case.beta_sq] + b * b
    return routed["alpha"], routed["beta"]


def _first_minor_holds(d):
    """A*b + B*a == c*P + K, with P = (ab)' and K = S_A*b + S_B*a."""
    a, b, c = d.components()
    A, B, _ = delta_squared(d).components()
    s_a, s_b = _routed_squares(d)
    P = Poly.constant(a.coeff(1) * b.coeff(0) + a.coeff(0) * b.coeff(1))
    return A * b + B * a == c * P + (s_a * b + s_b * a)


def _assert_minor_factorisations(d):
    """The factorisations of the three minors that the packed scan solves."""
    a, b, c = d.components()
    s_a, s_b = _routed_squares(d)
    for s in (s_a, s_b):
        assert s.degree <= 2 and not s.coeff(1), d
    A, B, C = delta_squared(d).components()
    assert A == c * a.formal_derivative() + s_a, d
    assert B == c * b.formal_derivative() + s_b, d
    assert _first_minor_holds(d), d
    assert A * c + C * a == c * ((a * c).formal_derivative() + s_a), d
    assert B * c + C * b == c * ((b * c).formal_derivative() + s_b), d


def test_minor_factorisations_exhaustive_gf2(F2):
    for case in LieCase:
        for d in enumerate_triples(F2, case):
            _assert_minor_factorisations(d)


@pytest.mark.parametrize("q", [4, 8])
def test_minor_factorisations_sampled(q, request):
    spec = request.getfixturevalue(f"F{q}")
    rng = random.Random(q)
    for case in LieCase:
        for _ in range(1500):
            a, b, c = (Poly(spec, tuple(rng.randrange(q) for _ in range(n))) for n in (2, 2, 4))
            if a or b or c:
                _assert_minor_factorisations(DerivationTriple(case, a, b, c))


def test_first_minor_identity_on_a_grid(F4):
    """A*b + B*a = c*P + K holds over every field of characteristic 2.

    Read delta_squared and both sides as maps from the coefficients a1, a0,
    b1, b0, c3 .. c0 to coefficients: straight-line sums of products, whose
    only value branch skips a zero term.  So each coefficient of the
    difference of the two sides is a polynomial over GF(2).  A and B are
    c*a' + S_A and c*b' + S_B, with S_A, S_B among a^2, b^2 and 0, and
    P = a1*b0 + a0*b1, K = S_A*b + S_B*a.  Every product in the difference
    then has degree at most 3 in each a- and b-coefficient (a^2*a, when
    case IV routes a^2 to B) and at most 1 in each c-coefficient (the first
    minor never multiplies c by c).  A polynomial of degree below |S_i| in
    its i-th variable that vanishes on S_1 x ... x S_8 is zero (Alon,
    "Combinatorial Nullstellensatz", 1999, Lemma 2.1).  Taking S_i = GF(4)
    (4 > 3 points) for the a- and b-coefficients and {0, 1} (2 > 1) for the
    c-coefficients gives 16 * 16 * 16 = 4,096 triples per case.  The zero
    triple, which DerivationTriple refuses, satisfies the identity because
    every term on both sides has a factor from (a, b, c).
    """
    linear = [Poly(F4, (a0, a1)) for a1 in range(4) for a0 in range(4)]
    binary = [Poly(F4, cs) for cs in itertools.product((0, 1), repeat=4)]
    checked = 0
    for case in LieCase:
        for a, b, c in itertools.product(linear, linear, binary):
            if a or b or c:
                d = DerivationTriple(case, a, b, c)
                assert _first_minor_holds(d), d
                checked += 1
    assert checked == 4 * (4096 - 1)


def test_c1_examples(F2):
    assert satisfies_C1(triple("I", "1", "t", "0", F2))
    assert not satisfies_C1(triple("I", "t", "t^2", "t^3", F2))
    assert satisfies_C1(triple("I", "t", "t+1", "0", F2))


def _c1_by_full_gcd(d):
    """C1 without the early stop: the monic gcd of every nonzero component."""
    nonzero = [f for f in d.components() if f]
    g = nonzero[0].monic()
    for f in nonzero[1:]:
        g = poly_gcd(g, f)
    return g.degree == 0


def test_c1_early_stop_keeps_every_verdict(F2, F4):
    for case in LieCase:
        for d in enumerate_triples(F2, case):
            assert satisfies_C1(d) == _c1_by_full_gcd(d), d
    # C1 reads no Lie case; over GF(4) take every triple with a of degree 0 or 1
    checked = 0
    for d in enumerate_triples(F4, LieCase.II):
        if d.a:
            assert satisfies_C1(d) == _c1_by_full_gcd(d), d
            checked += 1
    assert checked == 15 * 16 * 256


def test_c2_examples(F4):
    assert satisfies_C2(triple("II", "1", "t", "t^2+t", F4))
    assert not satisfies_C2(triple("II", "1", "1", "t", F4))  # no equality attained
    assert not satisfies_C2(triple("II", "0", "1", "t^4", F4))  # deg c > 3


def test_p_closed_examples(F4, F2):
    assert satisfies_C3(triple("II", "1", "t", "t^2+t", F4))
    assert not satisfies_C3(triple("II", "1", "t", "0", F4))  # minor A*b + B*a = t + t^2 != 0
    assert satisfies_C3(triple("I", "1", "t", "0", F2))  # delta^2 = 0 is proportional to anything
    assert satisfies_C3(triple("I", "t", "t^2", "0", F2))  # C3 holds without C1


def test_condition_compositions_agree_exhaustive_gf2(F2):
    # the validity verdict and the named failures compose the same three
    # conditions
    for case in LieCase:
        for d in enumerate_triples(F2, case):
            failed = failed_conditions(d)
            assert is_valid_foliation(d) == (failed == [])
            assert any(f.startswith("C3") for f in failed) == (not satisfies_C3(d))


def _multiplier(d, sq):
    """h with delta^2 = h * delta, by exact division against a component of
    maximal degree; the remainder must vanish."""
    pairs = [(f, F) for f, F in zip(d.components(), sq.components()) if f]
    denom, numer = max(pairs, key=lambda p: p[0].degree)
    h, rem = divmod(numer, denom)
    assert not rem, d
    return h


def test_nonconstant_multiplier(F4):
    # a=(t+t2), b=(t+t1), c=(t+t1)(t+t2) squares to (t1+t2)*delta
    u = F4.generator
    d = triple("II", "t+u", "t", "t^2+u*t", F4)
    assert satisfies_C3(d)
    sq = delta_squared(d)
    h = _multiplier(d, sq)
    assert h == Poly.constant(u)
    assert sq.components() == (h * d.a, h * d.b, h * d.c)


def test_valid_foliation_examples(F2):
    assert is_valid_foliation(triple("I", "1", "t", "0", F2))
    assert is_valid_foliation(triple("III", "t", "1", "t^2", F2))
    assert not is_valid_foliation(triple("II", "1", "1", "1", F2))
    # (1, 1, t) in case II is p-closed and primitive but misses every degree bound
    assert failed_conditions(triple("II", "1", "1", "t", F2)) == [
        "C2 (degree bounds with at least one equality)"
    ]


def test_chart_examples(F4):
    ch = chart_at_infinity(triple("II", "1", "t", "t^2+t", F4))
    s = Poly.t(F4)
    assert ch.a_bar == s
    assert ch.b_bar == Poly.one(F4)
    assert ch.c_bar == s + s * s
    assert ch.regular and ch.nonvanishing_at_s0

    ch = chart_at_infinity(triple("II", "1", "1", "t", F4))
    assert ch.regular and not ch.nonvanishing_at_s0

    ch = chart_at_infinity(triple("II", "0", "0", "t^4", F4))
    assert not ch.regular and ch.c_bar is None


def test_c2_iff_chart_regular_nonvanishing_gf2(F2):
    for d in enumerate_triples(F2, LieCase.I):
        ch = chart_at_infinity(d)
        assert satisfies_C2(d) == (ch.regular and ch.nonvanishing_at_s0)


def test_chart_matches_pointwise_substitution(F4, F8):
    # s^w * f(1/s) evaluated at any nonzero point equals the chart component
    rng = random.Random(53)
    for spec in (F4, F8):
        q = spec.order
        for _ in range(200):
            a = Poly(spec, (rng.randrange(q), rng.randrange(q)))
            b = Poly(spec, (rng.randrange(q), rng.randrange(q)))
            c = Poly(spec, tuple(rng.randrange(q) for _ in range(rng.randrange(1, 6))))
            if not (a or b or c):
                continue
            d = DerivationTriple(LieCase.I, a, b, c)
            ch = chart_at_infinity(d)
            for s0 in spec.elements():
                if not s0:
                    continue
                inv = s0.inverse()
                if ch.a_bar is not None:
                    assert ch.a_bar.eval(s0) == s0 * d.a.eval(inv)
                if ch.b_bar is not None:
                    assert ch.b_bar.eval(s0) == s0 * d.b.eval(inv)
                if ch.c_bar is not None:
                    assert ch.c_bar.eval(s0) == s0 * s0 * s0 * d.c.eval(inv)


def test_multiplier_reproduces_square(F4, gf4_reports):
    # on primitive p-closed triples, delta^2 = h * delta componentwise
    for case, report in gf4_reports.items():
        for d, _matches in report.class_matches:
            assert satisfies_C1(d) and satisfies_C3(d)
            sq = delta_squared(d)
            h = _multiplier(d, sq)
            assert sq.A == h * d.a and sq.B == h * d.b and sq.C == h * d.c


def test_scale(F4):
    u = F4.generator
    d = triple("I", "1", "t", "0", F4)
    assert scale(F4.one, d) == d
    sd = scale(u, d)
    assert (str(sd.a), str(sd.b), str(sd.c)) == ("u", "u*t", "0")
    with pytest.raises(ZeroDivisionError):
        scale(F4.zero, d)


def test_scaling_covariance_of_delta_squared(F2, F4):
    # delta^2(lam * d) = lam^2 * delta^2(d)
    for case in LieCase:
        for d in enumerate_triples(F2, case):
            sq = delta_squared(d)
            for lam in F2.elements():
                if not lam:
                    continue
                sq2 = delta_squared(scale(lam, d))
                lam2 = lam * lam
                assert sq2.A == sq.A.scale(lam2)
                assert sq2.B == sq.B.scale(lam2)
                assert sq2.C == sq.C.scale(lam2)
    rng = random.Random(5)
    nonzero = [x for x in F4.elements() if x]
    for _ in range(300):
        a = Poly(F4, (rng.randrange(4), rng.randrange(4)))
        b = Poly(F4, (rng.randrange(4), rng.randrange(4)))
        c = Poly(F4, tuple(rng.randrange(4) for _ in range(4)))
        if not (a or b or c):
            continue
        d = DerivationTriple(LieCase[rng.choice(["I", "II", "III", "IV"])], a, b, c)
        sq = delta_squared(d)
        lam = rng.choice(nonzero)
        sq2 = delta_squared(scale(lam, d))
        lam2 = lam * lam
        assert (sq2.A, sq2.B, sq2.C) == (sq.A.scale(lam2), sq.B.scale(lam2), sq.C.scale(lam2))


def test_validity_invariant_under_scaling_gf2(F2):
    for case in LieCase:
        for d in enumerate_triples(F2, case):
            v = is_valid_foliation(d)
            for lam in F2.elements():
                if lam:
                    assert is_valid_foliation(scale(lam, d)) == v


def test_triple_json_shape(F4):
    d = triple("II", "1", "t", "t^2+t", F4)
    assert d.to_json_dict() == {
        "case": "II",
        "a": "1",
        "b": "t",
        "c": "t^2+t",
        "field": "GF(4)",
    }
