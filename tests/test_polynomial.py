import operator
import random

import pytest

from folclass.errors import FieldMismatchError, ParseError
from folclass.finite_field import GF, parse_element, parse_field
from folclass.polynomial import (
    MAX_EXPONENT,
    NEG_INF,
    BiPoly,
    Poly,
    _addmul,
    format_poly,
    parse_poly,
    poly_gcd,
)


def rand_poly(spec, max_deg, rng):
    return Poly(spec, tuple(rng.randrange(spec.order) for _ in range(max_deg + 1)))


def test_zero_degree_sentinel(F4):
    z = Poly.zero(F4)
    assert z.degree == NEG_INF
    assert z.degree < -(10**9)
    assert not z


def test_derivative_examples(F2, F9):
    t = Poly.t(F2)
    one = Poly.one(F2)
    assert (t * t + t).formal_derivative() == one  # char 2: 2t+1 = 1
    assert Poly(F2, (1,)).formal_derivative() == Poly.zero(F2)
    assert (t * t * t).formal_derivative() == t * t  # 3t^2 = t^2 mod 2
    t9 = Poly.t(F9)
    assert (t9 * t9 * t9).formal_derivative() == Poly.zero(F9)  # 3t^2 = 0 mod 3


@pytest.mark.parametrize("q", [4, 9])
def test_derivative_is_additive_and_leibniz(q):
    spec = GF(q)
    rng = random.Random(7)
    for _ in range(200):
        f = rand_poly(spec, 4, rng)
        g = rand_poly(spec, 4, rng)
        assert (f + g).formal_derivative() == f.formal_derivative() + g.formal_derivative()
        assert (f * g).formal_derivative() == f.formal_derivative() * g + f * g.formal_derivative()


def _loop_derivative(f):
    """f' by coefficient loops on FieldElements: e * c as a sum of e copies."""
    zero = f.spec.zero
    deriv = []
    for e, c in enumerate(f.coeffs[1:], 1):
        acc = zero
        for _ in range(e):
            acc = acc + c
        deriv.append(acc)
    return _trim(deriv)


def test_derivative_cached_once_per_poly():
    # each constructor hands back a Poly whose first derivative is kept and
    # returned again; the same coefficient indices over GF(2), GF(3) and
    # GF(5) have distinct derivatives, so a cache keyed by the indices alone
    # would mix the fields up.  f's derivative is cached before the Polys
    # built from f, so none of them may start from f's cache.
    rng = random.Random(41)
    for q in (2, 3, 5):
        spec = GF(q)
        for _ in range(60):
            idx = [rng.randrange(q) for _ in range(rng.randrange(7))]
            f = Poly(spec, idx)
            f.formal_derivative()
            g = Poly._make(spec, [rng.randrange(q) for _ in range(rng.randrange(5))])
            built = (f * g, g * f, f + g, -f, parse_poly(format_poly(f), spec))
            for h in (f, g, *built, Poly(spec, range(1, 6))):
                first = h.formal_derivative()
                assert h.formal_derivative() is first
                assert first.coeffs == _loop_derivative(h), (q, h)
                # the cache lives on the object: an equal Poly built afresh
                # computes its own
                fresh = Poly(spec, h.coeffs)
                assert fresh.formal_derivative() == first
                assert fresh.formal_derivative() is not first


def test_equality_and_hash_ignore_the_derivative_cache(F4):
    f = parse_poly("t^3+u*t+1", F4)
    g = parse_poly("t^3+u*t+1", F4)
    f.formal_derivative()
    assert f == g and hash(f) == hash(g)
    assert {f: 1}[g] == 1
    assert f.formal_derivative() == g.formal_derivative()


def test_square_derivative_vanishes_char2(F4):
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(F4, 4, rng)
        assert not (f * f).formal_derivative()


def test_gcd_examples(F2):
    t = Poly.t(F2)
    one = Poly.one(F2)
    assert poly_gcd(t * t + t, t) == t
    assert poly_gcd(one, t) == one
    assert poly_gcd(t + one, t + one) == t + one
    assert poly_gcd(t + one, Poly.zero(F2)) == t + one
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(F2), Poly.zero(F2))


def test_gcd_divides_both(F4):
    rng = random.Random(13)
    for _ in range(200):
        f = rand_poly(F4, 4, rng)
        g = rand_poly(F4, 3, rng)
        if not f and not g:
            continue
        d = poly_gcd(f, g)
        if f:
            assert not f % d
        if g:
            assert not g % d


def test_common_divisors_divide_gcd(F4):
    rng = random.Random(59)
    for _ in range(200):
        d = rand_poly(F4, 2, rng)
        if not d:
            continue
        f = d * rand_poly(F4, 2, rng)
        g = d * rand_poly(F4, 2, rng)
        if not f and not g:
            continue
        assert not poly_gcd(f, g) % d


def test_divmod_examples(F2, F4):
    t = Poly.t(F2)
    q, r = divmod(t * t + t, t)
    assert q == t + Poly.one(F2) and not r
    with pytest.raises(ZeroDivisionError):
        divmod(t, Poly.zero(F2))
    u = F4.generator
    f = parse_poly("t^2+t", F4)
    assert f.eval(u) == F4.one  # u^2+u = 1
    assert f * Poly.one(F4) == f
    with pytest.raises(TypeError):
        Poly.t(F4) ** -1  # Poly has no power operator


def test_divmod_remainder_degree(F4):
    rng = random.Random(17)
    for _ in range(200):
        f = rand_poly(F4, 5, rng)
        g = rand_poly(F4, 3, rng)
        if not g:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _schoolbook_divmod(f, g, spec):
    rem = list(f)
    d = len(g) - 1
    quot = [spec.zero] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] / g[-1]
        quot[i - d] = c
        for j, b in enumerate(g):
            rem[i - d + j] = rem[i - d + j] - c * b
    return _trim(quot), _trim(rem)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_arithmetic_matches_schoolbook_reference(q):
    # Poly's table arithmetic against coefficient loops on FieldElements.
    # The delta^2 formula, the rewrite oracle and the C3 minors all add their
    # products through _addmul, the loop under Poly's *, so criterion 1
    # (formula against oracle) cannot see a fault in it; this test can.
    spec = GF(q)
    zero = spec.zero
    rng = random.Random(q)
    for _ in range(300):
        f = rand_poly(spec, rng.randrange(6), rng)
        g = rand_poly(spec, rng.randrange(6), rng)
        fc, gc = f.coeffs, g.coeffs
        n = max(len(fc), len(gc))
        fp = fc + (zero,) * (n - len(fc))
        gp = gc + (zero,) * (n - len(gc))
        assert (f + g).coeffs == _trim(x + y for x, y in zip(fp, gp))
        assert (f - g).coeffs == _trim(x - y for x, y in zip(fp, gp))
        assert (-f).coeffs == _trim(-x for x in fc)
        prod = [zero] * max(len(fc) + len(gc) - 1, 0)
        for i, x in enumerate(fc):
            for j, y in enumerate(gc):
                prod[i + j] = prod[i + j] + x * y
        assert (f * g).coeffs == _trim(prod)
        lam = spec.element(rng.randrange(q))
        assert f.scale(lam).coeffs == _trim(lam * x for x in fc)
        assert f.formal_derivative().coeffs == _loop_derivative(f)
        if g:
            quot, rem = divmod(f, g)
            assert (quot.coeffs, rem.coeffs) == _schoolbook_divmod(fc, gc, spec)
            assert (f % g).coeffs == rem.coeffs
    # the kernel on its own: random lists of (f, g) pairs, zero operands and
    # unequal lengths among them, added into one accumulator that is longer
    # than every product and starts from nonzero entries
    for _ in range(300):
        pairs = []
        for _ in range(rng.randrange(1, 5)):
            f = rand_poly(spec, rng.randrange(-1, 5), rng)
            g = rand_poly(spec, rng.randrange(-1, 5), rng)
            pairs.append((f, g))
        n = max(len(f.coeffs) + len(g.coeffs) for f, g in pairs) + rng.randrange(3)
        out = [rng.randrange(q) for _ in range(n)]
        acc = [spec.elements()[i] for i in out]
        for f, g in pairs:
            _addmul(spec, out, f._idx, g._idx)
            for i, x in enumerate(f.coeffs):
                for j, y in enumerate(g.coeffs):
                    acc[i + j] = acc[i + j] + x * y
        assert out == [x.index for x in acc]


def test_cross_field_operations_raise(F4, F8):
    for f in (Poly.zero(F4), Poly.t(F4)):
        for g in (Poly.zero(F8), Poly.t(F8)):
            for op in (operator.add, operator.sub, operator.mul, operator.mod, divmod):
                for x, y in ((f, g), (g, f)):
                    with pytest.raises(FieldMismatchError):
                        op(x, y)
            with pytest.raises(FieldMismatchError):
                f.scale(F8.one)
            with pytest.raises(FieldMismatchError):
                g.scale(F4.one)
    # * runs _addmul on index tuples, which would read GF(8;mod=x3+x2+1)'s
    # indices in GF(8)'s tables of the same size; the spec check refuses it
    other = parse_field("GF(8;mod=x3+x2+1)")
    for f in (Poly.zero(F8), Poly.t(F8), Poly(F8, (3, 5, 7))):
        for g in (Poly.zero(other), Poly.t(other), Poly(other, (3, 5, 7))):
            for x, y in ((f, g), (g, f)):
                with pytest.raises(FieldMismatchError, match="distinct fields"):
                    x * y


def test_parse_and_format(F2, F4):
    f = parse_poly("t^2+u*t+1", F4)
    assert [str(c) for c in f.coeffs] == ["1", "u", "1"]
    assert parse_poly("0", F4) == Poly.zero(F4)
    assert parse_poly("t+t", F2) == Poly.zero(F2)
    assert parse_poly("(u+1)*t^2+u", F4) == Poly(F4, (F4.generator, F4.zero, F4.generator + F4.one))
    assert format_poly(parse_poly("t^3+(u+1)*t", F4)) == "t^3+(u+1)*t"
    assert parse_poly("t^0", F4) == Poly.one(F4)  # a named variable needs no coefficient
    assert parse_poly("t^0+t", F4) == Poly(F4, (1, 1))
    assert parse_poly("u^0*t", F4) == Poly.t(F4)


def test_parse_format_round_trip_exhaustive(F4):
    for idx in range(F4.order**4):
        f = Poly(F4, tuple((idx // F4.order**i) % F4.order for i in range(4)))
        assert parse_poly(format_poly(f), F4) == f


def test_parse_errors_carry_positions(F4):
    too_high = f"t^{MAX_EXPONENT + 1}"
    for text, pos in [("t^", 2), ("t++1", 2), ("(u+1", 0), ("t*", 1), (too_high, 2)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, F4)
        assert exc.value.position == pos
    with pytest.raises(ParseError):
        parse_poly("w+1", F4)


def test_coefficient_errors_carry_positions_in_the_literal(F2):
    # a coefficient's ParseError points into the polynomial literal, not
    # into the coefficient's own text
    for text, spec, pos in [("t^3+u*t", F2, 4), ("t+(1+u)", GF(3), 5), ("u", GF(5), 0)]:
        with pytest.raises(ParseError, match="not defined in the prime field") as exc:
            parse_poly(text, spec)
        assert exc.value.position == pos
        assert exc.value.text == text


def test_parser_never_crashes_on_garbage(F4):
    # every literal grammar, spaces included: a refusal is a ParseError whose
    # position lies in the literal as typed and never on a space; a field
    # literal that scans may still name no supported field, which FieldSpec
    # refuses with a ValueError
    rng = random.Random(37)
    grammars = [
        ("tu^*()+0123456789w ", "{}", lambda text: parse_poly(text, F4)),
        ("u^*+0123456789w ", "{}", lambda text: parse_element(text, GF(9))),
        ("x^*+0123w ", "GF(8;mod={})", parse_field),
        ("0123456789;mod=x^+ ", " GF({})", parse_field),
    ]
    for alphabet, wrap, parse in grammars:
        for _ in range(500):
            text = wrap.format("".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12))))
            try:
                parse(text)
            except ParseError as exc:
                assert 0 <= exc.position <= len(text), text
                assert text[exc.position : exc.position + 1] != " ", text
            except ValueError as exc:
                assert parse is parse_field and str(exc).startswith(("modulus", "field order")), text


def test_bipoly_basics(F4):
    u = F4.generator
    zero = F4.zero
    g = BiPoly({(1, 0): u, (0, 0): F4.one, (2, 2): zero})
    assert (2, 2) not in g.terms  # zero coefficients are never stored
    h = g + g
    assert h.is_zero()
    prod = g * g
    assert prod.terms[(2, 0)] == u * u
    assert g.total_degree() == 1
    assert g.constant_term() == F4.one
    assert (g**2) == g * g
    with pytest.raises(ValueError):
        g**0


def test_bipoly_string_order(F4):
    one = F4.one
    g = BiPoly({(0, 1): one, (1, 0): one, (0, 0): one})
    assert str(g) == "1 + x + y"
