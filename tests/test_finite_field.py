import itertools
import operator

import pytest

from folclass.errors import EmbeddingError, FieldMismatchError, ParseError
from folclass.finite_field import (
    GF,
    FieldSpec,
    _poly_mod_mul,
    canonical_modulus,
    embed,
    extension_field,
    format_element,
    format_modulus,
    parse_element,
    parse_field,
)
from folclass.polynomial import MAX_EXPONENT, Poly, format_poly, parse_poly


def test_canonical_moduli():
    # least monic irreducibles under the base-p integer encoding
    assert canonical_modulus(2, 2) == (1, 1, 1)  # u^2+u+1
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert canonical_modulus(2, 4) == (1, 1, 0, 0, 1)  # x^4+x+1
    assert canonical_modulus(3, 2) == (1, 0, 1)  # x^2+1
    assert format_modulus(canonical_modulus(2, 3)) == "x3+x+1"


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (0, 0, 1))  # x^2 = x*x
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2


def test_rejects_unsupported_characteristic():
    with pytest.raises(ValueError):
        FieldSpec(7, 1)


@pytest.mark.parametrize("q", [2, 4, 8, 9])
def test_field_axioms_exhaustive(q):
    spec = GF(q)
    xs = spec.elements()
    zero, one = spec.zero, spec.one
    for x in xs:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if x:
            assert x * x.inverse() == one
    for x, y in itertools.product(xs, xs):
        assert x + y == y + x
        assert x * y == y * x
    for x, y, z in itertools.product(xs, xs, xs):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("q", [2, 4, 8])
def test_char_two_self_cancellation(q):
    spec = GF(q)
    for x in spec.elements():
        assert not (x + x)


def test_gf4_sample_products(F4):
    u = F4.generator
    one = F4.one
    assert u * (u + one) == one  # u^2+u reduces to 1 mod u^2+u+1
    assert one.inverse() == one
    with pytest.raises(ZeroDivisionError):
        F4.zero.inverse()


def test_mixed_field_operands_rejected(F4, F8):
    with pytest.raises(FieldMismatchError):
        F4.one + F8.one
    with pytest.raises(FieldMismatchError):
        F4.generator * F8.generator


@pytest.mark.parametrize("q", [4, 8, 9])
def test_frobenius_is_additive(q):
    spec = GF(q)
    xs = spec.elements()
    for x, y in itertools.product(xs, xs):
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 256])
def test_pth_root_inverts_frobenius(q):
    spec = GF(q)
    p = spec.p
    for x in spec.elements():
        assert x.pth_root() ** p == x
        # the tables against square-and-multiply
        assert spec.frob[x.index] == (x**p).index
        assert spec.root[x.index] == (x ** (p ** (spec.k - 1))).index
        assert spec.root[spec.frob[x.index]] == x.index == spec.frob[spec.root[x.index]]
    assert sorted(spec.frob) == sorted(spec.root) == list(range(q))


def test_pth_root_examples(F4):
    u = F4.generator
    assert F4.zero.pth_root() == F4.zero
    assert F4.one.pth_root() == F4.one
    assert u.pth_root() == u + F4.one  # (u+1)^2 = u^2+1 = u


def test_enumeration_order_and_counts():
    assert [str(x) for x in GF(2).elements()] == ["0", "1"]
    assert [str(x) for x in GF(4).elements()] == ["0", "1", "u", "u+1"]
    eights = GF(8).elements()
    assert len(eights) == 8 == len(set(eights))


def test_embed_prime_field(F2, F4):
    assert embed(F2.zero, F4) == F4.zero
    assert embed(F2.one, F4) == F4.one


def test_embed_gf4_into_gf16(F4, F16):
    u = F4.generator
    img = embed(u, F16)
    one = F16.one
    assert img * img + img + one == F16.zero  # image satisfies the source modulus
    xs = F4.elements()
    for x, y in itertools.product(xs, xs):
        assert embed(x + y, F16) == embed(x, F16) + embed(y, F16)
        assert embed(x * y, F16) == embed(x, F16) * embed(y, F16)
    images = {embed(x, F16) for x in xs}
    assert len(images) == 4


def test_embed_without_root_fails(F4, F8):
    with pytest.raises(EmbeddingError):
        embed(F4.generator, F8)  # 3 is not a multiple of 2


def test_field_literals_round_trip():
    assert parse_field("GF(4)").literal() == "GF(4)"
    assert parse_field("GF(8;mod=x3+x+1)") is parse_field("GF(8)")
    assert parse_field("GF(9)").p == 3
    for spec in (GF(8), GF(8, mod="x3+x2+1"), GF(9)):
        assert parse_field(spec.literal()) is spec
        assert parse_field(f"  {spec.literal()} ") is spec
    with pytest.raises(ParseError):
        parse_field("GF(6)")
    with pytest.raises(ParseError):
        parse_field("GF(0)")
    with pytest.raises(ParseError):
        parse_field("field(4)")
    for q in (512, 1099511627776):  # refused before any modulus search or table
        with pytest.raises(ValueError, match=f"field order {q} is above the supported limit 256"):
            parse_field(f"GF({q})")


@pytest.mark.parametrize("q", [4, 8, 9])
def test_element_literals_round_trip(q):
    spec = GF(q)
    for x in spec.elements():
        assert parse_element(format_element(x), spec) == x
    assert parse_element("u^0", spec) == spec.one


def test_element_literal_errors(F4):
    with pytest.raises(ParseError):
        parse_element("", F4)
    with pytest.raises(ParseError):
        parse_element("u+", F4)
    err = None
    try:
        parse_element("u?1", F4)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_prime_field_refuses_generator(q):
    # GF(p) has no generator u; it used to read as 0, so "u+1" parsed as 1
    spec = GF(q)
    for text, pos in [("u", 0), ("u^2", 0), ("2*u+1", 2), ("1+u^0", 2)]:
        with pytest.raises(ParseError, match=rf"prime field GF\({q}\)") as exc:
            parse_element(text, spec)
        assert exc.value.position == pos
    assert parse_element("2+1", spec) == spec.element(3 % q)


NINES = "9" * 5000

# One grammar for element, polynomial and modulus literals: spaces are
# ignored, and a refusal's position indexes the literal as typed.  Each row is
# (grammar, field, literal, the value's literal or the refusal's position).
LITERALS = [
    ("element", "GF(4)", "u + 1", "u+1"),
    ("element", "GF(9)", " 2 * u ^ 1 + 2 u", "u"),
    ("element", "GF(4)", "u + ?", 4),
    ("element", "GF(4)", "u +  ", 5),
    ("element", "GF(3)", "1 + u", 4),
    ("poly", "GF(4)", "t ^ 2 + u t + 1", "t^2+u*t+1"),
    ("poly", "GF(4)", "( u + 1 ) * t", "(u+1)*t"),
    ("poly", "GF(4)", "t + ?", 4),
    ("poly", "GF(2)", "t^3 + u*t", 6),
    ("poly", "GF(4)", "t + (u + ?)", 9),
    ("poly", "GF(4)", "t + ( )", 6),
    ("poly", "GF(4)", "u^ t", 3),
    ("poly", "GF(4)", "t ^ ", 4),
    ("poly", "GF(4)", f"t ^ {MAX_EXPONENT + 1}", 4),
    ("field", None, "GF(8;mod=x^3 + x + 1)", "GF(8)"),
    ("field", None, " GF(8;mod=x3 + x^2 + 1)", "GF(8;mod=x3+x2+1)"),
    ("field", None, "GF(8;mod=x^3 + ?)", 15),
    ("field", None, "GF(8;mod=x^)", 11),
    ("field", None, "GF(8;mod=x^3+2^x)", 14),
    ("field", None, "GF(8;mod=)", 9),
    ("field", None, "  gf(4)", 2),
    ("field", None, "  GF( x)", 6),
    ("field", None, " GF(8;nod=x)", 6),
    ("field", None, "GF(8; mod=x3+x+1)", "GF(8)"),
    # a digit run above int()'s 4300-digit limit is refused where it starts
    pytest.param("poly", "GF(4)", "t^" + NINES, 2, id="poly-GF(4)-t^<5000 nines>-2"),
    pytest.param("poly", "GF(4)", "t^" + "0" * 5000 + "2", "t^2", id="poly-GF(4)-t^<5000 zeros>2-t^2"),
    pytest.param("element", "GF(4)", "u^" + NINES, 2, id="element-GF(4)-u^<5000 nines>-2"),
    pytest.param("element", "GF(4)", "u+" + NINES, 2, id="element-GF(4)-u+<5000 nines>-2"),
    pytest.param("field", None, f"GF(8;mod={NINES}x3+x+1)", 9, id="field-None-GF(8;mod=<5000 nines>x3+x+1)-9"),
    pytest.param("field", None, f"GF(8;mod=x{NINES}+x+1)", 10, id="field-None-GF(8;mod=x<5000 nines>+x+1)-10"),
    pytest.param("field", None, f"GF({NINES})", 3, id="field-None-GF(<5000 nines>)-3"),
]


@pytest.mark.parametrize("grammar, field, text, expected", LITERALS)
def test_one_literal_grammar(grammar, field, text, expected):
    spec = parse_field(field) if field else None
    parse = {
        "element": lambda: format_element(parse_element(text, spec)),
        "poly": lambda: format_poly(parse_poly(text, spec)),
        "field": lambda: parse_field(text).literal(),
    }[grammar]
    if isinstance(expected, str):
        assert parse() == expected
        return
    with pytest.raises(ParseError) as exc:
        parse()
    assert (exc.value.text, exc.value.position) == (text, expected)


def test_modulus_exponent_above_the_degree_is_refused_where_it_stands():
    # refused while scanning, before one coefficient per degree is allocated
    for text, bound, pos in [
        ("GF(8;mod=x999999999+x+1)", 3, 10),
        ("GF(8;mod=x^4+x+1)", 3, 11),
        ("GF(9;mod= x3+1)", 2, 11),
    ]:
        with pytest.raises(ParseError, match=f"exponent above {bound} at position {pos}"):
            parse_field(text)


def test_modulus_degree_error_names_the_degree_and_the_field():
    with pytest.raises(ValueError, match=r"modulus must be monic of degree 3 for GF\(8\)"):
        parse_field("GF(8;mod=x2+x+1)")
    with pytest.raises(ValueError, match=r"modulus must be monic of degree 2 for GF\(9\)"):
        FieldSpec(3, 2, (1, 0, 2))


@pytest.mark.parametrize("q", [8, 9])
def test_tables_match_direct_arithmetic(q):
    # every table entry against coefficient-vector arithmetic, which the
    # elements themselves no longer use
    spec = GF(q)
    n, add, mul, inv = spec.tables()
    p, xs = spec.p, spec.elements()
    assert n == q == len(xs)
    for x, y in itertools.product(xs, xs):
        s = tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
        m = _poly_mod_mul(x.coeffs, y.coeffs, spec.modulus, p)
        assert xs[add[x.index * q + y.index]].coeffs == s
        assert xs[mul[x.index * q + y.index]].coeffs == m
        assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
        assert x * y is xs[mul[x.index * q + y.index]]
    for i, x in enumerate(xs):
        assert spec.element(i) is x and x.index == i
        assert (-x).coeffs == tuple((-a) % p for a in x.coeffs)
        if x:
            assert _poly_mod_mul(x.coeffs, xs[inv[i]].coeffs, spec.modulus, p) == spec.one.coeffs


def test_one_object_per_field():
    assert FieldSpec(2, 3) is GF(8)
    assert FieldSpec(2, 3, (1, 1, 0, 1)) is GF(8)
    assert extension_field(GF(4), 2) is GF(16)
    for spec in (GF(2), GF(9), GF(8, mod="x3+x2+1")):
        assert parse_field(spec.literal()) is spec
    # the tables and the elements are built with the field, once
    spec = GF(4)
    assert spec.tables() == (4, spec.add, spec.mul, spec.inv)
    assert (spec.zero, spec.one, spec.generator) == spec.elements()[:3]


def test_other_modulus_is_another_field(F8):
    other = GF(8, mod="x3+x2+1")
    assert other is not F8 and other.literal() == "GF(8;mod=x3+x2+1)"
    for x, y in itertools.product(F8.elements(), other.elements()):
        assert x != y
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatchError):
            op(F8.one, other.one)
    for op in (operator.add, operator.sub, operator.mul, divmod):
        with pytest.raises(FieldMismatchError):
            op(Poly.t(F8), Poly.t(other))
    with pytest.raises(FieldMismatchError):
        other.element(F8.one)
    with pytest.raises(FieldMismatchError):
        Poly(F8, (other.one,))
    with pytest.raises(FieldMismatchError):
        Poly.t(F8).scale(other.one)
    with pytest.raises(FieldMismatchError):
        Poly.t(F8).eval(other.one)
