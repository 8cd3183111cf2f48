import random
from fractions import Fraction

import pytest

from folclass.cartier import (
    SCALE,
    SCALE_BITS,
    Quadric,
    SymbolicCoeff,
    TopForm,
    TraceOperator,
    cartier_extract,
    cartier_iter,
    cartier_once,
)
from folclass.cli import main
from folclass.errors import ConsistencyError
from folclass.finite_field import GF
from folclass.polynomial import BiPoly


def sym_one():
    return SymbolicCoeff.one()


def test_symbolic_coeff_ring():
    one = sym_one()
    s = SymbolicCoeff.s()
    t = SymbolicCoeff.t()
    assert not (one + one)  # characteristic 2
    assert s * t == t * s
    assert str(s.pth_root()) == "s^(1/2)"
    assert s.pth_root() * s.pth_root() == s
    assert (s + t).pth_root() == s.pth_root() + t.pth_root()
    assert str(s * s * t) == "s^2*t"
    q = SymbolicCoeff({(SCALE // 4, 0)})  # s^(1/4)
    assert q * q * q * q == s


def test_symbolic_sqrt_round_trip_random():
    rng = random.Random(41)
    for _ in range(200):
        # s^(m/2^k) with k < 3 and t^n, as integers over SCALE
        mono = {
            (rng.randrange(8) * SCALE // 2 ** rng.randrange(3), rng.randrange(8) * SCALE)
            for _ in range(rng.randrange(1, 5))
        }
        c = SymbolicCoeff(mono)
        assert c.pth_root() * c.pth_root() == c
        assert c.frobenius() == c * c
        assert c.frobenius().pth_root() == c


class FractionCoeff:
    """Reference model of SymbolicCoeff on Fraction exponents."""

    def __init__(self, monomials):
        self.monomials = frozenset(monomials)

    @classmethod
    def of(cls, c):
        return cls((Fraction(a, SCALE), Fraction(b, SCALE)) for a, b in c.monomials)

    def __add__(self, other):
        return FractionCoeff(self.monomials ^ other.monomials)

    def __mul__(self, other):
        acc = set()
        for sa, ta in self.monomials:
            for sb, tb in other.monomials:
                acc ^= {(sa + sb, ta + tb)}
        return FractionCoeff(acc)

    def pth_root(self):
        return FractionCoeff((sa / 2, ta / 2) for sa, ta in self.monomials)

    def frobenius(self):
        return FractionCoeff((2 * sa, 2 * ta) for sa, ta in self.monomials)

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        for sa, ta in sorted(self.monomials):
            factors = []
            for sym, e in (("s", sa), ("t", ta)):
                if e == 0:
                    continue
                if e == 1:
                    factors.append(sym)
                elif e.denominator == 1:
                    factors.append(f"{sym}^{e.numerator}")
                else:
                    factors.append(f"{sym}^({e.numerator}/{e.denominator})")
            parts.append("*".join(factors) if factors else "1")
        return "+".join(parts)


def _rand_symbolic(rng):
    # exponents m * 2^k / SCALE: every denominator from 1 to 2^10 occurs
    def exponent():
        return rng.randrange(32) << rng.randrange(SCALE_BITS + 1)

    return SymbolicCoeff({(exponent(), exponent()) for _ in range(rng.randrange(6))})


def test_symbolic_coeff_matches_fraction_model_random():
    rng = random.Random(53)
    for _ in range(400):
        c, d = _rand_symbolic(rng), _rand_symbolic(rng)
        mc, md = FractionCoeff.of(c), FractionCoeff.of(d)
        assert str(c) == str(mc)
        assert FractionCoeff.of(c + d).monomials == (mc + md).monomials
        assert FractionCoeff.of(c * d).monomials == (mc * md).monomials
        assert FractionCoeff.of(c.frobenius()).monomials == mc.frobenius().monomials
        root = mc.pth_root()
        if all(e.denominator <= SCALE for mono in root.monomials for e in mono):
            assert FractionCoeff.of(c.pth_root()).monomials == root.monomials
            assert str(c.pth_root()) == str(root)
        else:
            with pytest.raises(ValueError, match=r"2\^-10"):
                c.pth_root()


def test_symbolic_root_scale_bound(monkeypatch, capsys):
    c = SymbolicCoeff.s()
    for _ in range(SCALE_BITS):
        c = c.pth_root()
    assert str(c) == "s^(1/1024)"
    with pytest.raises(ValueError, match=r"exponent scale 2\^-10"):
        c.pth_root()

    # the CLI refuses e = 11 (11 roots) before any trace runs
    def no_trace(self, e):
        raise AssertionError("a trace ran before the --e-max bound was checked")

    monkeypatch.setattr(TraceOperator, "verify_nonvanishing", no_trace)
    assert main(["cartier", "--G", "s,t", "--e-max", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the exponent bound 1024" in captured.err


def test_cartier_once_examples_p2():
    one = sym_one()
    assert cartier_once(BiPoly.monomial(1, 1, one), 2) == BiPoly.monomial(0, 0, one)
    h = BiPoly({(2, 0): one, (0, 1): one})
    assert cartier_once(h, 2).is_zero()


def test_cartier_once_example_p3():
    F3 = GF(3)
    one = F3.one
    G = BiPoly({(2, 0): one, (0, 2): one, (0, 0): one})
    h = G * G * BiPoly.monomial(2, 2, one)
    assert cartier_once(h, 3) == BiPoly.monomial(0, 0, one)


def test_cartier_once_rejects_characteristic_mismatch():
    F4 = GF(4)
    h = BiPoly.monomial(2, 2, F4.one)
    with pytest.raises(ValueError):
        cartier_once(h, 3)
    with pytest.raises(ValueError):
        cartier_once(BiPoly.monomial(2, 2, sym_one()), 3)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_iter_on_diagonal_monomial(e):
    one = sym_one()
    pe = 2**e
    h = BiPoly.monomial(pe - 1, pe - 1, one)
    assert cartier_iter(h, 2, e) == BiPoly.monomial(0, 0, one)


def test_iter_symbolic_example_e2():
    # (xy*G)^3 extracted mod 4 leaves 1 + s^(1/2) x + t^(1/2) y
    G = Quadric.symbolic().G
    one = sym_one()
    h = (BiPoly.monomial(1, 1, one) * G) ** 3
    out = cartier_iter(h, 2, 2)
    expected = BiPoly(
        {(0, 0): one, (1, 0): SymbolicCoeff.s().pth_root(), (0, 1): SymbolicCoeff.t().pth_root()}
    )
    assert out == expected
    assert out * out == G


def rand_bipoly(rng, coeff_pool, max_exp=24, terms=5):
    d = {}
    for _ in range(rng.randrange(1, terms + 1)):
        d[(rng.randrange(max_exp), rng.randrange(max_exp))] = rng.choice(coeff_pool)
    return BiPoly(d)


def _coeff_pools():
    F4 = GF(4)
    F9 = GF(9)
    sym = [SymbolicCoeff.one(), SymbolicCoeff.s(), SymbolicCoeff.t(),
           SymbolicCoeff.s() + SymbolicCoeff.t(), SymbolicCoeff.s() * SymbolicCoeff.t()]
    return {
        (2, "symbolic"): sym,
        (2, "GF(4)"): [x for x in F4.elements() if x],
        (3, "GF(9)"): [x for x in F9.elements() if x],
    }


def test_composition_equals_one_shot_random():
    rng = random.Random(43)
    for (p, _label), pool in _coeff_pools().items():
        for e in (1, 2, 3):
            for _ in range(120):
                h = rand_bipoly(rng, pool)
                stepwise = h
                for _ in range(e):
                    stepwise = cartier_once(stepwise, p)
                assert stepwise == cartier_extract(h, p, e)
                assert cartier_iter(h, p, e) == stepwise


def test_pe_linearity_and_additivity():
    rng = random.Random(47)
    for (p, _label), pool in _coeff_pools().items():
        for e in (1, 2):
            pe = p**e
            for _ in range(60):
                h1 = rand_bipoly(rng, pool)
                h2 = rand_bipoly(rng, pool)
                assert cartier_iter(h1 + h2, p, e) == cartier_iter(h1, p, e) + cartier_iter(h2, p, e)
                u = BiPoly.monomial(rng.randrange(3), rng.randrange(3), rng.choice(pool))
                upe = u**pe if pe > 1 else u
                assert cartier_iter(upe * h1, p, e) == u * cartier_iter(h1, p, e)


def test_trace_with_pole_p3_matches_closed_form():
    F3 = GF(3)
    op = TraceOperator(Quadric.concrete(F3.one, F3.one))
    form = op.trace_with_pole(BiPoly.monomial(2, 2, F3.one), 1)
    assert form.numerator == BiPoly.monomial(0, 0, F3.one)
    assert form.pole_power == 1
    zero_form = op.trace_with_pole(BiPoly({}), 2)
    assert zero_form.is_zero()
    with pytest.raises(ValueError):
        op.trace_with_pole(BiPoly.monomial(2, 2, F3.one), 0)


def _quadrics():
    F3, F4, F5, F8, F9 = GF(3), GF(4), GF(5), GF(8), GF(9)
    return [
        pytest.param(Quadric.symbolic(), 5, id="symbolic"),
        pytest.param(Quadric.concrete(F4.generator, F4.generator + F4.one), 5, id="GF(4)"),
        pytest.param(Quadric.concrete(F8.generator, F8.generator + F8.one), 5, id="GF(8)"),
        pytest.param(Quadric.concrete(F3.one, F3.one), 3, id="GF(3)"),
        pytest.param(Quadric.concrete(F9.generator, F9.one), 3, id="GF(9)"),
        pytest.param(Quadric.concrete(F5.one, F5.one + F5.one), 2, id="GF(5)"),
    ]


@pytest.mark.parametrize("quadric, e_max", _quadrics())
def test_trace_factor_matches_repeated_product(quadric, e_max):
    # the Frobenius-built G^(p^e-1) against p^e - 2 plain products
    p = quadric.p
    for e in range(1, e_max + 1):
        assert quadric.trace_factor(e) == quadric.G ** (p**e - 1), e


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_nonvanishing_symbolic(e):
    op = TraceOperator(Quadric.symbolic())
    nonzero, form = op.verify_nonvanishing(e)
    assert nonzero
    assert form.numerator.total_degree() == 1
    assert form.numerator * form.numerator == op.quadric.G


@pytest.mark.parametrize("e", [1, 2, 3])
def test_nonvanishing_p3(e):
    F3 = GF(3)
    op = TraceOperator(Quadric.concrete(F3.one, F3.one))
    nonzero, form = op.verify_nonvanishing(e)
    assert nonzero
    assert form.numerator == BiPoly.monomial(0, 0, F3.one)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_nonvanishing_p5(e):
    F5 = GF(5)
    op = TraceOperator(Quadric.concrete(F5.one, F5.one))
    nonzero, form = op.verify_nonvanishing(e)
    assert nonzero
    assert form.numerator == BiPoly.monomial(0, 0, F5.one)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_nonvanishing_concrete_gf4(e):
    F4 = GF(4)
    u = F4.generator
    op = TraceOperator(Quadric.concrete(u, u + F4.one))
    nonzero, form = op.verify_nonvanishing(e)
    assert nonzero
    assert form.numerator * form.numerator == op.quadric.G


def _specialise(image, s, t):
    """The symbolic image at field elements s, t (p = 2): s^(a/SCALE) -> (rho^10(s))^a."""
    def scale_root(x):
        for _ in range(SCALE_BITS):
            x = x.pth_root()
        return x

    rs, rt = scale_root(s), scale_root(t)
    terms = {}
    for key, c in image.terms.items():
        value = s.spec.zero
        for a, b in c.monomials:
            value = value + rs**a * rt**b
        terms[key] = value
    return BiPoly(terms)


def _char2_pairs():
    F4, F8 = GF(4), GF(8)
    u = F8.generator
    nonzero4 = [x for x in F4.elements() if x]
    return [(s, t) for s in nonzero4 for t in nonzero4] + [
        (u, u + F8.one), (F8.one, u * u), (u * u + u, u * u + F8.one),
    ]


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_symbolic_image_specialises_to_concrete(e):
    # the symbolic trace is a ring map away from every concrete one in characteristic 2
    symbolic = TraceOperator(Quadric.symbolic())
    image = symbolic.trace_with_pole(symbolic.canonical_input(e), e).numerator
    for s, t in _char2_pairs():
        op = TraceOperator(Quadric.concrete(s, t))
        concrete = op.trace_with_pole(op.canonical_input(e), e).numerator
        assert _specialise(image, s, t) == concrete, (str(s), str(t))


def test_degree_bound_violation_raises():
    # a fake sextic 'quadric' pushes the image out of the degree-1 target
    one = sym_one()
    fake = Quadric(BiPoly({(6, 0): one, (0, 0): one}), 2)
    with pytest.raises(ConsistencyError):
        TraceOperator(fake).verify_nonvanishing(1)


def test_quadric_guards():
    one = sym_one()
    with pytest.raises(ValueError):
        Quadric(BiPoly({(2, 0): one}), 2)  # vanishing constant term
    F4 = GF(4)
    F2 = GF(2)
    with pytest.raises(ValueError):
        Quadric.concrete(F4.one, F2.one)


@pytest.mark.parametrize("q", [4, 3])
def test_concrete_quadric_refuses_s_t_zero(q):
    # G = 1 has no curve to trace along; only s = t = 0 is refused
    F = GF(q)
    with pytest.raises(ValueError, match="not a conic"):
        Quadric.concrete(F.zero, F.zero)
    for s, t in ((F.one, F.zero), (F.zero, F.one)):
        assert Quadric.concrete(s, t).G.constant_term() == F.one


def test_form_printing():
    op = TraceOperator(Quadric.symbolic())
    _nonzero, form = op.verify_nonvanishing(1)
    assert str(form) == "(1 + s^(1/2)*x + t^(1/2)*y)/G dx^dy"
    assert isinstance(form, TopForm)
