import random
from fractions import Fraction

import pytest

from folclass.cartier import (
    Quadric,
    SymbolicCoeff,
    TopForm,
    TraceOperator,
    cartier_extract,
    cartier_iter,
    cartier_once,
)
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
    assert str(s.sqrt()) == "s^(1/2)"
    assert s.sqrt() * s.sqrt() == s
    assert (s + t).sqrt() == s.sqrt() + t.sqrt()
    assert str(s * s * t) == "s^2*t"
    q = SymbolicCoeff({(Fraction(1, 4), Fraction(0))})
    assert q * q * q * q == s


def test_symbolic_sqrt_round_trip_random():
    rng = random.Random(41)
    for _ in range(200):
        mono = {
            (Fraction(rng.randrange(8), 2 ** rng.randrange(3)), Fraction(rng.randrange(8)))
            for _ in range(rng.randrange(1, 5))
        }
        c = SymbolicCoeff(mono)
        assert c.sqrt() * c.sqrt() == c
        assert c.frobenius() == c * c
        assert c.frobenius().sqrt() == c


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
        {(0, 0): one, (1, 0): SymbolicCoeff.s().sqrt(), (0, 1): SymbolicCoeff.t().sqrt()}
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


def test_form_printing():
    op = TraceOperator(Quadric.symbolic())
    _nonzero, form = op.verify_nonvanishing(1)
    assert str(form) == "(1 + s^(1/2)*x + t^(1/2)*y)/G dx^dy"
    assert isinstance(form, TopForm)
