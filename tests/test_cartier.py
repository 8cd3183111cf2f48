import functools
import random
import tracemalloc
from fractions import Fraction

import pytest

from folclass import cartier
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
from folclass.cli import _parse_quadric, main
from folclass.errors import ConsistencyError
from folclass.finite_field import GF, FieldElement
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
    # e is checked before the zero shortcut: f = 0 is refused alike
    for e in (0, -1):
        with pytest.raises(ValueError, match="e must be >= 1"):
            op.trace_with_pole(BiPoly({}), e)


@functools.cache
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


def _conic(F, u, c0=None):
    """u x^2 + xy + y^2 + u x + y + c0 over F, c0 = 1 unless given: not
    diagonal, so several twist paths reach one exponent of F_k from k = 2
    on, where a diagonal G's never do."""
    one = F.one
    terms = {(2, 0): u, (1, 1): one, (0, 2): one, (1, 0): u, (0, 1): one, (0, 0): c0 or one}
    return Quadric(BiPoly(terms), F.p)


@functools.cache
def _unit_conic():
    """The GF(4) conic with G(0, 0) = u: its canonical input's coefficient
    is u, so the orbit of T starts at u, not 1."""
    F4 = GF(4)
    return _conic(F4, F4.generator, F4.generator)


@functools.cache
def _conics():
    F3, F4, F5 = GF(3), GF(4), GF(5)
    return [
        pytest.param(_conic(F4, F4.generator), 5, id="conic-GF(4)"),
        pytest.param(_conic(F3, F3.one + F3.one), 3, id="conic-GF(3)"),
        pytest.param(_conic(F5, F5.one + F5.one), 2, id="conic-GF(5)"),
    ]


# the running products of each shared quadric's G, G^1 first
_power_lists: dict = {}


def _power(quadric, n):
    """G^n for n >= 1, by one running product of G kept per quadric, so the
    tests that compare against plain powers of one quadric form each once."""
    powers = _power_lists.setdefault(quadric, [quadric.G])
    while len(powers) < n:
        powers.append(powers[-1] * quadric.G)
    return powers[n - 1]


def _factor(quadric, k):
    """F_k = (G^(p^k - 1))^p = G^(p^(k+1) - p) by plain products of G."""
    p = quadric.p
    if k == 0:
        return BiPoly.monomial(0, 0, TraceOperator(quadric)._one)
    return _power(quadric, p ** (k + 1) - p)


def _triangle(degree):
    """Every exponent (X, Y) with X, Y >= 0 and X + Y <= degree."""
    return [(X, Y) for X in range(degree + 1) for Y in range(degree + 1 - X)]


@pytest.mark.parametrize("quadric, e_max", _quadrics() + _conics())
def test_trace_factor_matches_repeated_product(quadric, e_max):
    # every coefficient the reader gives for F_k = G^(p^(k+1) - p), at every
    # exponent up to one degree past F_k's, against plain products of G;
    # the degree bound the reader prunes by is F_k's degree, attained
    op = TraceOperator(quadric)
    for k in range(e_max):
        factor = _factor(quadric, k)
        assert op._degree_bound(k) == factor.total_degree(), k
        read = op._reader(k)
        for X, Y in _triangle(factor.total_degree() + 1):
            c = read(X, Y)
            assert (c or None) == factor.terms.get((X, Y)), (k, X, Y)


@pytest.mark.parametrize(
    "quadric, e_max", [q for q in _conics() if q.id in ("conic-GF(4)", "conic-GF(3)")]
)
def test_conic_rungs_merge_and_cancel(quadric, e_max):
    # F_k[X, Y] sums F_(k-1)[X - u, Y - v] c over the twist's terms: on a
    # conic several of those paths meet on one exponent, and on some the
    # sum cancels, the paths of the reader's sum a diagonal G never takes
    op = TraceOperator(quadric)
    met = cancelled = 0
    for k in range(2, e_max):
        below, read = op._reader(k - 1), op._reader(k)
        twist = op._twists[k]
        for X, Y in _triangle(op._degree_bound(k)):
            paths = sum(bool(below(X - u, Y - v)) for u, v in twist.terms if u <= X and v <= Y)
            met += paths > 1
            cancelled += paths > 1 and not read(X, Y)
    assert 0 < cancelled < met, (met, cancelled)


@pytest.mark.parametrize(
    "labels", [("symbolic", "GF(4)"), ("GF(3)", "GF(9)"), ("conic-GF(4)", "conic-GF(3)")]
)
def test_kept_rung_follows_quadric_and_e(labels):
    # two operators' traces, interleaved in a seeded order with e going up
    # and down: the twists each keeps, grown for a higher e or between the
    # other's calls, must give a fresh operator's images
    quadrics = {q.id: q.values for q in _quadrics() + _conics()}
    rng = random.Random(67)
    cases = []
    for label in labels:
        quadric, e_max = quadrics[label]
        op = TraceOperator(quadric)
        p, pool = quadric.p, _coeff_pool(quadric)
        for e in range(1, e_max + 1):
            f = rand_bipoly(rng, pool, max_exp=2 * p**e)
            image = TraceOperator(quadric).trace_with_pole(f, e).numerator
            cases.append((op, e, f, image))
    for _ in range(40):
        op, e, f, image = rng.choice(cases)
        assert op.trace_with_pole(f, e).numerator == image, e


def test_interleaved_operators_keep_their_own_rungs(monkeypatch):
    """B's trace between A's e = 5 and e = 6 leaves A's twists alone: A's
    e = 6 takes one _frobenius, for H^[p^5], from its kept H^[p^4].  A chain
    shared by all operators restarted A from F_0 = 1 there, which took 5."""
    a = TraceOperator(Quadric.symbolic())
    b = TraceOperator(_parse_quadric("u,u+1@GF(4)"))
    for e in range(1, 6):
        a.verify_nonvanishing(e)
    b.verify_nonvanishing(3)
    real = cartier._frobenius
    calls = []
    monkeypatch.setattr(cartier, "_frobenius", lambda h, p: calls.append(p) or real(h, p))
    image = a.verify_nonvanishing(6)[1].numerator
    assert len(calls) == 1
    monkeypatch.undo()
    assert image == TraceOperator(Quadric.symbolic()).verify_nonvanishing(6)[1].numerator


@pytest.mark.parametrize(
    "quadric, e_max",
    _quadrics() + _conics() + [pytest.param(_unit_conic(), 5, id="conic-GF(4)-c0=u")],
)
def test_orbit_matches_iterate(quadric, e_max):
    # verify_nonvanishing reads T^e(G(0, 0)) off the operator's orbit; at
    # every e it must give the e-step iterate from the canonical input.  One
    # operator is asked in a seeded order, e going up and down, between
    # calls of a second operator on another quadric
    rng = random.Random(71)
    iterate = TraceOperator(quadric)
    expected = {
        e: iterate.trace_with_pole(iterate.canonical_input(e), e).numerator
        for e in range(1, e_max + 1)
    }
    other = TraceOperator(Quadric.symbolic() if quadric is _unit_conic() else _unit_conic())
    op = TraceOperator(quadric)
    order = list(expected) * 2
    rng.shuffle(order)
    assert order != sorted(order)
    for e in order:
        other.verify_nonvanishing(rng.randrange(1, 4))
        assert op.verify_nonvanishing(e)[1].numerator == expected[e], e
    assert len(op._orbit) == e_max + 1


def _coeff_pool(quadric):
    """Nonzero coefficients from the quadric's own ring."""
    one = quadric.G.constant_term()
    if isinstance(one, SymbolicCoeff):
        return _coeff_pools()[(2, "symbolic")]
    return [x for x in one.spec.elements() if x]


@pytest.mark.parametrize("quadric, e_max", _quadrics() + _conics())
def test_trace_matches_brute_force_extraction(quadric, e_max):
    # the p^-1-linear iterate against cartier_iter on the whole G^(p^e-1) f
    rng = random.Random(59)
    p, pool = quadric.p, _coeff_pool(quadric)
    op = TraceOperator(quadric)
    for e in range(1, e_max + 1):
        factor = _power(quadric, p**e - 1)  # shares nothing with the reader
        nonzero = 0
        for _ in range(50):
            f = rand_bipoly(rng, pool, max_exp=2 * p**e)
            image = op.trace_with_pole(f, e).numerator
            assert image == cartier_iter(factor * f, p, e), (e, str(f))
            nonzero += bool(image)
        assert nonzero >= 5, e  # not only images that vanish on both sides


def _drop_largest_term(h):
    terms = dict(h.terms)
    del terms[max(terms, key=lambda k: (k[0] + k[1], k[1]))]
    return BiPoly(terms)


@pytest.mark.parametrize("e", [2, 3])
def test_seeded_frobenius_defect_is_caught(e, monkeypatch, capsys):
    # the twists' term-by-term p-th power feeds only the one-shot side
    real = cartier._frobenius
    monkeypatch.setattr(cartier, "_frobenius", lambda h, p: _drop_largest_term(real(h, p)))
    # a fresh operator: a twist it had kept would skip the defect
    op = TraceOperator(Quadric.symbolic())
    with pytest.raises(ConsistencyError, match="one-shot extraction"):
        op.trace_with_pole(op.canonical_input(e), e)
    assert main(["cartier", "--G", "s,t", "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one-shot extraction" in captured.err


def test_run_forms_each_rung_once(monkeypatch, capsys):
    """cartier at e = 1..8 takes 7 p-th powers, one per new twist: the
    reader of F_(e-1) needs H^[p], ..., H^[p^(e-1)] of H = G^(p-1), and each
    is formed once, from the one before, so no call sees more than |H|
    terms.  Rebuilding the chain at every e took e - 1 of them at each
    e >= 2 and one at e = 1, 29 in all."""
    real = cartier._frobenius
    sizes = []
    monkeypatch.setattr(
        cartier, "_frobenius", lambda h, p: sizes.append(len(h.terms)) or real(h, p)
    )
    assert main(["cartier", "--G", "s,t", "--e-max", "8", "--no-timing"]) == 0
    capsys.readouterr()
    assert len(sizes) == 7
    assert max(sizes) <= len(Quadric.symbolic().G.terms)  # |H| = |G| = 3 at p = 2


def test_run_takes_one_cartier_step_per_e(monkeypatch, capsys):
    """cartier at e = 1..8 makes 8 cartier_once calls, one per point of the
    orbit of T: the image at e is read off the orbit the run has grown.
    Iterating e steps from the canonical input at every e took 36."""
    real = cartier.cartier_once
    calls = []
    monkeypatch.setattr(cartier, "cartier_once", lambda h, p: calls.append(p) or real(h, p))
    assert main(["cartier", "--G", "s,t", "--e-max", "8", "--no-timing"]) == 0
    capsys.readouterr()
    assert len(calls) == 8


def test_cartier_run_releases_the_kept_rung(capsys):
    # the run keeps no power of G beyond H and its twists, and forms none:
    # F_9 = (G^511)^2 alone has 19,683 terms, and the run that built it
    # peaked at 13.4 MB (0.26 MB here)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["cartier", "--G", "s,t", "--e-max", "10", "--no-timing"]) == 0
        held, peak = tracemalloc.get_traced_memory()
        held -= before
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert held < 1_000_000, held
    assert peak < 1_000_000, peak


def test_one_shot_side_makes_few_products(monkeypatch, capsys):
    """cartier at e = 1..10 makes 297 SymbolicCoeff products: 93 on the
    one-shot side, which reads F_(e-1) at a few exponents per term of H f,
    and 204 in the orbit, the one-shot side's H f and the report.
    Iterating e steps from the canonical input at every e made it 648, and
    forming the rungs F_(e-1) 30,108."""
    real_mul, real_extract = SymbolicCoeff.__mul__, cartier._extract_product
    counts = {"run": 0, "one-shot": 0}
    inside = []

    def mul(c, d):
        counts["run"] += 1
        counts["one-shot"] += bool(inside)
        return real_mul(c, d)

    def extract(*args):
        inside.append(True)
        try:
            return real_extract(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(SymbolicCoeff, "__mul__", mul)
    monkeypatch.setattr(cartier, "_extract_product", extract)
    assert main(["cartier", "--G", "s,t", "--e-max", "10", "--no-timing"]) == 0
    capsys.readouterr()
    assert 0 < counts["one-shot"] <= 93 and counts["run"] <= 297, counts


def _cartier_once_without_root(h, p):
    out = {}
    for (i, j), c in h.terms.items():
        if i % p == p - 1 and j % p == p - 1:
            out[((i - p + 1) // p, (j - p + 1) // p)] = c
    return BiPoly(out)


@pytest.mark.parametrize(
    "quadric, _e_max", [q for q in _quadrics() if q.id in ("symbolic", "GF(8)")]
)
@pytest.mark.parametrize("e", [1, 2, 3])
def test_seeded_cartier_once_defect_is_caught(quadric, _e_max, e, monkeypatch, capsys):
    # the iterate's step, and the orbit's, keeps a surviving coefficient
    # without its p-th root: caught through trace_with_pole, through
    # verify_nonvanishing and through the command, which exits 1
    monkeypatch.setattr(cartier, "cartier_once", _cartier_once_without_root)
    op = TraceOperator(quadric)
    with pytest.raises(ConsistencyError, match="one-shot extraction"):
        op.trace_with_pole(op.canonical_input(e), e)
    with pytest.raises(ConsistencyError, match="one-shot extraction"):
        TraceOperator(quadric).verify_nonvanishing(e)
    G = "s,t" if quadric.G.constant_term() == sym_one() else "u,u+1@GF(8)"
    assert main(["cartier", "--G", G, "--e-max", str(e), "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "one-shot extraction" in captured.err


@pytest.mark.parametrize("quadric, _e_max", _quadrics() + _conics())
def test_seeded_orbit_multiplier_without_shift_is_caught(quadric, _e_max):
    # the orbit steps by C(H h), without the x^(p-1) y^(p-1) that makes
    # G^(p^e-1) x^(p^e-1) y^(p^e-1) a product of p^i-th powers of the
    # multiplier.  A run stops at e = 1, where every quadric catches it; a
    # fresh operator at a deeper e may not: where the right image is 1 (e = 2
    # on GF(3), GF(9), GF(5) and conic-GF(5), e = 4 on conic-GF(4)), the
    # wrong orbit has come back to 1 too
    op = TraceOperator(quadric)
    op._multiplier = op.step
    with pytest.raises(ConsistencyError, match="one-shot extraction"):
        op.verify_nonvanishing(1)


def test_seeded_orbit_started_at_one_is_caught():
    # T is p^-1-linear, so on the conic with G(0, 0) = u the orbit of 1 is
    # off by u^(1/p^e) at every e
    for e in range(1, 6):
        op = TraceOperator(_unit_conic())
        op._orbit[0] = BiPoly.monomial(0, 0, GF(4).one)
        with pytest.raises(ConsistencyError, match="one-shot extraction"):
            op.verify_nonvanishing(e)


def test_seeded_orbit_read_one_short_is_caught(monkeypatch):
    # orbit[e - 1] read for orbit[e], on a conic whose image changes with e
    quadric, e_max = next(q.values for q in _conics() if q.id == "conic-GF(4)")
    fresh = TraceOperator(quadric)
    images = [fresh._canonical_image(e) for e in range(e_max + 1)]
    assert all(images[e] != images[e - 1] for e in range(1, e_max + 1))
    real = TraceOperator._canonical_image
    monkeypatch.setattr(
        TraceOperator, "_canonical_image", lambda self, e: (real(self, e), self._orbit[e - 1])[1]
    )
    op = TraceOperator(quadric)
    for e in range(1, e_max + 1):
        with pytest.raises(ConsistencyError, match="one-shot extraction"):
            op.verify_nonvanishing(e)


def _helper_pools():
    """Nonzero coefficients over the symbolic ring and five fields, by p."""
    pools = [(2, _coeff_pools()[(2, "symbolic")])]
    for q in (4, 8, 3, 9, 5):
        F = GF(q)
        pools.append((F.p, [x for x in F.elements() if x]))
    return pools


def _rand_residue_pair(rng, pool, pe):
    """h and g whose exponents come from two residues mod p^e and their
    complements to p^e - 1, shifted by small multiples of p^e, so that pairs
    survive, and several often share an exponent; an unrelated term may
    join either side."""
    residues = [(rng.randrange(pe), rng.randrange(pe)) for _ in range(2)]

    def draw(complement):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            i, j = rng.choice(residues)
            if complement:
                i, j = (-1 - i) % pe, (-1 - j) % pe
            terms[(i + pe * rng.randrange(3), j + pe * rng.randrange(3))] = rng.choice(pool)
        if rng.randrange(3) == 0:
            terms[(rng.randrange(3 * pe), rng.randrange(3 * pe))] = rng.choice(pool)
        return BiPoly(terms)

    return draw(False), draw(True)


def _reading(h):
    """h as _extract_product reads it: its coefficient reader and degree."""
    return (lambda X, Y: h.terms.get((X, Y))), max((i + j for i, j in h.terms), default=-1)


def test_extract_product_matches_extraction_of_product():
    # the one-shot side's survivor-only product against extracting h * g
    rng = random.Random(61)
    empty = cancelled = 0
    for p, pool in _helper_pools():
        for e in range(1, 5):
            pe = p**e
            for _ in range(40):
                h, g = _rand_residue_pair(rng, pool, pe)
                expected = cartier_extract(h * g, p, e)
                image = cartier._extract_product(*_reading(h), g, p, e)
                assert image == expected, (p, e, str(h), str(g))
                keys = {
                    (i1 + i2, j1 + j2)
                    for i1, j1 in h.terms
                    for i2, j2 in g.terms
                    if (i1 + i2) % pe == pe - 1 and (j1 + j2) % pe == pe - 1
                }
                empty += expected.is_zero()
                cancelled += len(expected.terms) < len(keys)
    # 960 products: some images vanish, most do not, and pairs cancel on
    # some exponents (96 and 30 of them at this seed)
    assert 10 <= empty <= 480 and cancelled >= 10, (empty, cancelled)


@pytest.mark.parametrize("p, pool", _helper_pools())
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_extract_product_cancellation_and_empty_image(p, pool, e):
    pe = p**e
    for c in pool[:3]:
        minus = -c if isinstance(c, FieldElement) else c  # -c = c in characteristic 2
        # 1 * x^(pe-1) y^(pe-1) and x * (-x^(pe-2) y^(pe-1)) land on one
        # exponent and cancel; the two other products do not survive
        h = BiPoly({(0, 0): c, (1, 0): c})
        g = BiPoly({(pe - 1, pe - 1): c, (pe - 2, pe - 1): minus})
        assert not (h * g).is_zero()
        assert cartier._extract_product(*_reading(h), g, p, e).is_zero()
        assert cartier_extract(h * g, p, e).is_zero()
        # no pair survives at all: every exponent of both is 0 mod p^e
        h0, g0 = BiPoly({(pe, 0): c, (0, 2 * pe): c}), BiPoly({(0, 0): c, (pe, pe): c})
        assert cartier._extract_product(*_reading(h0), g0, p, e).is_zero()
        assert cartier._extract_product(*_reading(BiPoly({})), g0, p, e).is_zero()


@pytest.mark.parametrize("quadric, _e_max", _quadrics())
def test_trace_factor_at_zero_is_one(quadric, _e_max):
    # F_0 = (G^0)^p = 1: the reader of F_0 on a fresh operator, and again
    # once the operator has formed the twists up to H^[p^2]
    op = TraceOperator(quadric)
    fresh = op._reader(0)
    op._reader(2)(0, 0)
    for read in (fresh, op._reader(0)):
        one = read(0, 0)
        assert BiPoly.monomial(0, 0, one) * quadric.G == quadric.G
        assert not any(read(X, Y) for X, Y in _triangle(4) if (X, Y) != (0, 0))


_real_extract_product = cartier._extract_product


def _extract_dropping_lowest_class(read, bound, g, p, e):
    # the survivor filter loses g's residue class (p^e - 1, p^e - 1)
    pe = p**e
    kept = {k: c for k, c in g.terms.items() if (k[0] % pe, k[1] % pe) != (pe - 1, pe - 1)}
    return _real_extract_product(read, bound, BiPoly(kept), p, e)


def _extract_one_root_short(read, bound, g, p, e):
    # e - 1 p-th roots instead of e: the p-th power of the right image
    image = _real_extract_product(read, bound, g, p, e)
    return BiPoly({k: c.frobenius() for k, c in image.terms.items()})


@pytest.mark.parametrize("defect", [_extract_dropping_lowest_class, _extract_one_root_short])
@pytest.mark.parametrize("G", ["s,t", "u,u+1@GF(8)"])
@pytest.mark.parametrize("e", [2, 3])
def test_seeded_survivor_filter_defect_is_caught(defect, G, e, monkeypatch, capsys):
    # the one-shot side's helper drops a residue class or a root
    monkeypatch.setattr(cartier, "_extract_product", defect)
    op = TraceOperator(_parse_quadric(G))
    with pytest.raises(ConsistencyError, match="one-shot extraction"):
        op.trace_with_pole(op.canonical_input(e), e)
    assert main(["cartier", "--G", G, "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "one-shot extraction" in captured.err


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


def test_quadric_refuses_coefficient_ring_of_other_characteristic():
    # checked once where G enters, not first by the trace's cartier_once
    u = GF(4).generator
    G = BiPoly({(2, 0): u, (0, 2): u + GF(4).one, (0, 0): GF(4).one})
    with pytest.raises(ValueError, match=r"p = 3 does not match GF\(4\) \(characteristic 2\)"):
        Quadric(G, 3)
    with pytest.raises(ValueError, match="symbolic coefficient ring only supports p = 2"):
        Quadric(Quadric.symbolic().G, 3)


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
