"""The iterated Cartier operator / Frobenius trace on plane top-forms.

On monomials the Cartier operator keeps x^i y^j with i = j = p-1 (mod p),
takes the p-th root of the coefficient and maps the exponents to
((i-p+1)/p, (j-p+1)/p); everything else dies.  Its e-fold iterate equals a
one-shot extraction mod p^e.  The trace along the fixed quadric G with a
simple pole is  f/G = G^(p^e-1) f / G^(p^e)  |->  C^e(G^(p^e-1) f)/G.

The operator is p^-1-linear, C(g^p h) = g C(h), and
G^(p^e-1) = G^(p-1) * (G^(p^(e-1)-1))^p, so the image is iterated as
h <- C(G^(p-1) h), e times from h = f: each step multiplies by G^(p-1)
alone and keeps h to a few terms.  The one-shot cross-check extracts C^e
mod p^e at once from the same identity read as
G^(p^e-1) f = (G^(p^(e-1)-1))^p * (G^(p-1) f), and must agree with the
iterate.  It never forms G^(p^e-1) f: a term of the p-th power is paired
only with the terms of G^(p-1) f whose exponents complete its own to
p^e - 1 mod p^e, so only the products the extraction keeps are made
(_extract_product).  The p-th power is taken term by term,
c x^i y^j |-> c^p x^(pi) y^(pj).  That is exact because both coefficient
rings have characteristic p, where (a + b)^p = a^p + b^p (the binomial
coefficients C(p, k), 0 < k < p, vanish), and it makes the term-wise p-th
power a ring endomorphism.  So with H = G^(p-1) and H^[p^i] its i-fold
term-wise p-th power, the p-th powers F_k = (G^(p^k-1))^p are the rungs of
a chain, F_(k+1) = F_k H^[p^(k+1)] from F_0 = 1: each new rung raises only
the |H|-term twist, never the rung itself.  Each TraceOperator keeps its
last rung and twist (TraceOperator._rung), so a run of e = 1..e_max forms
one new rung per e, and the chain goes with the operator.  The iterate runs
no Frobenius and the one-shot side no cartier_once, so the two sides share
neither.

Coefficients are either finite-field elements or elements of a symbolic
ring: GF(2)-combinations of monomials s^α t^β, where s and t are formal
non-squares with exact square roots (a finite field cannot contain
non-squares in characteristic 2, so the symbolic ring is the faithful home
for the quadric's coefficients).  The exponents α, β are multiples of
2^-10, stored as integers over the fixed scale SCALE = 2^10; a root that
would leave that grid raises ValueError.  Both rings expose pth_root and
frobenius.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ConsistencyError
from .finite_field import FieldElement
from .polynomial import BiPoly


# Symbolic exponents are integers over this scale: (a, b) stands for
# s^(a/SCALE) t^(b/SCALE).  The trace at e takes e square roots of integer
# exponents, and the CLI caps p^e - 1 at polynomial.MAX_EXPONENT = 1024, so
# e <= 10 for p = 2 and 2^10 is enough.
SCALE_BITS = 10
SCALE = 2**SCALE_BITS


class SymbolicCoeff:
    """A GF(2)-combination of monomials s^α t^β, α and β >= 0 multiples of 2^-10.

    Stored as a frozenset of integer exponent pairs (a, b) meaning
    s^(a/SCALE) t^(b/SCALE); a monomial occurs at most once, its coefficient
    being 1.  Addition is symmetric difference, and the square root halves
    exponents monomial by monomial (Frobenius makes the root of a sum the
    sum of the roots).
    """

    __slots__ = ("monomials",)

    def __init__(self, monomials=()):
        self.monomials = frozenset(monomials)

    @classmethod
    def one(cls):
        return cls({(0, 0)})

    @classmethod
    def s(cls):
        return cls({(SCALE, 0)})

    @classmethod
    def t(cls):
        return cls({(0, SCALE)})

    def __add__(self, other):
        return SymbolicCoeff(self.monomials ^ other.monomials)

    def __mul__(self, other):
        acc: set = set()
        for sa, ta in self.monomials:
            for sb, tb in other.monomials:
                key = (sa + sb, ta + tb)
                if key in acc:
                    acc.remove(key)
                else:
                    acc.add(key)
        return SymbolicCoeff(acc)

    def pth_root(self):
        """The square root (p = 2); refuses an exponent that is not a
        multiple of 2^-9, whose root would fall below the 2^-10 scale."""
        out = {(sa >> 1, ta >> 1) for sa, ta in self.monomials if not (sa | ta) & 1}
        if len(out) != len(self.monomials):  # halving is injective on the kept pairs
            raise ValueError(
                f"square root of {self} leaves the exponent scale 2^-{SCALE_BITS}"
            )
        return SymbolicCoeff(out)

    def frobenius(self):
        """The square, inverse to pth_root: cross terms cancel in characteristic 2."""
        return SymbolicCoeff({(sa << 1, ta << 1) for sa, ta in self.monomials})

    def __bool__(self):
        return bool(self.monomials)

    def __eq__(self, other):
        return isinstance(other, SymbolicCoeff) and self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        # integer order is the order of the exponents a/SCALE
        for sa, ta in sorted(self.monomials):
            factors = []
            for sym, a in (("s", sa), ("t", ta)):
                if a == 0:
                    continue
                e = Fraction(a, SCALE)
                if e == 1:
                    factors.append(sym)
                elif e.denominator == 1:
                    factors.append(f"{sym}^{e.numerator}")
                else:
                    factors.append(f"{sym}^({e.numerator}/{e.denominator})")
            parts.append("*".join(factors) if factors else "1")
        return "+".join(parts)

    def __repr__(self):
        return f"SymbolicCoeff({self})"


def _check_characteristic(c, p):
    """Refuse a coefficient whose ring does not have characteristic p."""
    if isinstance(c, SymbolicCoeff):
        if p != 2:
            raise ValueError("the symbolic coefficient ring only supports p = 2")
    elif isinstance(c, FieldElement):
        if c.spec.p != p:
            raise ValueError(
                f"p = {p} does not match {c.spec.literal()} (characteristic {c.spec.p})"
            )
    else:
        raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _frobenius(h: BiPoly, p: int) -> BiPoly:
    """h^p, taken term by term (exact in characteristic p).  Only
    TraceOperator._rung calls it, on the twist H^[p^k] of G^(p-1), never on
    a rung; Quadric checks G's coefficients once against p."""
    return BiPoly({(p * i, p * j): c.frobenius() for (i, j), c in h.terms.items()})


def cartier_once(h: BiPoly, p: int) -> BiPoly:
    """One application of the Cartier operator to h dx^dy."""
    out = {}
    for (i, j), c in h.terms.items():
        if i % p == p - 1 and j % p == p - 1:
            _check_characteristic(c, p)
            out[((i - p + 1) // p, (j - p + 1) // p)] = c.pth_root()
    return BiPoly(out)


def cartier_extract(h: BiPoly, p: int, e: int) -> BiPoly:
    """One-shot mod-p^e extraction: the closed form of the e-fold iterate."""
    pe = p**e
    out = {}
    for (i, j), c in h.terms.items():
        if i % pe == pe - 1 and j % pe == pe - 1:
            _check_characteristic(c, p)
            for _ in range(e):
                c = c.pth_root()
            out[((i - pe + 1) // pe, (j - pe + 1) // pe)] = c
    return BiPoly(out)


def _extract_product(h: BiPoly, g: BiPoly, p: int, e: int) -> BiPoly:
    """cartier_extract(h * g, p, e), forming only the terms it keeps.

    A term of h pairs with the terms of g whose exponents, mod p^e, complete
    its own to p^e - 1 in both variables: g is indexed by that residue, so
    no other product is formed.  The survivors are summed (pairs may land
    on one exponent and cancel) and handed to cartier_extract, which takes
    the e p-th roots."""
    pe = p**e
    by_residue: dict = {}
    for (i, j), c in g.terms.items():
        by_residue.setdefault((i % pe, j % pe), []).append((i, j, c))
    kept: dict = {}
    for (i1, j1), c1 in h.terms.items():
        for i2, j2, c2 in by_residue.get(((-1 - i1) % pe, (-1 - j1) % pe), ()):
            key = (i1 + i2, j1 + j2)
            c = c1 * c2
            kept[key] = kept[key] + c if key in kept else c
    return cartier_extract(BiPoly(kept), p, e)


def cartier_iter(h: BiPoly, p: int, e: int) -> BiPoly:
    """The e-fold composite of cartier_once, cross-checked against the
    one-shot extraction; a mismatch raises ConsistencyError.

    The check cannot see a cartier_once that drops the p-th root when e is
    a multiple of the coefficient field's degree over GF(p), as over GF(8)
    at e = 3: e roots are then the identity and both sides agree.  The
    trace's cross-check catches that defect there
    (test_seeded_cartier_once_defect_is_caught[3-GF(8)])."""
    if e < 1:
        raise ValueError("iteration count e must be >= 1")
    out = h
    for _ in range(e):
        out = cartier_once(out, p)
    if out != cartier_extract(h, p, e):
        raise ConsistencyError("e-fold Cartier composition disagrees with one-shot extraction")
    return out


class Quadric:
    """The dehomogenized conic G(x, y, 1); the constant term must be a unit,
    and every coefficient must lie in a ring of characteristic p."""

    __slots__ = ("G", "p")

    def __init__(self, G: BiPoly, p: int):
        if not G.constant_term():
            raise ValueError("quadric must satisfy G(0, 0) != 0")
        for c in G.terms.values():
            _check_characteristic(c, p)
        self.G = G
        self.p = p

    @classmethod
    def symbolic(cls):
        """G = s*x^2 + t*y^2 + 1 with s, t formal non-squares (p = 2)."""
        G = BiPoly(
            {
                (2, 0): SymbolicCoeff.s(),
                (0, 2): SymbolicCoeff.t(),
                (0, 0): SymbolicCoeff.one(),
            }
        )
        return cls(G, 2)

    @classmethod
    def concrete(cls, s, t):
        """G = s*x^2 + t*y^2 + 1 over the field of s and t.

        s = t = 0 is refused: G = 1 is not a conic, and a trace along it
        would pass vacuously."""
        if s.spec is not t.spec:
            raise ValueError("s and t must live in one field")
        if not (s or t):
            raise ValueError("s = t = 0 gives G = 1, which is not a conic: s or t must be nonzero")
        one = s.spec.one
        return cls(BiPoly({(2, 0): s, (0, 2): t, (0, 0): one}), s.spec.p)


class TopForm(NamedTuple):
    """numerator / G^pole_power * dx^dy for the session's fixed quadric."""

    numerator: BiPoly
    pole_power: int
    quadric: Quadric

    def is_zero(self):
        return self.numerator.is_zero()

    def __str__(self):
        num = str(self.numerator)
        if self.pole_power == 0:
            return f"({num}) dx^dy"
        pole = "G" if self.pole_power == 1 else f"G^{self.pole_power}"
        return f"({num})/{pole} dx^dy"


class TraceOperator:
    """The p^e-iterated trace along the quadric, with a simple pole.

    It forms H = G^(p-1) once, and keeps the last rung of its one-shot
    chain with the rung's twist, (k, F_k, H^[p^k]) from (0, 1, H)."""

    def __init__(self, quadric: Quadric):
        self.quadric = quadric
        self.p = quadric.p
        self.step = quadric.G ** (quadric.p - 1)
        c0 = quadric.G.constant_term()
        one = c0.spec.one if isinstance(c0, FieldElement) else SymbolicCoeff.one()
        self._first = (0, BiPoly.monomial(0, 0, one), self.step)
        self._chain = self._first

    def _rung(self, k: int) -> BiPoly:
        """F_k = (G^(p^k - 1))^p, the trace's one-shot factor at e = k + 1.

        The term-wise p-th power is a ring endomorphism in characteristic p, so
        with H = G^(p-1) and H^[p^i] its i-fold term-wise p-th power,
        F_k = H^[p] H^[p^2] ... H^[p^k].  The rung grows from the kept one by
        F_(j+1) = F_j H^[p^(j+1)], the twist taking one _frobenius of its |H|
        terms per step, or from F_0 = 1 and H^[1] = H for a k below the kept
        one, so a run of e = 1..e_max forms each rung once and never raises a
        rung to the p-th power."""
        j, rung, twist = self._chain if self._chain[0] <= k else self._first
        for _ in range(k - j):
            twist = _frobenius(twist, self.p)
            rung = rung * twist
        self._chain = (k, rung, twist)
        return rung

    def trace_with_pole(self, f: BiPoly, e: int) -> TopForm:
        """Image of (f/G) dx^dy under the e-iterated trace, C^e(G^(p^e - 1) f)/G.

        The image is iterated by p^-1-linearity, h <- C(H h) e times from
        h = f, with the operator's H = G^(p-1).  The one-shot side must agree
        with it, or ConsistencyError is raised: it extracts C^e mod p^e at
        once from G^(p^e - 1) f = (G^(p^(e-1) - 1))^p * (H f), forming only
        the products whose exponents survive (_extract_product).  The p-th
        power is rung e - 1 (_rung), F_(e-1) = F_(e-2) H^[p^(e-1)] with
        H^[p^i] the i-fold term-wise p-th power of H: a run of e = 1..e_max
        forms one new rung per e.  e < 1 raises ValueError; for f = 0 the
        image is 0."""
        if e < 1:
            raise ValueError("iteration count e must be >= 1")
        if f.is_zero():
            return TopForm(f, 1, self.quadric)
        p, step = self.p, self.step
        image = f
        for _ in range(e):
            image = cartier_once(step * image, p)
        if image != _extract_product(self._rung(e - 1), step * f, p, e):
            raise ConsistencyError("e-fold Cartier composition disagrees with one-shot extraction")
        return TopForm(image, 1, self.quadric)

    def canonical_input(self, e: int) -> BiPoly:
        """The numerator x^(p^e-1) y^(p^e-1) whose trace detects nonvanishing."""
        pe = self.p**e
        return BiPoly.monomial(pe - 1, pe - 1, self.quadric.G.constant_term())

    def verify_nonvanishing(self, e: int):
        """Trace the canonical form and confirm the image is nonzero.

        Also asserts the image numerator has total degree <= 1: the target
        space on this chart is spanned by 1/G, x/G, y/G, so a higher-degree
        image would mean the operator left the target, which is a bug."""
        form = self.trace_with_pole(self.canonical_input(e), e)
        if form.numerator.total_degree() > 1:
            raise ConsistencyError(
                f"trace image degree {form.numerator.total_degree()} exceeds the target bound 1"
            )
        return not form.is_zero(), form
