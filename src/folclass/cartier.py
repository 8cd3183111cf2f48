"""The iterated Cartier operator / Frobenius trace on plane top-forms.

On monomials the Cartier operator keeps x^i y^j with i = j = p-1 (mod p),
takes the p-th root of the coefficient and maps the exponents to
((i-p+1)/p, (j-p+1)/p); everything else dies.  Its e-fold iterate equals a
one-shot extraction mod p^e, which doubles as an internal cross-check.  The
trace along the fixed quadric G with a simple pole is realized by
p^e-linearity:  f/G = G^(p^e-1) f / G^(p^e), so  f |-> C^e(G^(p^e-1) f)/G.

The factor G^(p^e-1) is built one step per e from
G^(p^e-1) = G^(p-1) * (G^(p^(e-1)-1))^p, with the p-th power taken term by
term: c x^i y^j |-> c^p x^(pi) y^(pj).  That is exact because both
coefficient rings have characteristic p, where (a + b)^p = a^p + b^p (the
binomial coefficients C(p, k), 0 < k < p, vanish), so e steps replace the
p^e - 2 products of repeated multiplication and feed the same polynomial
to the Cartier operator.

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

from dataclasses import dataclass
from fractions import Fraction

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


def _coeff_pth_root(c, p):
    _check_characteristic(c, p)
    return c.pth_root()


def _coeff_frobenius(c, p):
    _check_characteristic(c, p)
    return c.frobenius()


def _frobenius(h: BiPoly, p: int) -> BiPoly:
    """h^p, taken term by term (exact in characteristic p)."""
    return BiPoly({(p * i, p * j): _coeff_frobenius(c, p) for (i, j), c in h.terms.items()})


def cartier_once(h: BiPoly, p: int) -> BiPoly:
    """One application of the Cartier operator to h dx^dy."""
    out = {}
    for (i, j), c in h.terms.items():
        if i % p == p - 1 and j % p == p - 1:
            out[((i - p + 1) // p, (j - p + 1) // p)] = _coeff_pth_root(c, p)
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


def cartier_iter(h: BiPoly, p: int, e: int) -> BiPoly:
    """The e-fold composite of cartier_once, cross-checked against the
    one-shot extraction; a mismatch raises ConsistencyError."""
    if e < 1:
        raise ValueError("iteration count e must be >= 1")
    out = h
    for _ in range(e):
        out = cartier_once(out, p)
    if out != cartier_extract(h, p, e):
        raise ConsistencyError("e-fold Cartier composition disagrees with one-shot extraction")
    return out


@dataclass(frozen=True)
class Quadric:
    """The dehomogenized conic G(x, y, 1); the constant term must be a unit."""

    G: BiPoly
    p: int

    def __post_init__(self):
        if not self.G.constant_term():
            raise ValueError("quadric must satisfy G(0, 0) != 0")

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

    def trace_factor(self, e: int) -> BiPoly:
        """G^(p^e - 1), as G^(p-1) * (G^(p^(k-1) - 1))^p for k = 2..e."""
        if e < 1:
            raise ValueError("iteration count e must be >= 1")
        base = self.G ** (self.p - 1)
        out = base
        for _ in range(e - 1):
            out = base * _frobenius(out, self.p)
        return out


@dataclass(frozen=True)
class TopForm:
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
    """The p^e-iterated trace along the quadric, with a simple pole."""

    def __init__(self, quadric: Quadric):
        self.quadric = quadric
        self.p = quadric.p

    def trace_with_pole(self, f: BiPoly, e: int) -> TopForm:
        """Image of (f/G) dx^dy under the e-iterated trace.

        Computed as C^e(G^(p^e - 1) * f)/G; for f = 0 the image is 0."""
        if f.is_zero():
            return TopForm(f, 1, self.quadric)
        image = cartier_iter(self.quadric.trace_factor(e) * f, self.p, e)
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
