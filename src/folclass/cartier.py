"""The iterated Cartier operator / Frobenius trace on plane top-forms.

On monomials the Cartier operator keeps x^i y^j with i = j = p-1 (mod p),
takes the p-th root of the coefficient and maps the exponents to
((i-p+1)/p, (j-p+1)/p); everything else dies.  Its e-fold iterate equals a
one-shot extraction mod p^e.  The trace along the fixed quadric G with a
simple pole is  f/G = G^(p^e-1) f / G^(p^e)  |->  C^e(G^(p^e-1) f)/G.

The operator is p^-1-linear, C(g^p h) = g C(h), and
G^(p^e-1) = G^(p-1) * (G^(p^(e-1)-1))^p, so the image is iterated as
h <- C(G^(p-1) h), e times from h = f: each step multiplies by G^(p-1)
alone and keeps h to a few terms.  The canonical input
G(0, 0) x^(p^e-1) y^(p^e-1) needs no e steps per e: with
x^(p^e-1) y^(p^e-1) = x^(p-1) y^(p-1) (x^(p^(e-1)-1) y^(p^(e-1)-1))^p the
same identity makes its image T^e(G(0, 0)), T(h) = C(G^(p-1) x^(p-1)
y^(p-1) h), so each TraceOperator keeps that orbit of T and a run of
e = 1..e_max takes e_max Cartier steps.  The one-shot cross-check
extracts C^e mod p^e at once from the same identity read as
G^(p^e-1) f = F_(e-1) * (G^(p-1) f), F_k = (G^(p^k-1))^p, and must agree
with the iterate.  It forms neither G^(p^e-1) f nor F_(e-1): for each term
of G^(p-1) f it reads only the coefficients of F_(e-1) whose exponents
complete the term's own to p^e - 1 mod p^e, inside F_(e-1)'s degree bound,
so of the product it makes only the terms the extraction keeps
(_extract_product).  The p-th power is taken term by term,
c x^i y^j |-> c^p x^(pi) y^(pj).  That is exact because both coefficient
rings have characteristic p, where (a + b)^p = a^p + b^p (the binomial
coefficients C(p, k), 0 < k < p, vanish), and it makes the term-wise p-th
power a ring endomorphism.  So with H = G^(p-1) and H^[p^i] its i-fold
term-wise p-th power, F_k = F_(k-1) H^[p^k] from F_0 = 1, and a
coefficient of F_k is a sum over the |H| terms of the twist H^[p^k] of
coefficients of F_(k-1) (TraceOperator._reader), a recursion memoised for
one trace call and pruned by deg F_k <= deg H (p + ... + p^k).  Each
TraceOperator keeps its twists, each formed once, and its orbit, so a run
of e = 1..e_max takes one twist and one Cartier step per e and holds no
power of G beyond H.  The iterate and the orbit run no Frobenius and the
one-shot side no cartier_once, so the two sides share neither, and the
one-shot check at every e re-proves the orbit's identity.

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

from math import gcd
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
                g = gcd(a, SCALE)
                num, den = a // g, SCALE // g  # a/SCALE in lowest terms
                if a == SCALE:
                    factors.append(sym)
                elif den == 1:
                    factors.append(f"{sym}^{num}")
                else:
                    factors.append(f"{sym}^({num}/{den})")
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
    TraceOperator._reader calls it, on the twist H^[p^k] of H = G^(p-1);
    Quadric checks G's coefficients once against p."""
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


def _extract_product(read, bound, g: BiPoly, p: int, e: int) -> BiPoly:
    """cartier_extract(h * g, p, e) for an h known only by its coefficients.

    read(X, Y) is h's coefficient of x^X y^Y (None or 0 off its support),
    and bound is at least h's total degree.  A term x^i y^j of g survives
    only with the exponents of h that complete its own to p^e - 1 mod p^e
    in both variables, so only those, within the bound, are read and
    multiplied.  The products are summed (several may land on one exponent
    and cancel) and handed to cartier_extract, which takes the e p-th
    roots."""
    pe = p**e
    kept: dict = {}
    for (i2, j2), c2 in g.terms.items():
        for X in range((-1 - i2) % pe, bound + 1, pe):
            for Y in range((-1 - j2) % pe, bound - X + 1, pe):
                c1 = read(X, Y)
                if c1:
                    key = (X + i2, Y + j2)
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

    It forms H = G^(p-1) once, and keeps the twists H^[p^k] that its
    one-shot side has read, H^[1] = H first, each formed once.  Beside them
    it keeps the orbit of its canonical input's coefficient G(0, 0) under
    T(h) = C(H x^(p-1) y^(p-1) h), one Cartier step per point, so that the
    canonical image at e is read off the orbit (verify_nonvanishing)."""

    def __init__(self, quadric: Quadric):
        self.quadric = quadric
        self.p = quadric.p
        self.step = quadric.G ** (quadric.p - 1)
        c0 = quadric.G.constant_term()
        self._one = c0.spec.one if isinstance(c0, FieldElement) else SymbolicCoeff.one()
        self._twists = [self.step]
        # T^0 = G(0, 0), the canonical input's coefficient; T is p^-1-linear,
        # so the start matters when G(0, 0) != 1
        self._orbit = [BiPoly.monomial(0, 0, c0)]
        self._multiplier = None  # H x^(p-1) y^(p-1), formed on first use

    def _degree_bound(self, k: int) -> int:
        """deg F_k <= deg H (p + ... + p^k), F_k = (G^(p^k - 1))^p."""
        p = self.p
        return self.step.total_degree() * (p ** (k + 1) - p) // (p - 1)

    def _reader(self, k: int):
        """read(X, Y), the coefficient of x^X y^Y in F_k = (G^(p^k - 1))^p,
        None or 0 where F_k has no term.

        The term-wise p-th power is a ring endomorphism in characteristic p,
        so F_j = F_(j-1) H^[p^j] from F_0 = 1, and
        F_j[X, Y] = sum of c F_(j-1)[X - u, Y - v] over the terms c x^u y^v
        of the twist H^[p^j].  Only exponents within F_(j-1)'s degree
        bound (_degree_bound) are read, and each (j, X, Y) is summed once
        per reader: one reader serves one trace call.  Twists missing from
        the kept list are formed by one _frobenius each from the last
        one."""
        p, twists = self.p, self._twists
        while len(twists) <= k:
            twists.append(_frobenius(twists[-1], p))
        bounds = [self._degree_bound(j) for j in range(k)]
        memo: dict = {}

        def coefficient(j, X, Y):
            if j == 0:
                return self._one if X == Y == 0 else None
            key = (j, X, Y)
            if key in memo:
                return memo[key]
            total = None
            bound = bounds[j - 1]
            for (u, v), c in twists[j].terms.items():
                a, b = X - u, Y - v
                if a >= 0 and b >= 0 and a + b <= bound:
                    d = coefficient(j - 1, a, b)
                    if d:
                        d = d * c
                        total = d if total is None else total + d
            memo[key] = total
            return total

        return lambda X, Y: coefficient(k, X, Y)

    def _check_one_shot(self, image: BiPoly, f: BiPoly, e: int):
        """Raise ConsistencyError unless image = C^e(G^(p^e - 1) f), extracted
        mod p^e at once from G^(p^e - 1) f = F_(e-1) * (H f),
        F_k = (G^(p^k - 1))^p.  Only the coefficients of F_(e-1) whose
        products survive are read (_extract_product), from a reader of
        F_(e-1) (_reader), so neither the product nor F_(e-1) is formed."""
        read, bound = self._reader(e - 1), self._degree_bound(e - 1)
        if image != _extract_product(read, bound, self.step * f, self.p, e):
            raise ConsistencyError("e-fold Cartier composition disagrees with one-shot extraction")

    def trace_with_pole(self, f: BiPoly, e: int) -> TopForm:
        """Image of (f/G) dx^dy under the e-iterated trace, C^e(G^(p^e - 1) f)/G.

        The image is iterated by p^-1-linearity, h <- C(H h) e times from
        h = f, with the operator's H = G^(p-1).  The one-shot side must agree
        with it, or ConsistencyError is raised (_check_one_shot).  e < 1
        raises ValueError; for f = 0 the image is 0."""
        if e < 1:
            raise ValueError("iteration count e must be >= 1")
        if f.is_zero():
            return TopForm(f, 1, self.quadric)
        p, step = self.p, self.step
        image = f
        for _ in range(e):
            image = cartier_once(step * image, p)
        self._check_one_shot(image, f, e)
        return TopForm(image, 1, self.quadric)

    def canonical_input(self, e: int) -> BiPoly:
        """The numerator x^(p^e-1) y^(p^e-1) whose trace detects nonvanishing."""
        pe = self.p**e
        return BiPoly.monomial(pe - 1, pe - 1, self.quadric.G.constant_term())

    def _canonical_image(self, e: int) -> BiPoly:
        """T^e(G(0, 0)), T(h) = C(H x^(p-1) y^(p-1) h): the numerator of the
        canonical input's image at e, read off the kept orbit, which grows
        by one cartier_once per point it lacks.

        G^(p^e-1) x^(p^e-1) y^(p^e-1) is the product of the (H x^(p-1)
        y^(p-1))^(p^i), i < e, and C(g^p h) = g C(h), so C^e of the
        canonical input G(0, 0) x^(p^e-1) y^(p^e-1) is T^e(G(0, 0)) for any
        G."""
        orbit, p = self._orbit, self.p
        while len(orbit) <= e:
            if self._multiplier is None:
                self._multiplier = BiPoly(
                    {(i + p - 1, j + p - 1): c for (i, j), c in self.step.terms.items()}
                )
            orbit.append(cartier_once(self._multiplier * orbit[-1], p))
        return orbit[e]

    def verify_nonvanishing(self, e: int):
        """Trace the canonical form and confirm the image is nonzero.

        The image is read off the orbit of G(0, 0) under T (_canonical_image),
        so a run of e = 1..e_max takes e_max Cartier steps, and at every e it
        is checked against the one-shot extraction of the canonical input
        (_check_one_shot), which re-proves the orbit identity.  e < 1 raises
        ValueError.

        Also asserts the image numerator has total degree <= 1: the target
        space on this chart is spanned by 1/G, x/G, y/G, so a higher-degree
        image would mean the operator left the target, which is a bug."""
        if e < 1:
            raise ValueError("iteration count e must be >= 1")
        image = self._canonical_image(e)
        self._check_one_shot(image, self.canonical_input(e), e)
        if image.total_degree() > 1:
            raise ConsistencyError(
                f"trace image degree {image.total_degree()} exceeds the target bound 1"
            )
        return not image.is_zero(), TopForm(image, 1, self.quadric)
