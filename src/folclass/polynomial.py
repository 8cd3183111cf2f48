"""Univariate polynomial algebra over a finite field, plus sparse bivariate
polynomials whose coefficients may live in any exact ring (field elements or
the symbolic coefficient ring used by the Cartier operator).

Polynomials are immutable values in canonical form (no trailing zero
coefficients); the zero polynomial has an empty coefficient tuple and degree
NEG_INF, a sentinel that compares below every integer so degree-bound checks
treat zero uniformly.
"""

from __future__ import annotations

from .errors import FieldMismatchError, ParseError
from .finite_field import parse_element

NEG_INF = float("-inf")

# parse_poly's largest exponent: a literal allocates one coefficient per degree
MAX_EXPONENT = 1024


class Poly:
    """A univariate polynomial over a FieldSpec, in the variable t."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs=()):
        cs = []
        for c in coeffs:
            cs.append(spec.element(c) if isinstance(c, int) else c)
        while cs and not cs[-1]:
            cs.pop()
        for c in cs:
            if c.spec != spec:
                raise FieldMismatchError("polynomial coefficients must share one field")
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, spec, coeffs):
        # hot-path constructor: coefficients already validated, only trims
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        f = cls.__new__(cls)
        f.spec = spec
        f.coeffs = tuple(coeffs[:n])
        return f

    @classmethod
    def zero(cls, spec):
        return cls(spec)

    @classmethod
    def one(cls, spec):
        return cls(spec, (spec.one,))

    @classmethod
    def t(cls, spec):
        return cls(spec, (spec.zero, spec.one))

    @classmethod
    def constant(cls, value):
        return cls(value.spec, (value,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, e):
        """Coefficient of t^e (zero beyond the degree)."""
        return self.coeffs[e] if e < len(self.coeffs) else self.spec.zero

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly._make(self.spec, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly._make(self.spec, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Poly._make(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.spec)
        out = [self.spec.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly._make(self.spec, out)

    def scale(self, c):
        """Multiply by the field constant c."""
        return Poly._make(self.spec, [c * a for a in self.coeffs])

    def __divmod__(self, other):
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = other.leading.inverse()
        quot = [self.spec.zero] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q = c * lead_inv
                quot[i - d] = q
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] = rem[i - d + j] - q * b
        return Poly._make(self.spec, quot), Poly._make(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        result = Poly.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, x):
        acc = self.spec.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def formal_derivative(self):
        """d/dt with the exponent reduced mod p (so even powers die in char 2)."""
        p = self.spec.p
        zero = self.spec.zero
        out = []
        for e in range(1, len(self.coeffs)):
            m = e % p
            if m == 0:
                out.append(zero)
            elif m == 1:
                out.append(self.coeffs[e])
            else:
                out.append(self.coeffs[e] * self.spec.element(m))
        return Poly._make(self.spec, out)

    def monic(self):
        if not self:
            return self
        return self.scale(self.leading.inverse())

    def compose_with_affine(self, c):
        """f(t + c) by Horner in (t + c)."""
        shift = Poly(self.spec, (c, self.spec.one))
        acc = Poly.zero(self.spec)
        for coeff in reversed(self.coeffs):
            acc = acc * shift + Poly.constant(coeff)
        return acc

    def map_coeffs(self, fn, target_spec):
        return Poly(target_spec, tuple(fn(c) for c in self.coeffs))

    def __repr__(self):
        return f"Poly({format_poly(self)!r} over {self.spec.literal()})"

    def __str__(self):
        return format_poly(self)


def poly_gcd(f, g):
    """Monic gcd by Euclid's algorithm; gcd(f, 0) = monic(f)."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        f, g = g, f % g
    return f.monic()


# -- literals ----------------------------------------------------------------


def format_poly(f, var="t"):
    """Literal form with descending powers, e.g. t^2+u*t+1 or (u+1)*t."""
    if not f:
        return "0"
    terms = []
    for e in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[e]
        if not c:
            continue
        cs = str(c)
        if e == 0:
            terms.append(cs)
            continue
        v = var if e == 1 else f"{var}^{e}"
        if cs == "1":
            terms.append(v)
        elif "+" in cs:
            terms.append(f"({cs})*{v}")
        else:
            terms.append(f"{cs}*{v}")
    return "+".join(terms)


def parse_poly(text, spec, var="t"):
    """Parse the polynomial literal grammar: term ('+' term)*, where a term is
    an optional coefficient (element literal, parenthesized when it contains
    '+') times an optional power of the variable.  Whitespace is ignored."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal", text, 0)
    n = len(s)
    pos = 0
    coeffs: dict = {}
    while True:
        start = pos
        coeff = None
        # optional parenthesized element literal
        if pos < n and s[pos] == "(":
            depth, j = 1, pos + 1
            while j < n and depth:
                if s[j] == "(":
                    depth += 1
                elif s[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ParseError("unbalanced parenthesis", text, pos)
            coeff = parse_element(s[pos + 1 : j - 1], spec)
            pos = j
        else:
            j = pos
            while j < n and (s[j].isdigit() or s[j] == "u" or (s[j] == "^" and j > pos)):
                if s[j] == "^":
                    j += 1
                    while j < n and s[j].isdigit():
                        j += 1
                    continue
                j += 1
            if j > pos:
                coeff = parse_element(s[pos:j], spec)
                pos = j
        if coeff is not None and pos < n and s[pos] == "*":
            pos += 1
            if pos >= n or s[pos] != var:
                raise ParseError(f"expected variable {var!r} after '*'", text, pos)
        exp = 0
        if pos < n and s[pos] == var:
            pos += 1
            exp = 1
            if pos < n and s[pos] == "^":
                pos += 1
                dstart = pos
                while pos < n and s[pos].isdigit():
                    pos += 1
                if pos == dstart:
                    raise ParseError("expected exponent digits", text, dstart)
                exp = int(s[dstart:pos])
                if exp > MAX_EXPONENT:
                    raise ParseError(f"exponent above {MAX_EXPONENT}", text, dstart)
        elif coeff is None:
            raise ParseError("expected a coefficient or variable", text, start)
        if coeff is None:
            coeff = spec.one
        coeffs[exp] = coeffs.get(exp, spec.zero) + coeff
        if pos == n:
            break
        if s[pos] != "+":
            raise ParseError(f"unexpected character {s[pos]!r}", text, pos)
        pos += 1
        if pos == n:
            raise ParseError("trailing '+'", text, pos)
    deg = max(coeffs)
    return Poly(spec, tuple(coeffs.get(e, spec.zero) for e in range(deg + 1)))


# -- sparse bivariate polynomials ---------------------------------------------


class BiPoly:
    """Sparse polynomial in x, y with coefficients in an exact ring.

    Coefficients only need +, *, ==, bool (nonzero test); both FieldElement
    and the Cartier module's SymbolicCoeff qualify.  Zero coefficients are
    never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        d = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if not c:
                continue
            key = (int(i), int(j))
            if key in d:
                c = d[key] + c
                if c:
                    d[key] = c
                else:
                    del d[key]
            else:
                d[key] = c
        self.terms = d

    @classmethod
    def monomial(cls, i, j, coeff):
        return cls({(i, j): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                s = out[key] + c
                if s:
                    out[key] = s
                else:
                    del out[key]
            else:
                out[key] = c
        b = BiPoly.__new__(BiPoly)
        b.terms = out
        return b

    def __mul__(self, other):
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                c = c1 * c2
                if not c:
                    continue
                if key in out:
                    s = out[key] + c
                    if s:
                        out[key] = s
                    else:
                        del out[key]
                else:
                    out[key] = c
        b = BiPoly.__new__(BiPoly)
        b.terms = out
        return b

    def __pow__(self, n):
        if n < 1:
            raise ValueError("BiPoly powers require n >= 1")
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def scale(self, c):
        return BiPoly({key: c * v for key, v in self.terms.items()})

    def constant_term(self):
        return self.terms.get((0, 0))

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(i + j for i, j in self.terms)

    def sorted_terms(self):
        # graded order, x-powers before y-powers within a degree
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.sorted_terms():
            factors = []
            cs = str(c)
            if cs != "1" or (i == 0 and j == 0):
                factors.append(f"({cs})" if "+" in cs else cs)
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self})"
