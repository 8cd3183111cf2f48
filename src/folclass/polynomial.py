"""Univariate polynomial algebra over a finite field, plus sparse bivariate
polynomials whose coefficients may live in any exact ring (field elements or
the symbolic coefficient ring used by the Cartier operator).

Polynomials are immutable values in canonical form (no trailing zero
coefficients); the zero polynomial has an empty coefficient tuple and degree
NEG_INF, a sentinel that compares below every integer so degree-bound checks
treat zero uniformly.  A univariate Poly stores its coefficients as element
indices of its FieldSpec and does all of its arithmetic by lookups in the
spec's add/mul row tables (add[x][y]) and its neg/inv tables; this is the
only univariate arithmetic path, shared by the closed delta^2 formula, the
rewrite oracle and the conditions C1-C3.  Its one convolution loop is
_addmul(add, mul, out, f, g), which adds the product of f and g into the
index list out in place, reading the row tables that the caller passes, one
row mul[f_i] per nonzero coefficient of f, and its one reduction loop is
_reduce_into.  Both live in finite_field, which builds every field's tables
by them over GF(p), and are imported here: Poly's * passes its own spec's
tables to _addmul and runs it into a fresh list, and the delta^2 formula,
the rewrite oracle and the C3 minors load the tables once per expansion and
run it into one list per slot, so they build no Poly per product.  Its one Euclid loop is _euclid, on index
lists reduced in place by _reduce_into: poly_gcd makes its result monic and
wraps it, and the derivation's C1 reads only its length.

Polynomial literals (parse_poly, format_poly) use the term grammar, scanner
and printer of finite_field's element and modulus literals, with element
coefficients and exponents of t up to MAX_EXPONENT.
"""

from __future__ import annotations

from .errors import FieldMismatchError, ParseError
from .finite_field import _addmul, _format_terms, _read_element, _reduce_into, _scan_terms

NEG_INF = float("-inf")

# parse_poly's largest exponent: a literal allocates one coefficient per degree
MAX_EXPONENT = 1024


class Poly:
    """A univariate polynomial over a FieldSpec, in the variable t.

    The coefficients are a trimmed tuple of element indices, constant term
    first.  Sums, negations, derivatives and remainders trim their result;
    a product or a scale by a unit keeps its leading coefficient nonzero, so
    it needs no trim.  Every operation is a lookup in the spec's row
    tables, so no FieldElement arithmetic runs here; coeff(), leading and
    coeffs hand back the spec's interned FieldElements.  Operands from
    another field raise FieldMismatchError, the zero polynomial included.

    A Poly never changes after it is built, so its derivative never does
    either: formal_derivative() computes it on the first call, keeps it in
    the `_deriv` slot and returns that same object afterwards.  The formula,
    the oracle and C3 share the Polys of one triple, so each distinct
    polynomial is differentiated once.  Equality and hashing read only spec
    and the coefficients, never the cache.
    """

    __slots__ = ("spec", "_idx", "_deriv")

    def __init__(self, spec, coeffs=()):
        idx = []
        for c in coeffs:
            if isinstance(c, int):
                idx.append(c % spec.order)
            elif c.spec is spec:
                idx.append(c.index)
            else:
                raise FieldMismatchError("polynomial coefficients must share one field")
        while idx and not idx[-1]:
            idx.pop()
        self.spec = spec
        self._idx = tuple(idx)
        self._deriv = None

    @classmethod
    def _make(cls, spec, idx):
        # hot-path constructor: indices already in range(q), only trims
        n = len(idx)
        while n and not idx[n - 1]:
            n -= 1
        return _wrap(spec, tuple(idx[:n]))

    @classmethod
    def zero(cls, spec):
        return cls._make(spec, ())

    @classmethod
    def one(cls, spec):
        return cls._make(spec, (1,))

    @classmethod
    def t(cls, spec):
        return cls._make(spec, (0, 1))

    @classmethod
    def constant(cls, value):
        return cls(value.spec, (value,))

    @property
    def coeffs(self):
        """The coefficients as the spec's FieldElements, constant term first."""
        elements = self.spec.elements()
        return tuple(elements[i] for i in self._idx)

    @property
    def degree(self):
        return len(self._idx) - 1 if self._idx else NEG_INF

    def coeff(self, e):
        """Coefficient of t^e (zero beyond the degree)."""
        return self.spec.elements()[self._idx[e] if e < len(self._idx) else 0]

    @property
    def leading(self):
        if not self._idx:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.spec.elements()[self._idx[-1]]

    def __bool__(self):
        return bool(self._idx)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.spec is other.spec and self._idx == other._idx

    def __hash__(self):
        return hash((self.spec, self._idx))

    def _spec_with(self, other):
        """The spec, once other (a Poly or a FieldElement) is known to share it."""
        spec = self.spec
        if other.spec is not spec:
            raise FieldMismatchError(
                f"operands from distinct fields {spec.literal()} and {other.spec.literal()}"
            )
        return spec

    def __add__(self, other):
        spec = self.spec
        if other.spec is not spec:
            self._spec_with(other)
        f, g = self._idx, other._idx
        if not g:
            return self
        if not f:
            return other
        add = spec.add
        if len(f) < len(g):
            f, g = g, f
        out = list(f)
        for i, gi in enumerate(g):
            out[i] = add[out[i]][gi]
        return Poly._make(spec, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        neg = self.spec.neg
        return Poly._make(self.spec, [neg[i] for i in self._idx])

    def __mul__(self, other):
        """The product, formed by _addmul in a fresh zero list."""
        spec = self.spec
        if other.spec is not spec:
            self._spec_with(other)
        f, g = self._idx, other._idx
        if not f or not g:
            return _wrap(spec, ())
        out = [0] * (len(f) + len(g) - 1)
        _addmul(spec.add, spec.mul, out, f, g)
        # no trim: a field has no zero divisors, so the product of the two
        # nonzero leading coefficients leaves the top coefficient nonzero
        return _wrap(spec, tuple(out))

    def _scaled(self, lam):
        """self times the element of index lam.  A unit keeps the leading
        coefficient nonzero, so the product needs no trim; 1 gives self."""
        if lam == 1:
            return self
        spec = self.spec
        if not lam:
            return _wrap(spec, ())
        row = spec.mul[lam]
        return _wrap(spec, tuple([row[i] for i in self._idx]))

    def scale(self, c):
        """Multiply by the field constant c."""
        self._spec_with(c)
        return self._scaled(c.index)

    def _reduce(self, other, quot):
        """The remainder of self by other, as a Poly; a list quot receives
        the quotient's coefficients (see _reduce_into)."""
        spec = self._spec_with(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self._idx)
        return _wrap(spec, tuple(rem[: _reduce_into(spec, rem, other._idx, quot)]))

    def __divmod__(self, other):
        quot = []
        rem = self._reduce(other, quot)
        return Poly._make(self.spec, quot), rem

    def __mod__(self, other):
        return self._reduce(other, None)

    def eval(self, x):
        spec = self._spec_with(x)
        add, by_x = spec.add, spec.mul[x.index]
        acc = 0
        for c in reversed(self._idx):
            acc = add[by_x[acc]][c]
        return spec.elements()[acc]

    def formal_derivative(self):
        """d/dt with the exponent reduced mod p (so even powers die in char 2).

        The integer e mod p is the element of index e mod p.  Computed once
        per Poly and kept (see the class docstring)."""
        deriv = self._deriv
        if deriv is None:
            spec = self.spec
            mul, p = spec.mul, spec.p
            f = self._idx
            deriv = Poly._make(spec, [mul[f[e]][e % p] for e in range(1, len(f))])
            self._deriv = deriv
        return deriv

    def monic(self):
        if not self:
            return self
        return self._scaled(self.spec.inv[self._idx[-1]])

    def __repr__(self):
        return f"Poly({format_poly(self)!r} over {self.spec.literal()})"

    def __str__(self):
        return format_poly(self)


def _wrap(spec, idx):
    """A Poly around idx, a tuple of indices that is already trimmed."""
    f = Poly.__new__(Poly)
    f.spec = spec
    f._idx = idx
    f._deriv = None
    return f


def _euclid(spec, f, g):
    """A gcd of the trimmed index lists f and g, not made monic, by Euclid's
    algorithm; f and g are reduced in place and one of them is returned.
    Each remainder is trimmed by deleting its tail, so the result is
    trimmed, and it is empty only when f and g both are."""
    while g:
        del f[_reduce_into(spec, f, g, None) :]
        f, g = g, f
    return f


def poly_gcd(f, g):
    """Monic gcd by Euclid's algorithm; gcd(f, 0) = monic(f)."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    spec = f._spec_with(g)
    # only the monic gcd is wrapped as a Poly
    f = _euclid(spec, list(f._idx), list(g._idx))
    row = spec.mul[spec.inv[f[-1]]]
    return _wrap(spec, tuple([row[i] for i in f]))


# -- literals ----------------------------------------------------------------


def format_poly(f):
    """Literal form with descending powers, e.g. t^2+u*t+1 or (u+1)*t."""
    return _format_terms(f.coeffs, "t")


def parse_poly(text, spec):
    """Parse a polynomial literal in t, like `t^2+u*t+1` or `(u+1)*t`.

    A coefficient is an element literal, parenthesized when it contains '+';
    a bare one runs over digits, u and '^'.  The grammar and the error
    positions are those of finite_field's literals, and an exponent above
    MAX_EXPONENT is refused."""

    def read_coeff(text, s, at, pos):
        if s[pos : pos + 1] == "(":
            depth, j = 1, pos + 1
            while j < len(s) and depth:
                depth += (s[j] == "(") - (s[j] == ")")
                j += 1
            if depth:
                raise ParseError("unbalanced parenthesis", text, at[pos])
            return _read_element(text, spec, at[pos] + 1, at[j - 1]), j
        j = pos
        if s[pos : pos + 1] != "^":
            while j < len(s) and s[j] in "0123456789u^":
                j += 1
        if j == pos:
            return spec.one, pos
        return _read_element(text, spec, at[pos], at[j]), j

    coeffs: dict = {}
    for c, e, _ in _scan_terms(text, "t", read_coeff, MAX_EXPONENT):
        coeffs[e] = coeffs.get(e, spec.zero) + c
    return Poly(spec, tuple(coeffs.get(e, spec.zero) for e in range(max(coeffs) + 1)))


# -- sparse bivariate polynomials ---------------------------------------------


class BiPoly:
    """Sparse polynomial in x, y with coefficients in an exact ring.

    Coefficients only need +, *, ==, bool (nonzero test); both FieldElement
    and the Cartier module's SymbolicCoeff qualify.  Zero coefficients are
    never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        # terms maps (i, j) to the coefficient of x^i y^j
        self.terms = {key: c for key, c in terms.items() if c}

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
