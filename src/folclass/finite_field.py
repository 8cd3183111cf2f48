"""Exact arithmetic in small finite fields GF(p^k).

Elements are coefficient vectors over GF(p) reduced modulo a fixed monic
irreducible polynomial.  Fields are small enough (desk scale) that every
element can be enumerated and every check run exhaustively.

There is one FieldSpec object per field: FieldSpec(p, k, modulus),
parse_field, GF and extension_field all return the object interned under the
key (p, k, modulus), the modulus being the canonical one when none is given.
A field is validated and fully built when it is first made: its flat
add/mul/neg/inv/frob/root tables and its q FieldElements, one per index.
Every constructor and every operation returns those shared elements, so all
arithmetic is a table lookup, and fields and elements compare by identity.
Fields of order above _TABLE_LIMIT (256) are refused before anything is
built.

Element literals (in the generator u, integer coefficients), polynomial
literals (in t, element coefficients; see the polynomial module) and modulus
literals (in x, inside GF(q;mod=...)) share one grammar, term ('+' term)*,
with one scanner and one printer.  A term is a coefficient, a power of the
variable or both: `2*u^2`, `(u+1)*t`, `2x3`.  A modulus is written as
FieldSpec.literal prints it, without '*' and with the '^' optional (x3 or
x^3), and an exponent above k is refused where it stands.  A number with
more than _MAX_DIGITS significant digits is refused where it starts.  Spaces
are ignored, and a ParseError's position indexes the literal as typed.
"""

from __future__ import annotations

from .errors import EmbeddingError, FieldMismatchError, ParseError

SUPPORTED_CHARACTERISTICS = (2, 3, 5)

# Largest supported field order: every field is tabulated, at q^2 add and mul
# entries each.
_TABLE_LIMIT = 256

# The most significant digits a number in a literal may have: int()'s default
# limit on a string, fixed here so that every Python version refuses alike.
_MAX_DIGITS = 4300


def _poly_mod_mul(f, g, modulus, p):
    """Multiply two coefficient tuples and reduce mod (modulus, p)."""
    k = len(modulus) - 1
    prod = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                prod[i + j] = (prod[i + j] + fi * gj) % p
    # modulus is monic: x^k = -(lower terms)
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def _poly_divmod_gfp(num, den, p):
    """Plain polynomial division over GF(p) on int-list coefficients."""
    num = list(num)
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    inv_lead = pow(den[dd], p - 2, p) if den[dd] != 1 else 1
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q = (c * inv_lead) % p
            quot[i - dd] = q
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - q * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree <= k//2.

    A reducible degree-k polynomial always has a monic factor of degree at
    most k//2, so dividing by each of those is an exhaustive test at this
    scale.
    """
    k = len(modulus) - 1
    if k < 1 or modulus[k] != 1:
        return False
    if k == 1:
        return True
    if modulus[0] == 0:  # divisible by x
        return False
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            den = [0] * (d + 1)
            n = idx
            for j in range(d):
                den[j] = n % p
                n //= p
            den[d] = 1
            _, rem = _poly_divmod_gfp(modulus, den, p)
            if len(rem) == 1 and rem[0] == 0:
                return False
    return True


_CANONICAL_MODULI: dict = {}


def canonical_modulus(p, k):
    """The canonical modulus: the least monic irreducible of degree k.

    "Least" orders coefficient vectors by their base-p integer encoding with
    the constant coefficient least significant, so tables are reproducible
    across runs and machines.  GF(4) gets u^2+u+1, GF(8) gets x^3+x+1.
    """
    key = (p, k)
    if key not in _CANONICAL_MODULI:
        if k == 1:
            _CANONICAL_MODULI[key] = (0, 1)  # GF(p) = GF(p)[x]/(x)
        else:
            for idx in range(p**k):
                coeffs = []
                n = idx
                for _ in range(k):
                    coeffs.append(n % p)
                    n //= p
                cand = tuple(coeffs) + (1,)
                if _is_irreducible(cand, p):
                    _CANONICAL_MODULI[key] = cand
                    break
            else:
                raise ValueError(f"no irreducible of degree {k} over GF({p})")
    return _CANONICAL_MODULI[key]


# Every FieldSpec ever made, by its key (p, k, modulus).
_FIELDS: dict = {}


class FieldSpec:
    """A concrete finite field GF(p^k) with a fixed monic irreducible modulus.

    There is one object per key (p, k, modulus): FieldSpec(p, k) returns the
    field with the canonical modulus, and asking again for the same key
    returns the same object.  It is built when it is made and never changes
    afterwards: q is `order`, the flat tables `add`, `mul` (entry i*q + j
    for elements of index i and j), `neg`, `inv` (inv[0] = 0), `frob` (the
    index of x^p) and `root` (the index of the p-th root) are tuples of
    indices, and `zero`, `one`, `generator` and elements() are its
    interned FieldElements.  Specs and elements compare by identity, so
    elements of distinct fields never compare equal, and all arithmetic
    refuses to mix them.
    """

    def __new__(cls, p, k, modulus=None):
        if p not in SUPPORTED_CHARACTERISTICS:
            raise ValueError(f"unsupported characteristic {p}; expected one of {SUPPORTED_CHARACTERISTICS}")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p**k > _TABLE_LIMIT:
            raise ValueError(f"field order {p**k} is above the supported limit {_TABLE_LIMIT}")
        if modulus is None:
            modulus = canonical_modulus(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        key = (p, k, modulus)
        spec = _FIELDS.get(key)
        if spec is None:
            if len(modulus) != k + 1 or modulus[k] != 1:
                raise ValueError(f"modulus must be monic of degree {k} for GF({p**k})")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
            spec = super().__new__(cls)
            spec.p = p
            spec.k = k
            spec.modulus = modulus
            spec.order = p**k
            spec._embedding_roots = {}
            spec._build_tables()
            _FIELDS[key] = spec
        return spec

    def __repr__(self):
        return f"FieldSpec({self.literal()})"

    def literal(self):
        """Round-trippable field literal, e.g. GF(4) or GF(8;mod=x3+x+1)."""
        if self.modulus == canonical_modulus(self.p, self.k):
            return f"GF({self.order})"
        return f"GF({self.order};mod={format_modulus(self.modulus)})"

    # -- element plumbing ---------------------------------------------------

    def coeffs_of_index(self, idx):
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.p)
            idx //= self.p
        return tuple(coeffs)

    def index_of_coeffs(self, coeffs):
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def _build_tables(self):
        # the only place that constructs a FieldElement
        p, q = self.p, self.order
        by_idx = [self.coeffs_of_index(i) for i in range(q)]
        add = [0] * (q * q)
        mul = [0] * (q * q)
        for i in range(q):
            ci = by_idx[i]
            for j in range(i, q):
                cj = by_idx[j]
                s = self.index_of_coeffs(tuple((a + b) % p for a, b in zip(ci, cj)))
                m = self.index_of_coeffs(_poly_mod_mul(ci, cj, self.modulus, p))
                add[i * q + j] = add[j * q + i] = s
                mul[i * q + j] = mul[j * q + i] = m
        self.add = tuple(add)
        self.mul = tuple(mul)
        self.neg = tuple(add[i * q : (i + 1) * q].index(0) for i in range(q))
        self.inv = (0,) + tuple(mul[i * q : (i + 1) * q].index(1) for i in range(1, q))
        # Frobenius x -> x^p is a permutation of the field; root is its inverse
        frob = list(range(q))
        for _ in range(p - 1):
            frob = [mul[f * q + i] for i, f in enumerate(frob)]
        root = [0] * q
        for i, f in enumerate(frob):
            root[f] = i
        self.frob = tuple(frob)
        self.root = tuple(root)
        self._elements = tuple(FieldElement(self, c) for c in by_idx)
        self.zero, self.one = self._elements[:2]
        # the residue class of the modulus variable (printed as u), index p
        self.generator = self._elements[p] if self.k > 1 else self.zero

    def tables(self):
        """(q, add, mul, inv) flat tables for bulk index arithmetic."""
        return self.order, self.add, self.mul, self.inv

    # -- constructors -------------------------------------------------------

    def element(self, coeffs):
        if isinstance(coeffs, FieldElement):
            if coeffs.spec is not self:
                raise FieldMismatchError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            return self._elements[coeffs % self.order]
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients for this field")
        return self._elements[self.index_of_coeffs(coeffs)]

    def elements(self):
        """All p^k elements in index order (constant coefficient varies fastest);
        every element of this spec is one of its entries."""
        return self._elements


class FieldElement:
    """An element of a FieldSpec, stored as a coefficient vector over GF(p).

    The spec makes one instance per index when it is built (see
    FieldSpec.elements); get elements from the spec rather than constructing
    them.  Operations look the result index up in the spec's tables and
    return the shared instance, so elements compare by identity.
    """

    __slots__ = ("spec", "coeffs", "index")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = coeffs
        self.index = spec.index_of_coeffs(coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.spec is not self.spec:
            raise FieldMismatchError(
                f"operands from distinct fields {self.spec.literal()} and {other.spec.literal()}"
            )

    def __add__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.add[self.index * spec.order + other.index]]

    def __sub__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.add[self.index * spec.order + spec.neg[other.index]]]

    def __neg__(self):
        spec = self.spec
        return spec._elements[spec.neg[self.index]]

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.mul[self.index * spec.order + other.index]]

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        return spec._elements[spec.inv[self.index]]

    def __truediv__(self, other):
        self._check(other)
        if not other.index:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        return spec._elements[spec.mul[self.index * spec.order + spec.inv[other.index]]]

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self):
        """x -> x^p, an automorphism of the field."""
        spec = self.spec
        return spec._elements[spec.frob[self.index]]

    def pth_root(self):
        """The unique y with y^p = x, namely x^(p^(k-1))."""
        spec = self.spec
        return spec._elements[spec.root[self.index]]

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        return f"<{format_element(self)} in {self.spec.literal()}>"

    def __str__(self):
        return format_element(self)


def embed(x, target):
    """Embed x into the extension field `target`.

    The embedding sends the source generator to the first root (in element
    order) of the source modulus found in the target, computed once per
    (source, target) pair and cached, so embeddings are consistent across
    calls.  Raises EmbeddingError when the source modulus has no root in the
    target, i.e. when the target degree is not a multiple of the source's.
    """
    spec = x.spec
    if target is spec:
        return x
    if target.p != spec.p:
        raise EmbeddingError("embedding requires equal characteristic")
    root = spec._embedding_roots.get(target)
    if root is None:
        mod_elems = [target.element((c,)) for c in spec.modulus]
        for cand in target.elements():
            acc = target.zero
            for c in reversed(mod_elems):
                acc = acc * cand + c
            if not acc:
                root = cand
                break
        else:
            raise EmbeddingError(
                f"modulus of {spec.literal()} has no root in {target.literal()}"
            )
        spec._embedding_roots[target] = root
    acc = target.zero
    for c in reversed(x.coeffs):
        acc = acc * root + target.element((c,))
    return acc


def extension_field(spec, m):
    """The canonical degree-m extension GF(p^(k*m)) of spec."""
    if m == 1:
        return spec
    return FieldSpec(spec.p, spec.k * m)


# -- literals ----------------------------------------------------------------


def _digits(s, pos):
    """The end of the run of ASCII digits that starts at s[pos]."""
    while pos < len(s) and "0" <= s[pos] <= "9":
        pos += 1
    return pos


def _number(text, run, at):
    """The integer of the digit run `run`, which starts at text[at].  A run of
    more than _MAX_DIGITS significant digits, which int() refuses without a
    position, is refused where it starts."""
    run = run.lstrip("0")
    if len(run) > _MAX_DIGITS:
        raise ParseError(f"number longer than {_MAX_DIGITS} digits", text, at)
    return int(run or "0")


def _read_int(text, s, at, pos):
    """A coefficient reader for integer coefficients (1 when none is written)."""
    end = _digits(s, pos)
    return (_number(text, s[pos:end], at[pos]) if end > pos else 1), end


def _scan_terms(text, var, read_coeff, max_exp, start=0, end=None):
    """Yield (coefficient, exponent, position of var or None) for each term of
    text[start:end].

    The scan runs over s, the range with its spaces removed, and at[i] is the
    position in text of s[i] (at[len(s)] is end), so every ParseError names
    text and a position in it.  read_coeff(text, s, at, pos) returns the
    coefficient that starts at s[pos] and the position after it, or the
    implicit coefficient and pos when none is written there.  An exponent
    above max_exp (None for no bound) is refused at its digits.  The modulus
    variable x takes no '*' and may leave out the '^' (x3).
    """
    if end is None:
        end = len(text)
    at = [i for i in range(start, end) if text[i] != " "]
    s = "".join(text[i] for i in at)
    at.append(end)
    n = len(s)
    pos = 0
    while True:
        term = pos
        coeff, pos = read_coeff(text, s, at, pos)
        if pos > term and var != "x" and s[pos : pos + 1] == "*":
            pos += 1
            if s[pos : pos + 1] != var:
                raise ParseError(f"expected {var} after '*'", text, at[pos])
        exp, where = 0, None
        if s[pos : pos + 1] == var:
            where = at[pos]
            exp = 1
            pos += 1
            caret = s[pos : pos + 1] == "^"
            if caret or var == "x":
                pos += caret
                digits = pos
                pos = _digits(s, pos)
                if pos > digits:
                    run = s[digits:pos].lstrip("0")
                    # a run with more significant digits than the bound is above it
                    if max_exp is not None and (len(run) > len(str(max_exp)) or int(run or "0") > max_exp):
                        raise ParseError(f"exponent above {max_exp}", text, at[digits])
                    exp = _number(text, run, at[digits])
                elif caret:
                    raise ParseError("expected exponent digits", text, at[digits])
        elif pos == term:
            raise ParseError(f"expected a coefficient or {var}", text, at[term])
        yield coeff, exp, where
        if pos == n:
            return
        if s[pos] != "+":
            raise ParseError(f"unexpected character {s[pos]!r}", text, at[pos])
        pos += 1


def _format_terms(coeffs, var):
    """The literal of the sum of coeffs[e] * var^e, highest power first.

    Zero coefficients are left out ("0" when all are zero), a coefficient
    that contains '+' is parenthesized, and a modulus (var x) is written
    without '*' and '^'."""
    times, caret = ("", "") if var == "x" else ("*", "^")
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        cs = str(c)
        if e:
            v = var if e == 1 else f"{var}{caret}{e}"
            if "+" in cs:
                cs = f"({cs})"
            cs = v if cs == "1" else f"{cs}{times}{v}"
        terms.append(cs)
    return "+".join(terms) or "0"


def format_element(x):
    """Element literal in the generator u, e.g. 0, 1, u+1, 2*u^2+1."""
    return _format_terms(x.coeffs, "u")


def format_modulus(modulus):
    """Modulus literal in x with bare exponents, e.g. x3+x+1."""
    return _format_terms(modulus, "x")


def _read_element(text, spec, start=0, end=None):
    """The element literal text[start:end]; a prime field refuses u where it stands."""
    value = spec.zero
    for c, e, where in _scan_terms(text, "u", _read_int, None, start, end):
        if where is not None and spec.k == 1:
            raise ParseError(f"generator u is not defined in the prime field {spec.literal()}", text, where)
        value = value + spec.element((c % spec.p,)) * spec.generator**e
    return value


def parse_element(text, spec):
    """Parse an element literal like `u+1` or `2*u^2+2` into spec."""
    return _read_element(text, spec)


def _skip_spaces(text, pos):
    while pos < len(text) and text[pos] == " ":
        pos += 1
    return pos


def parse_field(text):
    """Parse a field literal (GF(4), GF(9), GF(8;mod=x3+x+1)) into its FieldSpec.

    A literal that names the canonical modulus gives the same object as one
    that names none."""
    lead = len(text) - len(text.lstrip())
    s = text.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise ParseError("field literal must look like GF(q) or GF(q;mod=...)", text, lead)
    close = lead + len(s) - 1
    semi = text.find(";", lead, close)
    order_end = close if semi < 0 else semi
    option = _skip_spaces(text, semi + 1)
    if semi >= 0 and not text.startswith("mod=", option):
        raise ParseError("unknown field option; expected mod=...", text, option)
    order_at = _skip_spaces(text, lead + 3)
    order = text[lead + 3 : order_end].strip(" ")
    if not (order.isascii() and order.isdigit()):
        raise ParseError("field order must be an integer", text, order_at)
    q = _number(text, order, order_at)
    if q < 2:
        raise ParseError(f"field order {q} is below 2", text, order_at)
    for p in SUPPORTED_CHARACTERISTICS:
        k = 0
        n = q
        while n % p == 0:
            n //= p
            k += 1
        if n == 1 and k >= 1:
            if semi < 0:
                return FieldSpec(p, k)
            modulus = [0] * (k + 1)
            for c, e, _ in _scan_terms(text, "x", _read_int, k, option + 4, close):
                modulus[e] = (modulus[e] + c) % p
            return FieldSpec(p, k, modulus)
    raise ParseError(f"order {q} is not a power of a supported prime", text, order_at)


def GF(q, mod=None):
    """Convenience constructor: GF(4), GF(8), GF(9), ..."""
    if mod is not None:
        return parse_field(f"GF({q};mod={mod})")
    return parse_field(f"GF({q})")
