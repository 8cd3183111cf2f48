"""Exact arithmetic in small finite fields GF(p^k).

Fields are small enough (desk scale) that every element can be enumerated
and every check run exhaustively.  GF(p) is tabulated from residues.  GF(p^k)
holds coefficient vectors over GF(p) modulo a fixed monic irreducible
modulus, indexed in base p (_coeffs_of, _index_of), and its tables are built
over GF(p)'s: the products with the basis powers u^m by the package's one
convolution loop _addmul and one reduction loop _reduce_into, which live
here, and every other entry by additivity; the irreducibility test is trial
division by _reduce_into, and the polynomial module imports both loops.

There is one FieldSpec object per field: FieldSpec(p, k, modulus),
parse_field, GF and extension_field all return the object interned under the
key (p, k, modulus), the modulus being the canonical one when none is given;
every monic degree-1 modulus names GF(p) itself.  A field is validated and
fully built when it is first made: its add and mul row tables (q rows of q
indices, read add[i][j]), its neg/inv/frob/root tables and its q
FieldElements, one per index.  Every constructor and every operation
returns those shared elements, so all arithmetic is a table lookup, and
fields and elements compare by identity.  Fields of order above
_TABLE_LIMIT (256) are refused before anything is built.

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

from functools import cache

from .errors import EmbeddingError, FieldMismatchError, ParseError

SUPPORTED_CHARACTERISTICS = (2, 3, 5)

# Largest supported field order: every field is tabulated, at q^2 add and mul
# entries each.
_TABLE_LIMIT = 256

# The most significant digits a number in a literal may have: int()'s default
# limit on a string, fixed here so that every Python version refuses alike.
_MAX_DIGITS = 4300


def _addmul(add, mul, out, f, g):
    """Add the product of the index tuples f and g into the index list out.

    add and mul are the row tables of the field whose indices f, g and out
    hold (add[x][y], mul[x][y]); a caller that adds many products loads them
    once.  out must hold at least len(f) + len(g) - 1 entries; the entries
    beyond the product are left as they are.  A zero coefficient of f is
    skipped; no other branch reads a coefficient's value.
    """
    i = 0
    for fi in f:
        if fi:
            row = mul[fi]
            k = i
            for gj in g:  # a zero gj adds row[0] = 0
                out[k] = add[out[k]][row[gj]]
                k += 1
        i += 1


def _reduce_into(spec, rem, g, quot):
    """Reduce the index list rem modulo the trimmed nonzero index tuple g in
    place, and return the trimmed length n of the remainder rem[:n].

    When quot is a list it receives the quotient's coefficients, constant
    term first; % and gcd pass None and no quotient is formed."""
    d = len(g) - 1
    n = len(rem)
    if n > d:
        add, mul, neg = spec.add, spec.mul, spec.neg
        by_lead_inv = mul[spec.inv[g[-1]]]
        # subtract c * (g / lead) at each step; the leading term cancels by
        # construction, so only the d lower coefficients are updated
        lower = [by_lead_inv[gj] for gj in g[:-1]]
        for i in range(n - 1, d - 1, -1):
            c = rem[i]
            if quot is not None:
                quot.append(by_lead_inv[c])
            if c:
                row = mul[neg[c]]
                base = i - d
                for j, gj in enumerate(lower):
                    rem[base + j] = add[rem[base + j]][row[gj]]
        if quot is not None:
            quot.reverse()
        n = d
    while n and not rem[n - 1]:
        n -= 1
    return n


def _coeffs_of(idx, p, k):
    """The k base-p digits of idx, constant term first."""
    return tuple(idx // p**e % p for e in range(k))


def _index_of(coeffs, p):
    """The index whose base-p digits are coeffs (see _coeffs_of)."""
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


def _is_irreducible(modulus, p):
    """Whether the monic modulus is irreducible over GF(p), by trial division
    with _reduce_into by every monic polynomial of degree <= k//2: a
    reducible one has such a factor.  GF(p)'s indices are the residues, so
    the modulus is its own index list."""
    k = len(modulus) - 1
    if k == 1:  # choosing GF(p)'s modulus must not build GF(p)
        return True
    prime = FieldSpec(p, 1)
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            if not _reduce_into(prime, list(modulus), _coeffs_of(idx, p, d) + (1,), None):
                return False
    return True


@cache
def canonical_modulus(p, k):
    """The canonical modulus: the least monic irreducible of degree k.

    "Least" orders coefficient vectors by their base-p integer encoding with
    the constant coefficient least significant, so tables are reproducible
    across runs and machines.  GF(p) gets x, GF(4) gets u^2+u+1, GF(8) gets
    x^3+x+1.  One exists for every k (Gauss's count is positive).
    """
    for idx in range(p**k):
        cand = _coeffs_of(idx, p, k) + (1,)
        if _is_irreducible(cand, p):
            return cand


# Every FieldSpec ever made, by its key (p, k, modulus).
_FIELDS: dict = {}


class FieldSpec:
    """A concrete finite field GF(p^k) with a fixed monic irreducible modulus.

    There is one object per key (p, k, modulus): FieldSpec(p, k) returns the
    field with the canonical modulus, and asking again for the same key
    returns the same object.  It is built when it is made and never changes
    afterwards: q is `order`; the row tables `add` and `mul` are tuples of
    q rows, each a tuple of q indices, and add[i][j], mul[i][j] index the
    sum and product of the elements of index i and j; `neg`, `inv`
    (inv[0] = 0), `frob` (the index of x^p) and `root` (the index of the
    p-th root) are tuples of indices; and `zero`, `one`, `generator` and
    elements() are its interned FieldElements.  Specs and elements compare
    by identity, so elements of distinct fields never compare equal, and all
    arithmetic refuses to mix them.
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
        if k == 1 and modulus[1:] == (1,):
            # GF(p)[x]/(x - a) is GF(p) for every a: one prime field per p
            modulus = (0, 1)
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

    def _build_tables(self):
        # the only place that constructs a FieldElement
        p, k, q = self.p, self.k, self.order
        by_idx = [_coeffs_of(i, p, k) for i in range(q)]
        if k == 1:
            # an element's index is its residue
            add = [[(i + j) % p for j in range(q)] for i in range(q)]
            mul = [[i * j % p for j in range(q)] for i in range(q)]
        else:
            # x + y and x * y are additive in y.  For j > 0, lead[j] = p^m
            # is the index of u^m, m being j's leading nonzero digit; j - p^m
            # then indexes y - u^m, so a row's entry j combines its entries
            # j - p^m and p^m.  Only the k basis columns are computed
            # directly: sums digit by digit, products by _addmul reduced by
            # _reduce_into.
            prime = FieldSpec(p, 1)
            padd, pmul = prime.add, prime.mul
            powers = [p**m for m in range(k)]
            lead = [0] + [pm for pm in powers for _ in range(pm * (p - 1))]
            plus = {
                pm: [_index_of([padd[a][b] for a, b in zip(z, by_idx[pm])], p) for z in by_idx]
                for pm in powers
            }
            add, mul = [], []
            for i in range(q):
                row = [i] * q
                for j in range(1, q):
                    m = lead[j]
                    row[j] = plus[m][row[j - m]]
                add.append(row)
            for x in by_idx:
                row = [0] * q
                for pm in powers:
                    prod = [0] * (2 * k - 1)
                    _addmul(padd, pmul, prod, x, by_idx[pm])
                    del prod[_reduce_into(prime, prod, self.modulus, None) :]
                    row[pm] = _index_of(prod, p)
                for j in range(1, q):
                    m = lead[j]
                    row[j] = add[row[j - m]][row[m]]
                mul.append(row)
        self.add = tuple(map(tuple, add))
        self.mul = tuple(map(tuple, mul))
        self.neg = tuple(row.index(0) for row in add)
        self.inv = (0,) + tuple(row.index(1) for row in mul[1:])
        # Frobenius x -> x^p is a permutation of the field; root is its inverse
        frob = list(range(q))
        for _ in range(p - 1):
            frob = [mul[f][i] for i, f in enumerate(frob)]
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
        """(q, add, mul, inv): the order and the row tables for bulk index
        arithmetic."""
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
        return self._elements[_index_of(coeffs, self.p)]

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
        self.index = _index_of(coeffs, spec.p)

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
        return spec._elements[spec.add[self.index][other.index]]

    def __sub__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.add[self.index][spec.neg[other.index]]]

    def __neg__(self):
        spec = self.spec
        return spec._elements[spec.neg[self.index]]

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.mul[self.index][other.index]]

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
        return spec._elements[spec.mul[self.index][spec.inv[other.index]]]

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
