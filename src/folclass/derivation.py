"""Candidate foliation generators delta = a(t)*alpha + b(t)*beta + c(t)*d/dt.

The pair (alpha, beta) spans the restricted Lie algebra of an infinitesimal
group of length p^2 in characteristic 2; its p-th power structure falls into
exactly four cases.  A triple (a, b, c) of polynomials generates a rank-one
subsheaf; it is an admissible foliation generator when it is primitive (C1),
extends to the chart at infinity without zeros (C2), and is p-closed (C3):
the three 2x2 minors of delta^2 = (A, B, C) against (a, b, c) vanish.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConsistencyError, FieldMismatchError
from .polynomial import Poly, _addmul, poly_gcd


class LieCase(enum.Enum):
    """The four p-th power structures of the commuting pair (alpha, beta)."""

    I = ("zero", "zero")
    II = ("alpha", "beta")
    III = ("alpha", "zero")
    IV = ("beta", "zero")

    def __init__(self, alpha_sq, beta_sq):
        self.alpha_sq = alpha_sq
        self.beta_sq = beta_sq

    @classmethod
    def from_name(cls, name):
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown Lie case {name!r}; expected I, II, III or IV") from None


@dataclass(frozen=True)
class DerivationTriple:
    case: LieCase
    a: Poly
    b: Poly
    c: Poly

    def __post_init__(self):
        spec = self.a.spec
        if self.b.spec is not spec or self.c.spec is not spec:
            raise FieldMismatchError("triple components must share one field")
        if spec.p != 2:
            raise ValueError("derivation triples are specific to characteristic 2")
        if not (self.a or self.b or self.c):
            raise ValueError("the zero triple does not generate a rank-one subsheaf")

    @property
    def spec(self):
        return self.a.spec

    def components(self):
        return (self.a, self.b, self.c)

    def to_json_dict(self):
        return {
            "case": self.case.name,
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "field": self.spec.literal(),
        }

    def __str__(self):
        return f"[case {self.case.name}] a={self.a}, b={self.b}, c={self.c} over {self.spec.literal()}"


@dataclass(frozen=True)
class SquaredDerivation:
    """The alpha, beta, d/dt components of delta squared."""

    A: Poly
    B: Poly
    C: Poly

    def components(self):
        return (self.A, self.B, self.C)

    def is_zero(self):
        return not (self.A or self.B or self.C)


# The last (triple, delta^2) pair, rebound as one tuple.  It is looked up by
# identity, never by value, and it holds the triple, so the id it is compared
# against cannot be reused by another object while it is cached.
_last_square = (None, None)


def delta_squared(d: DerivationTriple) -> SquaredDerivation:
    """Expand delta^2 = a^2*alpha^2 + b^2*beta^2 + c*a'*alpha + c*b'*beta + c*c'*d/dt
    and substitute the case's values of alpha^2 and beta^2.

    The result for the most recent triple is kept, so satisfies_C3 reuses
    the delta^2 that a caller has just computed for the same object."""
    global _last_square
    last = _last_square
    if last[0] is d:
        return last[1]
    sq = _formula(d)
    _last_square = (d, sq)
    return sq


def _formula(d):
    """delta_squared's closed formula, evaluated without the cache.

    Each slot's products are added by _addmul straight into one index list,
    long enough for any of them, and one Poly is wrapped per slot."""
    a, b, c = d.a, d.b, d.c
    spec, fa, fb, fc = a.spec, a._idx, b._idx, c._idx
    n = 2 * max(len(fa), len(fb), len(fc)) - 1
    A, B, C = [0] * n, [0] * n, [0] * n
    _addmul(spec, A, fc, a.formal_derivative()._idx)
    _addmul(spec, B, fc, b.formal_derivative()._idx)
    _addmul(spec, C, fc, c.formal_derivative()._idx)
    # a square is formed only when the case sends it to a nonzero slot
    for f, slot in ((fa, d.case.alpha_sq), (fb, d.case.beta_sq)):
        if slot == "alpha":
            _addmul(spec, A, f, f)
        elif slot == "beta":
            _addmul(spec, B, f, f)
    return SquaredDerivation(Poly._make(spec, A), Poly._make(spec, B), Poly._make(spec, C))


def _rewrite_rules(case):
    """The word -> slot table of the case's relations on length-2 words.

    alpha and beta commute with each other and with d/dt, so BA, TA and TB
    rewrite to AB, AT and BT; (d/dt)^2 = 0; and alpha^2, beta^2 go to the
    case's slot.  A word that rewrites to zero maps to None.
    """
    square = {"A": case.alpha_sq, "B": case.beta_sq, "T": "zero"}
    letter = {"alpha": "A", "beta": "B", "zero": None}
    rules = {}
    for x in "ABT":
        for y in "ABT":
            rules[x + y] = letter[square[x]] if x == y else "".join(sorted(x + y))
    return rules


# derived once per Lie case; the oracle only reads it
_REWRITES = {case: _rewrite_rules(case) for case in LieCase}


def _compose_engine(case, a, b, c):
    """Expand (a*alpha + b*beta + c*d/dt)^2 by operator composition.

    Each product (rx*x) o (ry*y) of two terms is the word xy with
    coefficient rx*ry; when x is d/dt, moving it past ry also leaves
    rx*ry' on the word y.  The length-2 words are then rewritten by the
    case's table in _REWRITES, built once per Lie case from the defining
    relations (commutation, (d/dt)^2 = 0, alpha^2 and beta^2 per case); a
    product whose word rewrites to zero is not formed.  Every product is
    added by _addmul into its word's index list, long enough for any of
    them.  Returns these untrimmed lists over the basis words A, B, T, the
    irreducible length-2 words and the identity word.
    """
    spec = a.spec
    coeff = {"A": a._idx, "B": b._idx, "T": c._idx}
    n = 2 * max(len(a._idx), len(b._idx), len(c._idx)) - 1
    slots = {w: [0] * n for w in ("A", "B", "T", "AB", "AT", "BT", "")}
    for word, target in _REWRITES[case].items():
        if target is not None:
            _addmul(spec, slots[target], coeff[word[0]], coeff[word[1]])
    fc = c._idx
    for y, ry in (("A", a), ("B", b), ("T", c)):
        _addmul(spec, slots[y], fc, ry.formal_derivative()._idx)
    return slots


def oracle_delta_squared(d: DerivationTriple) -> SquaredDerivation:
    """Recompute delta^2 by symbolic operator composition.

    Independent of delta_squared: the square is expanded as a word rewrite
    with the Lie relations, read from the case's rewrite table, instead of
    transcribing the closed formula.  Any residue on irreducible length-2
    words or on the identity word signals a bug.  It never reads
    delta_squared's cache.  Both sides share Poly's table arithmetic, the
    derivative that each Poly keeps and the kernel _addmul, into which each
    adds its products, so the check rests on the two expansions being
    different algorithms, and on the tests that check that arithmetic:
    test_tables_match_direct_arithmetic (the field tables against
    coefficient-vector arithmetic) and
    test_arithmetic_matches_schoolbook_reference (Poly, and _addmul on its
    own over lists of products, against coefficient loops on
    FieldElements).
    """
    slots = _compose_engine(d.case, *d.components())
    for word in ("AB", "AT", "BT", ""):
        if any(slots[word]):
            raise ConsistencyError(
                f"operator expansion left a nonzero residue on word {word or '1'}"
            )
    spec = d.spec
    return SquaredDerivation(
        Poly._make(spec, slots["A"]), Poly._make(spec, slots["B"]), Poly._make(spec, slots["T"])
    )


def satisfies_C1(d: DerivationTriple) -> bool:
    """Primitivity: the gcd of the nonzero components is a nonzero constant."""
    # once the running gcd is a unit, every further gcd is 1
    g = None
    for f in d.components():
        if f:
            g = f if g is None else poly_gcd(g, f)
            if g.degree == 0:
                return True
    return False


def satisfies_C2(d: DerivationTriple) -> bool:
    """Degree bounds deg a, deg b <= 1, deg c <= 3 with at least one attained."""
    da, db, dc = d.a.degree, d.b.degree, d.c.degree
    return da <= 1 and db <= 1 and dc <= 3 and (da == 1 or db == 1 or dc == 3)


def _minors_vanish(d: DerivationTriple, sq: SquaredDerivation) -> bool:
    """Whether A*b + B*a, A*c + C*a and B*c + C*b all vanish (char 2).

    Each minor's two products are added by _addmul into one index list,
    which is tested for zero before the next minor is formed."""
    spec = d.spec
    A, B, C = sq.A._idx, sq.B._idx, sq.C._idx
    a, b, c = d.a._idx, d.b._idx, d.c._idx
    for x, y, u, v in ((A, b, B, a), (A, c, C, a), (B, c, C, b)):
        out = [0] * (max(len(x) + len(y), len(u) + len(v)) - 1)
        _addmul(spec, out, x, y)
        _addmul(spec, out, u, v)
        if any(out):
            return False
    return True


def satisfies_C3(d: DerivationTriple) -> bool:
    """p-closedness as proportionality over the rational function field:
    delta^2 = (A, B, C) lies in the span of delta exactly when the three 2x2
    minors against (a, b, c) vanish."""
    return _minors_vanish(d, delta_squared(d))


def is_valid_foliation(d: DerivationTriple) -> bool:
    return satisfies_C2(d) and satisfies_C1(d) and satisfies_C3(d)


def failed_conditions(d: DerivationTriple):
    """Names of the admissibility conditions the triple violates."""
    failed = []
    if not satisfies_C1(d):
        failed.append("C1 (gcd of a, b, c is not a nonzero constant)")
    if not satisfies_C2(d):
        failed.append("C2 (degree bounds with at least one equality)")
    if not satisfies_C3(d):
        failed.append("C3 (delta^2 is not proportional to delta)")
    return failed


@dataclass(frozen=True)
class ChartAtInfinity:
    """The triple rewritten in the coordinate s = 1/t at infinity.

    The components transform as s*a(1/s), s*b(1/s), s^3*c(1/s) (the d/dt
    frame picks up s^2 and the twist one more power of s).  A component is
    None when negative powers of s remain.  nonvanishing_at_s0 is meaningful
    when regular: it holds when some component has a nonzero constant term.
    """

    a_bar: Poly | None
    b_bar: Poly | None
    c_bar: Poly | None
    regular: bool
    nonvanishing_at_s0: bool


def _reverse_into(f: Poly, weight: int):
    """s^weight * f(1/s) as a polynomial in s, or None if a pole remains."""
    if f.degree > weight:
        return None
    coeffs = [f.coeff(weight - i) for i in range(weight + 1)]
    return Poly(f.spec, tuple(coeffs))


def chart_at_infinity(d: DerivationTriple) -> ChartAtInfinity:
    a_bar = _reverse_into(d.a, 1)
    b_bar = _reverse_into(d.b, 1)
    c_bar = _reverse_into(d.c, 3)
    regular = a_bar is not None and b_bar is not None and c_bar is not None
    nonvanishing = any(bool(f.coeff(0)) for f in (a_bar, b_bar, c_bar) if f is not None)
    return ChartAtInfinity(a_bar, b_bar, c_bar, regular, nonvanishing)


def scale(lam, d: DerivationTriple) -> DerivationTriple:
    """Multiply all three components by the nonzero constant lam."""
    if lam.spec is not d.spec:
        raise FieldMismatchError("scalar must live in the triple's field")
    if not lam:
        raise ZeroDivisionError("scaling a foliation generator by zero")
    return DerivationTriple(d.case, d.a.scale(lam), d.b.scale(lam), d.c.scale(lam))
