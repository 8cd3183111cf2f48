"""The thirteen-family taxonomy of admissible generators, with exact
instantiation from parameters and classification of a valid triple back into
families (parameters recovered up to the overall scalar).

Families are rigid in a fixed (alpha, beta) frame: once a triple's degree
signature selects a family, the parameters are rational in its coefficients
(ratios and roots of exactly-divided linear factors), so matching is
generate-and-verify with tiny candidate sets.  Family I carries three
parameters so that the two subfamilies jointly cover the whole c = 0 locus
{gcd(a,b) = 1, max(deg a, deg b) = 1}; triples where both degrees equal one
match I-a and I-b simultaneously, and overlap is reported, not suppressed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .derivation import DerivationTriple, LieCase, failed_conditions, scale
from .errors import InvalidParameterError, NotAFoliationError
# embed and extension_field are not called here; the per-layer benchmark
# tracer (perfbench/tracer.py) wraps them as attributes of this module.
from .finite_field import embed, extension_field, parse_element  # noqa: F401
from .polynomial import Poly


class FamilyId(enum.Enum):
    I_A = "I-a"
    I_B = "I-b"
    II_I = "II-i"
    II_II = "II-ii"
    II_III = "II-iii"
    II_IV = "II-iv"
    III_I = "III-i"
    III_II = "III-ii"
    III_III = "III-iii"
    IV_I = "IV-i"
    IV_II = "IV-ii"
    IV_III = "IV-iii"
    IV_IV = "IV-iv"

    @property
    def case(self) -> LieCase:
        return LieCase[self.value.split("-")[0]]

    @property
    def param_names(self):
        return _PARAM_NAMES[self]

    def __str__(self):
        return self.value


_PARAM_NAMES = {
    FamilyId.I_A: ("s", "t1", "t2"),
    FamilyId.I_B: ("s", "t1", "t2"),
    FamilyId.II_I: ("t1", "t2"),
    FamilyId.II_II: ("t1", "t2"),
    FamilyId.II_III: ("t1", "t2"),
    FamilyId.II_IV: ("t0", "t1", "t2"),
    FamilyId.III_I: ("s", "t1"),
    FamilyId.III_II: ("s", "t1"),
    FamilyId.III_III: ("s", "t1", "t2"),
    FamilyId.IV_I: ("s1", "t2"),
    FamilyId.IV_II: ("s1", "t2"),
    FamilyId.IV_III: ("s1", "s2", "r2"),
    FamilyId.IV_IV: ("s1", "s2", "t1", "t2"),
}


def families_of_case(case: LieCase):
    return tuple(f for f in FamilyId if f.case == case)


@dataclass(frozen=True)
class FamilyMatch:
    family: FamilyId
    params: dict
    lam: object  # nonzero FieldElement

    def to_json_dict(self):
        return {
            "family": self.family.value,
            "params": {k: str(self.params[k]) for k in self.family.param_names},
            "lambda": str(self.lam),
        }


def _require(cond, family, clause):
    if not cond:
        raise InvalidParameterError(family.value, clause)


def instantiate(family: FamilyId, params, spec) -> DerivationTriple:
    """Build the family's triple from a parameter assignment over spec.

    params maps the family's parameter names to FieldElements of spec (or to
    element literals, which are parsed).  Constraint violations raise
    InvalidParameterError naming the violated clause.
    """
    if spec.p != 2:
        raise ValueError("families are specific to characteristic 2")
    vals = {}
    for name in family.param_names:
        if name not in params:
            raise InvalidParameterError(family.value, f"missing parameter {name}")
        v = params[name]
        vals[name] = parse_element(v, spec) if isinstance(v, str) else spec.element(v)
    one = Poly.one(spec)
    t = Poly.t(spec)

    def lin(r):  # t - r (= t + r in char 2)
        return Poly(spec, (r, spec.one))

    f = family
    if f in (FamilyId.I_A, FamilyId.I_B):
        s, t1, t2 = vals["s"], vals["t1"], vals["t2"]
        _require(s * t1 != t2, f, "s*t1 must differ from t2 (otherwise gcd(a, b) != 1)")
        other = Poly(spec, (t2, s))
        main = lin(t1)
        a, b = (other, main) if f is FamilyId.I_A else (main, other)
        c = Poly.zero(spec)
    elif f is FamilyId.II_I or f is FamilyId.II_II:
        t1, t2 = vals["t1"], vals["t2"]
        _require(t1 != t2, f, "t1 and t2 must be distinct")
        inv = (t1 + t2).inverse()
        c = (lin(t1) * lin(t2)).scale(inv)
        if f is FamilyId.II_I:
            a, b = one, lin(t1).scale(inv)
        else:
            a, b = lin(t2).scale(inv), one
    elif f is FamilyId.II_III:
        t1, t2 = vals["t1"], vals["t2"]
        _require(t1 != t2, f, "t1 and t2 must be distinct")
        a, b = lin(t2), lin(t1)
        c = a * b
    elif f is FamilyId.II_IV:
        t0, t1, t2 = vals["t0"], vals["t1"], vals["t2"]
        _require(t0 != t1 and t0 != t2 and t1 != t2, f, "t0, t1, t2 must be pairwise distinct")
        a = lin(t2).scale(t0 + t1)
        b = lin(t1).scale(t0 + t2)
        c = lin(t0) * lin(t1) * lin(t2)
    elif f is FamilyId.III_I:
        s, t1 = vals["s"], vals["t1"]
        _require(bool(s), f, "s must be nonzero")
        a = lin(t1).scale(s)
        b = one
        c = lin(t1) * a
    elif f is FamilyId.III_II:
        s, t1 = vals["s"], vals["t1"]
        _require(bool(s), f, "s must be nonzero")
        a = one
        b = lin(t1).scale(s.inverse())
        c = lin(t1)
    elif f is FamilyId.III_III:
        s, t1, t2 = vals["s"], vals["t1"], vals["t2"]
        _require(bool(s), f, "s must be nonzero")
        _require(t1 != t2, f, "t1 and t2 must be distinct")
        a = lin(t2).scale(t1 + t2)
        b = lin(t1).scale(s.inverse())
        c = lin(t1) * lin(t2) * lin(t2)
    elif f is FamilyId.IV_I:
        s1, t2 = vals["s1"], vals["t2"]
        _require(bool(s1), f, "s1 must be nonzero")
        a = one
        b = Poly(spec, (t2, s1.inverse()))
        c = Poly.constant(s1)
    elif f is FamilyId.IV_II:
        s1, t2 = vals["s1"], vals["t2"]
        _require(bool(s1), f, "s1 must be nonzero")
        a = t
        b = Poly(spec, (s1.inverse(), t2))
        c = (t * t * t).scale(s1)
    elif f is FamilyId.IV_III:
        s1, s2, r2 = vals["s1"], vals["s2"], vals["r2"]
        _require(bool(s1), f, "s1 must be nonzero")
        _require(bool(s2), f, "s2 must be nonzero")
        _require(bool(r2), f, "r2 must be nonzero")
        sig = s1 * s2
        a = lin(s1 * r2)
        b = Poly.constant(sig.inverse())
        c = (a * a * a).scale(sig)
    elif f is FamilyId.IV_IV:
        s1, s2, t1, t2 = vals["s1"], vals["s2"], vals["t1"], vals["t2"]
        _require(bool(s1), f, "s1 must be nonzero")
        _require(bool(s2), f, "s2 must be nonzero")
        _require(t1 != t2, f, "t1 and t2 must be distinct")
        sig = s1 * s2
        a = lin(t1)
        b = lin(t2).scale((sig * (t1 + t2)).inverse())
        c = (a * a * a).scale(sig)
    else:  # pragma: no cover
        raise AssertionError(f)
    return DerivationTriple(f.case, a, b, c)


# -- classification ------------------------------------------------------------


def _root_of_linear(f):
    # char 2: the root of f1*t + f0 is f0/f1
    return f.coeff(0) / f.coeff(1)


def _shape_matches(family, d):
    da, db, dc = d.a.degree, d.b.degree, d.c.degree
    f = FamilyId
    return {
        f.I_A: not d.c and db == 1 and da <= 1,
        f.I_B: not d.c and da == 1 and db <= 1,
        f.II_I: (da, db, dc) == (0, 1, 2),
        f.II_II: (da, db, dc) == (1, 0, 2),
        f.II_III: (da, db, dc) == (1, 1, 2),
        f.II_IV: (da, db, dc) == (1, 1, 3),
        f.III_I: (da, db, dc) == (1, 0, 2),
        f.III_II: (da, db, dc) == (0, 1, 1),
        f.III_III: (da, db, dc) == (1, 1, 3),
        f.IV_I: (da, db, dc) == (0, 1, 0),
        f.IV_II: da == 1 and not d.a.coeff(0) and db in (0, 1) and dc == 3 and bool(d.b.coeff(0)),
        f.IV_III: (da, db, dc) == (1, 0, 3),
        f.IV_IV: (da, db, dc) == (1, 1, 3),
    }[family]


def _candidates(family, d):
    """The one (params, lam) candidate read off the triple's coefficients,
    or None when the shape has none.

    Every family formula pins its parameters as coefficient ratios or as
    roots of linear factors obtained by exact division, so each shape admits
    at most one candidate (the IV-iii / IV-iv product s1*s2 is reported with
    s1 normalized to 1, absorbing the redundant rescaling of s1, s2, r2).
    lam is never zero: it is a coefficient that _shape_matches pins as
    nonzero, or a quotient of nonzero elements.
    """
    a, b, c, spec = d.a, d.b, d.c, d.spec
    f = FamilyId
    if family in (f.I_A, f.I_B):
        main, other = (b, a) if family is f.I_A else (a, b)
        lam = main.leading
        return {"s": other.coeff(1) / lam, "t1": _root_of_linear(main), "t2": other.coeff(0) / lam}, lam
    if family is f.II_I:
        t1 = _root_of_linear(b)
        quot, rem = divmod(c, Poly(spec, (t1, spec.one)))
        if rem or quot.degree != 1:
            return None
        return {"t1": t1, "t2": _root_of_linear(quot)}, a.coeff(0)
    if family is f.II_II:
        t2 = _root_of_linear(a)
        quot, rem = divmod(c, Poly(spec, (t2, spec.one)))
        if rem or quot.degree != 1:
            return None
        return {"t1": _root_of_linear(quot), "t2": t2}, b.coeff(0)
    if family is f.II_III:
        return {"t1": _root_of_linear(b), "t2": _root_of_linear(a)}, a.leading
    if family is f.II_IV:
        t2 = _root_of_linear(a)
        t1 = _root_of_linear(b)
        quot, rem = divmod(c, Poly(spec, (t1, spec.one)) * Poly(spec, (t2, spec.one)))
        if rem or quot.degree != 1:
            return None
        t0 = _root_of_linear(quot)
        if t0 == t1:
            return None
        return {"t0": t0, "t1": t1, "t2": t2}, a.leading / (t0 + t1)
    if family is f.III_I:
        lam = b.coeff(0)
        return {"s": a.leading / lam, "t1": _root_of_linear(a)}, lam
    if family is f.III_II:
        lam = a.coeff(0)
        return {"s": lam / b.leading, "t1": _root_of_linear(c)}, lam
    if family is f.III_III:
        t2 = _root_of_linear(a)
        t1 = _root_of_linear(b)
        if t1 == t2:
            return None
        lam = a.leading / (t1 + t2)
        return {"s": lam / b.leading, "t1": t1, "t2": t2}, lam
    if family is f.IV_I:
        lam = a.coeff(0)
        return {"s1": lam / b.leading, "t2": b.coeff(0) / lam}, lam
    if family is f.IV_II:
        lam = a.leading
        return {"s1": lam / b.coeff(0), "t2": b.coeff(1) / lam}, lam
    if family is f.IV_III:
        lam = a.leading
        rho = _root_of_linear(a)
        if not rho:
            return None
        return {"s1": spec.one, "s2": lam / b.coeff(0), "r2": rho}, lam
    if family is f.IV_IV:
        lam = a.leading
        t1 = _root_of_linear(a)
        t2 = _root_of_linear(b)
        if t1 == t2:
            return None
        sig = lam / (b.leading * (t1 + t2))
        return {"s1": spec.one, "s2": sig, "t1": t1, "t2": t2}, lam
    raise AssertionError(family)  # pragma: no cover


def classify(d: DerivationTriple):
    """All family matches of a valid triple, parameters in the triple's field.

    The structure theorem is stated over an algebraically closed field, but
    no extension is needed here: _candidates reads every parameter as a
    rational function of the coefficients, and embedding into an extension
    is a field homomorphism, so a match over GF(q^m) is the image of one
    over GF(q).  Every returned match re-instantiates to the input exactly.
    Results come in family tag order, at most one per family.
    """
    failed = failed_conditions(d)
    if failed:
        raise NotAFoliationError(
            "triple violates " + "; ".join(failed) + f" -- {d}"
        )
    matches = []
    for family in families_of_case(d.case):
        candidate = _shape_matches(family, d) and _candidates(family, d)
        if not candidate:
            continue
        params, lam = candidate
        try:
            inst = instantiate(family, params, d.spec)
        except InvalidParameterError:  # a counterexample: leave the class unmatched
            continue
        if scale(lam, inst) == d:
            matches.append(FamilyMatch(family, params, lam))
    return matches
