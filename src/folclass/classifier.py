"""The thirteen-family taxonomy of admissible generators, with exact
instantiation from parameters and classification of a valid triple back into
families (parameters recovered up to the overall scalar).

_FAMILIES holds one row per family, and instantiate and classify read only
the row: the parameter names, the constraints (factors that must be nonzero,
each with its clause), the triple with denominators cleared and that
denominator (a product of constraint factors), the degree signatures
(deg a, deg b, deg c) of the instances, the inverse map from the
coefficients of (a, b, c) to the parameters alone, and the weights of the
torus that acts on the parameters (the soundness sweep builds one tuple per
orbit).

Families are rigid in a fixed (alpha, beta) frame: the parameters are
rational in a triple's coefficients, so classify solves for them, takes the
scalar lambda as the ratio of the leading coefficients of the first nonzero
component, and accepts when lambda times the instance is the triple, which
fixes lambda.  Family I carries three parameters so that the two subfamilies
jointly cover the whole c = 0 locus {gcd(a,b) = 1, max(deg a, deg b) = 1};
triples where both degrees equal one match I-a and I-b simultaneously, and
overlap is reported, not suppressed.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .derivation import DerivationTriple, LieCase, failed_conditions
from .errors import InvalidParameterError, NotAFoliationError
# embed and extension_field are not called here; the per-layer benchmark
# tracer (perfbench/tracer.py) wraps them as attributes of this module.
from .finite_field import FieldElement, embed, extension_field, parse_element  # noqa: F401
from .polynomial import NEG_INF, Poly, _wrap


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
        return _CASES[self]

    @property
    def param_names(self):
        return _FAMILIES[self].names

    @property
    def torus_weights(self):
        """The weights that keep the triple (IV-iii and IV-iv), else None."""
        kept = _FAMILIES[self].weights[:-1]
        return kept[0] if kept else None

    @property
    def scaling_weights(self):
        """The weights of t -> alpha*t on the parameters."""
        return _FAMILIES[self].weights[-1]

    def __str__(self):
        return self.value


_CASES = {f: LieCase[f.value.split("-")[0]] for f in FamilyId}
_CASE_FAMILIES = {case: tuple(f for f in FamilyId if _CASES[f] is case) for case in LieCase}


def families_of_case(case: LieCase):
    return _CASE_FAMILIES[case]


class _Family(NamedTuple):
    """One family.  The three functions take their arguments positionally:
    constraints and cleared the parameters in names order, inverse the
    components a, b, c of a triple whose signature is in signatures.

    weights holds weight vectors in echelon form, each in {-1, 0, 1} per
    parameter: lam in F* scales the parameter of weight w by lam^w.  The last
    vector is the substitution t -> alpha*t.  It maps an admissible
    a*alpha_L + b*beta_L + c*d/dt to (a(alpha*t), b(alpha*t), c(alpha*t)/alpha),
    admissible too: in the coordinate s = t/alpha, d/dt = alpha^-1 * d/ds,
    and C1-C3 do not depend on the coordinate.  Under its weights the image
    of a tuple builds a unit multiple of that image of the tuple's triple,
    and both tuples pass or fail the constraints as one.  IV-iii and IV-iv
    put first a vector that keeps the triple itself, with weight 1 on s1,
    which must be nonzero; the scaling vector has weight 0 on s1."""

    names: tuple
    constraints: object  # params -> ((factor, clause), ...), each factor nonzero
    cleared: object  # params -> (den, a, b, c); the family's triple is (a, b, c)/den
    signatures: frozenset  # the (deg a, deg b, deg c) the instances take
    inverse: object  # (a, b, c) -> params, for any scalar multiple of an instance
    weights: tuple  # the torus weight vectors, each in names order


def _t(*roots):  # (t - r1)...(t - rn), = (t + r1)...(t + rn) in char 2
    spec = roots[0].spec
    f = _wrap(spec, (roots[0].index, 1))  # monic, so already trimmed
    for r in roots[1:]:
        f = f * _wrap(spec, (r.index, 1))
    return f


def _root(f):  # char 2: the root of f1*t + f0 is f0/f1
    return f.coeff(0) / f.coeff(1)


_GCD = "s*t1 must differ from t2 (otherwise gcd(a, b) != 1)"
_DISTINCT = "t1 and t2 must be distinct"

_FAMILIES = {
    FamilyId.I_A: _Family(
        ("s", "t1", "t2"),
        lambda s, t1, t2: ((s * t1 + t2, _GCD),),
        lambda s, t1, t2: (s.spec.one, Poly(s.spec, (t2, s)), _t(t1), Poly.zero(s.spec)),
        frozenset({(0, 1, NEG_INF), (1, 1, NEG_INF)}),
        lambda a, b, c: (a.coeff(1) / b.leading, _root(b), a.coeff(0) / b.leading),
        ((0, -1, -1),),
    ),
    FamilyId.I_B: _Family(
        ("s", "t1", "t2"),
        lambda s, t1, t2: ((s * t1 + t2, _GCD),),
        lambda s, t1, t2: (s.spec.one, _t(t1), Poly(s.spec, (t2, s)), Poly.zero(s.spec)),
        frozenset({(1, 0, NEG_INF), (1, 1, NEG_INF)}),
        lambda a, b, c: (b.coeff(1) / a.leading, _root(a), b.coeff(0) / a.leading),
        ((0, -1, -1),),
    ),
    FamilyId.II_I: _Family(
        ("t1", "t2"),
        lambda t1, t2: ((t1 + t2, _DISTINCT),),
        lambda t1, t2: (t1 + t2, Poly.constant(t1 + t2), _t(t1), _t(t1, t2)),
        frozenset({(0, 1, 2)}),
        lambda a, b, c: (_root(b), _root(b) + c.coeff(1) / c.leading),
        ((-1, -1),),
    ),
    FamilyId.II_II: _Family(
        ("t1", "t2"),
        lambda t1, t2: ((t1 + t2, _DISTINCT),),
        lambda t1, t2: (t1 + t2, _t(t2), Poly.constant(t1 + t2), _t(t1, t2)),
        frozenset({(1, 0, 2)}),
        lambda a, b, c: (_root(a) + c.coeff(1) / c.leading, _root(a)),
        ((-1, -1),),
    ),
    FamilyId.II_III: _Family(
        ("t1", "t2"),
        lambda t1, t2: ((t1 + t2, _DISTINCT),),
        lambda t1, t2: (t1.spec.one, _t(t2), _t(t1), _t(t1, t2)),
        frozenset({(1, 1, 2)}),
        lambda a, b, c: (_root(b), _root(a)),
        ((-1, -1),),
    ),
    FamilyId.II_IV: _Family(
        ("t0", "t1", "t2"),
        lambda t0, t1, t2: (
            ((t0 + t1) * (t0 + t2) * (t1 + t2), "t0, t1, t2 must be pairwise distinct"),
        ),
        lambda t0, t1, t2: (t0.spec.one, _t(t2).scale(t0 + t1), _t(t1).scale(t0 + t2), _t(t0, t1, t2)),
        frozenset({(1, 1, 3)}),
        # c is proportional to (t + t0)(t + t1)(t + t2), so c2/c3 = t0 + t1 + t2
        lambda a, b, c: (c.coeff(2) / c.leading + _root(b) + _root(a), _root(b), _root(a)),
        ((-1, -1, -1),),
    ),
    FamilyId.III_I: _Family(
        ("s", "t1"),
        lambda s, t1: ((s, "s must be nonzero"),),
        lambda s, t1: (s.spec.one, _t(t1).scale(s), Poly.one(s.spec), _t(t1, t1).scale(s)),
        frozenset({(1, 0, 2)}),
        lambda a, b, c: (a.leading / b.coeff(0), _root(a)),
        ((1, -1),),
    ),
    FamilyId.III_II: _Family(
        ("s", "t1"),
        lambda s, t1: ((s, "s must be nonzero"),),
        lambda s, t1: (s, Poly.constant(s), _t(t1), _t(t1).scale(s)),
        frozenset({(0, 1, 1)}),
        lambda a, b, c: (a.coeff(0) / b.leading, _root(c)),
        ((-1, -1),),
    ),
    FamilyId.III_III: _Family(
        ("s", "t1", "t2"),
        lambda s, t1, t2: ((s, "s must be nonzero"), (t1 + t2, _DISTINCT)),
        lambda s, t1, t2: (s, _t(t2).scale(s * (t1 + t2)), _t(t1), _t(t1, t2, t2).scale(s)),
        frozenset({(1, 1, 3)}),
        lambda a, b, c: (c.leading / b.leading, _root(b), _root(a)),
        ((1, -1, -1),),
    ),
    FamilyId.IV_I: _Family(
        ("s1", "t2"),
        lambda s1, t2: ((s1, "s1 must be nonzero"),),
        lambda s1, t2: (s1, Poly.constant(s1), _t(s1 * t2), Poly.constant(s1 * s1)),
        frozenset({(0, 1, 0)}),
        lambda a, b, c: (a.coeff(0) / b.leading, b.coeff(0) / a.coeff(0)),
        ((-1, 0),),
    ),
    FamilyId.IV_II: _Family(
        ("s1", "t2"),
        lambda s1, t2: ((s1, "s1 must be nonzero"),),
        lambda s1, t2: (
            s1,
            Poly(s1.spec, (0, s1)),
            Poly(s1.spec, (1, s1 * t2)),
            Poly(s1.spec, (0, 0, 0, s1 * s1)),
        ),
        frozenset({(1, 0, 3), (1, 1, 3)}),
        lambda a, b, c: (c.leading / a.leading, b.coeff(1) / a.leading),
        ((1, 0),),
    ),
    # r2 != 0 is not needed for admissibility: P = (ab)' = s1*s2 on the
    # cleared triple.  It only separates IV-iii from IV-ii, whose t2 = 0
    # instances are the triples this formula gives at r2 = 0.
    FamilyId.IV_III: _Family(
        ("s1", "s2", "r2"),
        lambda s1, s2, r2: (
            (s1, "s1 must be nonzero"), (s2, "s2 must be nonzero"), (r2, "r2 must be nonzero")
        ),
        lambda s1, s2, r2: (
            s1 * s2,
            _t(s1 * r2).scale(s1 * s2),
            Poly.one(s1.spec),
            _t(s1 * r2, s1 * r2, s1 * r2).scale(s1 * s2 * s1 * s2),
        ),
        frozenset({(1, 0, 3)}),
        # the triple reads s1*s2 and s1*r2, which (lam*s1, s2/lam, r2/lam)
        # keeps: the inverse reports that orbit's (1, s1*s2, s1*r2)
        lambda a, b, c: (a.spec.one, a.leading / b.coeff(0), _root(a)),
        ((1, -1, -1), (0, 1, -1)),
    ),
    FamilyId.IV_IV: _Family(
        ("s1", "s2", "t1", "t2"),
        lambda s1, s2, t1, t2: (
            (s1, "s1 must be nonzero"), (s2, "s2 must be nonzero"), (t1 + t2, _DISTINCT)
        ),
        lambda s1, s2, t1, t2: (
            s1 * s2 * (t1 + t2),
            _t(t1).scale(s1 * s2 * (t1 + t2)),
            _t(t2),
            _t(t1, t1, t1).scale(s1 * s2 * s1 * s2 * (t1 + t2)),
        ),
        frozenset({(1, 1, 3)}),
        # the triple reads s1 and s2 only through s1*s2, which
        # (lam*s1, s2/lam) keeps: the inverse reports the orbit's s1 = 1
        lambda a, b, c: (a.spec.one, c.leading / a.leading, _root(a), _root(b)),
        ((1, -1, 0, 0), (0, 1, -1, -1)),
    ),
}


class FamilyMatch(NamedTuple):
    family: FamilyId
    params: dict
    lam: object  # nonzero FieldElement

    def to_json_dict(self):
        return {
            "family": self.family.value,
            "params": {k: str(self.params[k]) for k in self.family.param_names},
            "lambda": str(self.lam),
        }


def _build(family: FamilyId, vals):
    """The family's triple at vals, FieldElements of one field of
    characteristic 2 in param_names order, or None when a constraint fails."""
    row = _FAMILIES[family]
    for factor, _clause in row.constraints(*vals):
        if not factor:
            return None
    den, a, b, c = row.cleared(*vals)
    inv = den.inverse().index
    return DerivationTriple(_CASES[family], a._scaled(inv), b._scaled(inv), c._scaled(inv))


def instantiate(family: FamilyId, params, spec) -> DerivationTriple:
    """Build the family's triple from a parameter assignment over spec.

    params maps the family's parameter names to FieldElements of spec (or to
    element literals, which are parsed).  Constraint violations raise
    InvalidParameterError naming the violated clause.
    """
    if spec.p != 2:
        raise ValueError("families are specific to characteristic 2")
    row = _FAMILIES[family]
    vals = []
    for name in row.names:
        if name not in params:
            raise InvalidParameterError(family.value, f"missing parameter {name}")
        v = params[name]
        if not (isinstance(v, FieldElement) and v.spec is spec):
            v = parse_element(v, spec) if isinstance(v, str) else spec.element(v)
        vals.append(v)
    triple = _build(family, vals)
    if triple is None:
        clause = next(clause for factor, clause in row.constraints(*vals) if not factor)
        raise InvalidParameterError(family.value, clause)
    return triple


def classify(d: DerivationTriple):
    """All family matches of a valid triple, parameters in the triple's field.

    The structure theorem is stated over an algebraically closed field, but
    no extension is needed here: each inverse map reads the parameters as
    rational functions of the coefficients, and embedding into an extension
    is a field homomorphism, so a match over GF(q^m) is the image of one
    over GF(q).  Every returned match re-instantiates to the input exactly.
    Results come in family tag order, at most one per family.
    """
    failed = failed_conditions(d)
    if failed:
        raise NotAFoliationError("triple violates " + "; ".join(failed) + f" -- {d}")
    components = d.components()
    signature = tuple(f.degree for f in components)
    matches = []
    for family in families_of_case(d.case):
        row = _FAMILIES[family]
        if signature not in row.signatures:
            continue
        params = dict(zip(row.names, row.inverse(*components)))
        try:
            inst = instantiate(family, params, d.spec)
        except InvalidParameterError:  # the coefficients give no instance
            continue
        pairs = tuple(zip(components, inst.components()))
        x, y = next((x, y) for x, y in pairs if x)
        # lam is a ratio of two nonzero leading coefficients: a unit of spec
        lam = x.leading / y.leading
        if all(g._scaled(lam.index) == f for f, g in pairs):
            matches.append(FamilyMatch(family, params, lam))
    return matches
