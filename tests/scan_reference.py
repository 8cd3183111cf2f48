"""Brute-force references for the scan in enumerator.

full_scan visits all q^4 (a, b) pairs, against enumerator._scalar_classes,
which visits one normalised pair per scalar class.  It runs the package's own
enumerator._scan_block, looked up when called, so a block patched into the
enumerator module is the one used here too.

p_zero_candidates lists, one by one, the candidates of a pair with P = 0 that
the scan decides by one closed-form value (enumerator._p_zero_value): the
p-closed c, found by solving the two singular 2x2 systems (solve2), and the
ones that pass C2 and C1 (is_primitive).
"""

import itertools

from folclass import enumerator
from folclass.derivation import delta_squared


def full_scan(spec, case):
    """All valid keys of the case, in increasing order: every (a, b) pair."""
    q, _add, mul, inv = spec.tables()
    pairs = list(itertools.product(range(q), repeat=2))
    return [key for a in pairs for key in enumerator._scan_block(a, pairs, case, mul, inv)]


def solve2(m, rhs, q, mul, inv):
    """Solutions (x, y) of m*(x, y) = rhs, m = (m00, m01, m10, m11) row by
    row, in increasing (y, x) order (char 2).  Every solution of an m != 0
    lies on the line of one nonzero row, so its q points are listed and
    filtered by both equations: one survives when det m != 0, none or q
    when m is singular.  m = 0 has all q^2 when rhs = 0, else none.
    """
    m00, m01, m10, m11 = m
    r0, r1 = rhs
    if m00 or m01:
        u, v, r = m00, m01, r0
    elif m10 or m11:
        u, v, r = m10, m11, r1
    else:
        return [(x, y) for y in range(q) for x in range(q)] if not (r0 or r1) else []
    # the q points of the row u*x + v*y = r, in increasing (y, x) order
    if u:
        by_iu, by_v = mul[inv[u]], mul[v]
        line = [(by_iu[r ^ by_v[y]], y) for y in range(q)]
    else:
        y = mul[r][inv[v]]
        line = [(x, y) for x in range(q)]
    return [
        (x, y) for x, y in line
        if mul[m00][x] ^ mul[m01][y] == r0 and mul[m10][x] ^ mul[m11][y] == r1
    ]


def is_primitive(key, mul, inv):
    """C1 for the key (a1, a0, b1, b0, c3, c2, c1, c0) of a pair with
    P = a1*b0 + a0*b1 = 0.

    Then a and b are multiples of one l = l0 + l1*t: if a = b = 0 the gcd is
    c, a constant l is a unit, and a linear l divides c exactly when
    c(l0/l1) = 0.
    """
    a1, a0, b1, b0 = key[:4]
    c = key[4:]
    l1, l0 = (a1, a0) if a1 or a0 else (b1, b0)
    if not (l0 or l1):
        return bool(c[3]) and not any(c[:3])
    if not l1:
        return True
    by_root = mul[mul[l0][inv[l1]]]
    value = 0
    for ci in c:
        value = by_root[value] ^ ci
    return value != 0


def p_zero_candidates(spec, case, m):
    """(candidates, passing) for the pair m = (a1, a0, b1, b0) with P = 0.

    The candidates are the p-closed c, keyed (c3, c2, c1, c0) in increasing
    order: each nonzero c that solves both systems M*(c0, c1) = (S_A0, S_B0)
    and M*(c2, c3) = (S_A2, S_B2), and c = 0 when K = S_A*b + S_B*a = 0
    (unless a = b = 0, which with c = 0 is no triple).  S_A and S_B are read
    off delta_squared at c = 0.  The passing ones also meet C2 and C1, so
    they are the pair's admissible triples.
    """
    q, _add, mul, inv = spec.tables()
    rhs, k_zero = ((0, 0), (0, 0)), False  # a = b = 0: both systems read 0 = 0
    if any(m):
        d = enumerator._key_to_triple(m + (0, 0, 0, 0), spec, case)
        a, b, _c = d.components()
        s_a, s_b, _ = delta_squared(d).components()  # c = 0 leaves S_A, S_B
        rhs = tuple((s_a.coeff(e).index, s_b.coeff(e).index) for e in (0, 2))
        k_zero = not (s_a * b + s_b * a)
    low, high = (solve2(m, r, q, mul, inv) for r in rhs)
    # c is keyed (c3, c2, c1, c0), so high before low keeps this increasing
    candidates = [(0, 0, 0, 0)] if k_zero else []
    candidates += [(c3, c2, c1, c0) for c2, c3 in high for c0, c1 in low if c0 or c1 or c2 or c3]
    a1, _a0, b1, _b0 = m
    passing = [c for c in candidates if (a1 or b1 or c[0]) and is_primitive(m + c, mul, inv)]
    return candidates, passing
