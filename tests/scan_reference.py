"""The scan of all q^4 (a, b) pairs, the tests' brute-force reference for
enumerator._scalar_classes, which visits one normalised pair per scalar
class.  It runs the package's own enumerator._scan_block, looked up when
called, so a block patched into the enumerator module is the one used here
too."""

import itertools

from folclass import enumerator


def full_scan(spec, case):
    """All valid keys of the case, in increasing order: every (a, b) pair."""
    q, _add, mul, inv = spec.tables()
    pairs = list(itertools.product(range(q), repeat=2))
    return [key for a in pairs for key in enumerator._scan_block(a, pairs, case, q, mul, inv)]
