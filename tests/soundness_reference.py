"""The per-tuple soundness sweep, the tests' reference for
enumerator.verify_soundness: every parameter tuple of every family goes
through instantiate and every accepted triple through is_valid_foliation,
with no torus slice and no shared verdicts."""

import itertools

from folclass import enumerator
from folclass.classifier import families_of_case, instantiate
from folclass.errors import InvalidParameterError


def iter_family_instances(spec, family):
    """All (params, triple) pairs over the base field: the instances are the
    parameter tuples, in param_names order, that instantiate accepts."""
    names = family.param_names
    for values in itertools.product(spec.elements(), repeat=len(names)):
        params = dict(zip(names, values))
        try:
            yield params, instantiate(family, params, spec)
        except InvalidParameterError:
            continue


def per_tuple_soundness(spec, case):
    """verify_soundness's report, from every tuple; a verdict patched into
    the enumerator module is the one used here too."""
    instances, failures = {}, []
    for family in families_of_case(case):
        count = 0
        for params, triple in iter_family_instances(spec, family):
            count += 1
            if not enumerator.is_valid_foliation(triple):
                failures.append(
                    {
                        "family": family.value,
                        "params": {k: str(v) for k, v in params.items()},
                        "triple": triple.to_json_dict(),
                    }
                )
        instances[family.value] = count
    return {
        "field": spec.literal(),
        "case": case.name,
        "instances": instances,
        "failures": failures,
        "passed": not failures,
    }
