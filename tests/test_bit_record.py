"""Every value of the bit record, recomputed at one BLAS thread, equals the
checked-in one exactly (regenerate with ``python tests/bit_record.py --write``)."""

import json

from bit_record import RECORD, run_pinned
from conftest import requires_fixtures


def _leaves(tree, path=()):
    """{path: value} of every number in the record."""
    if isinstance(tree, dict):
        return {leaf: value for key, sub in tree.items()
                for leaf, value in _leaves(sub, (*path, key)).items()}
    if isinstance(tree, list):
        return {leaf: value for key, sub in enumerate(tree)
                for leaf, value in _leaves(sub, (*path, key)).items()}
    return {"/".join(map(str, path)): tree}


@requires_fixtures
def test_no_bit_moved():
    with open(RECORD, encoding="utf-8") as handle:
        expected = _leaves(json.load(handle))
    got = _leaves(json.loads(run_pinned()))
    moved = {path: (expected.get(path), got.get(path)) for path in expected.keys() | got.keys()
             if expected.get(path) != got.get(path) or (path in got) != (path in expected)}
    assert moved == {}
