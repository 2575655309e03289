"""The CLI's JSON output stays byte-identical on a pinned corpus.

The corpus under ``tests/golden/`` covers ``homs`` in all three modes and
with ``--max-solutions`` (the solution order of ``--mode list`` is part of
the output), ``endos`` on objects of at most 12 vertices,
``verify-gadget``/``embed-check --max-size 2`` for the four built-in gadgets
and for a gadget-building mutant of C4, ``embed-check --max-size 2`` for a
gadget with no interior vertex, ``verify-gadget --max-size 3`` for
the built-ins, passing and failing ``strong-replacement --max-size 3``
sweeps in both regimes and one that the no-isolated regime refuses,
``classify`` and ``cone-classify`` witnesses and decompositions,
``retract`` plans and certificates over P1, P2 and P3, two ``dichotomy`` sweeps,
``enumerate-digraphs --canonical`` at sizes 2 and 3, and ``arrow`` products
(JSON and edge lists) and ``phi`` copy maps of every arc, for built-in and
file gadgets, on digraphs with loops and with ids that hold the interior-id
separators, plus an id collision and an arc that is not in the digraph.
``tests/golden/make_corpus.py`` regenerates it.
"""

import json
from pathlib import Path

import pytest

from golden.make_corpus import run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    case = CASES[name]
    code, out = run_case(case["argv"], GOLDEN)
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{name}.json").read_text(encoding="utf-8")
