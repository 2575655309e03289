"""The CLI's JSON output stays byte-identical on a pinned corpus.

The corpus under ``tests/golden/`` covers ``homs --mode list`` (whose
solution order is part of the output), ``endos`` on objects of at most 12
vertices, and ``verify-gadget``/``embed-check --max-size 2`` for the four
built-in gadgets.  ``tests/golden/make_corpus.py`` regenerates it.
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
