"""Write the golden CLI corpus that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/make_corpus.py

Input documents go to ``inputs/``, the exact standard output of each command
to ``expected/<case>.json`` and the argument lists with their exit codes to
``cases.json``.  Input paths in ``cases.json`` are relative to this
directory.  Regenerating rewrites every file, so a change in output shows up
as a diff; only regenerate when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from slicecat.arrow import arrow_slice
from slicecat.cli import main
from slicecat.core import (
    Digraph,
    Graph,
    SliceObject,
    build_cycle,
    build_path,
    build_star,
    disjoint_union,
)
from slicecat.gadgets import BUILTIN_GADGET_NAMES, Gadget, builtin_gadget

HERE = Path(__file__).resolve().parent
ENDO_VERTEX_LIMIT = 12


def _identity_slice(g: Graph) -> SliceObject:
    return SliceObject(g, g, {v: v for v in g.vertices})


def _documents() -> dict[str, dict]:
    """Named input documents: graphs and slice objects."""
    arc = Digraph(["u", "v"], [("u", "v")])
    two_cycle = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
    loop_arc = Digraph(["u", "v"], [("u", "u"), ("u", "v")])
    out_star = Digraph(["u", "v", "w"], [("u", "v"), ("u", "w")])
    c3g, c4g, yg = (builtin_gadget(n) for n in ("C3", "C4", "Y"))
    p3 = build_path(3)
    odd = Graph(
        ["b", "a1", "Z", "q q", "m,n"],
        [("b", "a1"), ("a1", "Z"), ("Z", "q q"), ("q q", "b"), ("b", "m,n")],
    )
    fan = Graph(
        [f"x{i}" for i in range(8)],
        [("x0", "x1"), ("x1", "x2"), ("x2", "x0"), ("x2", "x3"), ("x3", "x4"),
         ("x4", "x5"), ("x5", "x6"), ("x6", "x7"), ("x7", "x4"), ("x1", "x6")],
    )
    folded = disjoint_union([p3, p3])
    p1, p2 = build_path(1), build_path(2)
    # components ordered by least id, each a path whose walk starts at neither its least id nor v0
    scattered = Graph(
        ["q", "k", "c", "z", "a", "m", "b", "x1", "y"],
        [("k", "c"), ("c", "z"), ("z", "a"), ("m", "b"), ("x1", "y"), ("y", "q")],
    )
    slices = {
        "c3_gadget": c3g.slice,
        "c4_gadget": c4g.slice,
        "y_gadget": yg.slice,
        "c3_arc": arrow_slice(arc, c3g),
        "c3_two_cycle": arrow_slice(two_cycle, c3g),
        "c3_loop_arc": arrow_slice(loop_arc, c3g),
        "c3_out_star": arrow_slice(out_star, c3g),
        "c4_arc": arrow_slice(arc, c4g),
        "c4_two_cycle": arrow_slice(two_cycle, c4g),
        "y_arc": arrow_slice(arc, yg),
        "y_out_star": arrow_slice(out_star, yg),
        "p3_identity": _identity_slice(p3),
        "p3_folded": SliceObject(
            folded, p3, {f"{i}:v{j}": f"v{j}" for i in range(2) for j in range(4)}
        ),
        "p1_identity": _identity_slice(p1),
        "p1_fold": SliceObject(p2, p1, {"v0": "v0", "v1": "v1", "v2": "v0"}),
        "p2_identity": _identity_slice(p2),
        "p2_pendant": SliceObject(
            Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "d")]),
            p2,
            {"a": "v0", "b": "v1", "c": "v2", "d": "v2"},
        ),
        "p3_pendant": SliceObject(
            Graph(["a0", "a1", "a2", "a3", "x"], [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("x", "a1")]),
            p3,
            {"a0": "v0", "a1": "v1", "a2": "v2", "a3": "v3", "x": "v0"},
        ),
        "p3_zigzag": SliceObject(
            build_path(5), p3, {f"v{i}": f"v{c}" for i, c in enumerate([0, 1, 2, 1, 2, 3])}
        ),
    }
    graphs = {
        "p1": build_path(1),
        "p2": build_path(2),
        "p3": p3,
        "p5": build_path(5),
        "c3": build_cycle(3),
        "c4": build_cycle(4),
        "c5": build_cycle(5),
        "c6": build_cycle(6),
        "star3": build_star(3),
        "k4": Graph(list("abcd"), [(x, y) for x in "abcd" for y in "abcd" if x < y]),
        "odd_ids": odd,
        "fan": fan,
        "two_triangles": disjoint_union([build_cycle(3), build_cycle(3)]),
        "scattered": scattered,
        "c6_scrambled": Graph(list("dafbec"), [(x, y) for x, y in zip("dafbec", "afbecd")]),
        "p3_p1": disjoint_union([p3, p1]),
    }
    docs = {name: g.to_dict() for name, g in graphs.items()}
    docs.update({name: x.to_dict() for name, x in slices.items()})
    return docs


def _gadget_documents() -> dict[str, dict]:
    """Named gadget files, kept apart from ``_documents`` so no ``endos`` case
    is made for them: C4 with c sent to 0, a structure-map rewrite that still
    builds a gadget and fails both bounded verifiers; and a and b alone over
    P0, a gadget with no interior vertex, whose product of the complete
    digraph is exact although a single arc's is not."""
    c4 = builtin_gadget("C4")
    mutated = dict(c4.slice.structure_map.as_dict(), c="0")
    no_interior = SliceObject(Graph(["a", "b"], []), build_path(0), {"a": "v0", "b": "v0"})
    return {
        "c4_mutant_c0": Gadget(SliceObject(c4.carrier, c4.base, mutated), c4.a, c4.b).to_dict(),
        "no_interior": Gadget(no_interior, "a", "b").to_dict(),
    }


def _digraph_documents() -> dict[str, Digraph]:
    """Named digraph files for ``arrow`` and ``phi``, kept apart from
    ``_documents`` so no ``endos`` case is made for them.  ``odd_arcs`` has
    ids holding the separators of the interior-id format without a clash;
    in ``clash`` two arcs format to the same interior id."""
    return {
        "digraph_two_cycle": Digraph(["u", "v"], [("u", "v"), ("v", "u")]),
        "digraph_loop_arc": Digraph(["u", "v"], [("u", "u"), ("u", "v")]),
        "digraph_out_star": Digraph(["u", "v", "w"], [("u", "v"), ("u", "w")]),
        "digraph_odd_arcs": Digraph(
            ["a,b", "c", "(x)", "y::z"], [("a,b", "c"), ("c", "(x)"), ("(x)", "y::z"), ("y::z", "a,b")]
        ),
        "digraph_clash": Digraph(["a,b", "c", "a", "b,c"], [("a,b", "c"), ("a", "b,c")]),
    }


HOMS_PAIRS = [
    ("p2", "c4"),
    ("c4", "p1"),
    ("p3", "c5"),
    ("star3", "p2"),
    ("c5", "c3"),
    ("odd_ids", "c4"),
    ("p2", "odd_ids"),
    ("c3", "k4"),
    ("c3_gadget", "c3_two_cycle"),
    ("c3_gadget", "c3_loop_arc"),
    ("c3_arc", "c3_two_cycle"),
    ("c3_two_cycle", "c3_loop_arc"),
    ("c4_gadget", "c4_two_cycle"),
    ("y_gadget", "y_out_star"),
    ("p3_identity", "p3_folded"),
    ("p3_folded", "p3_folded"),
]

# (gadget, digraph file): the product in both output formats and the copy
# map of every arc; the last gadget is read from a file
ARROW_CASES = [
    ("C3", "digraph_two_cycle"),
    ("C4", "digraph_odd_arcs"),
    ("P4", "digraph_loop_arc"),
    ("Y", "digraph_out_star"),
    ("c4_mutant_c0", "digraph_two_cycle"),
]

# C3, C4, P4 and Y witnesses, the P4 inside longer cycles, and a decomposition
CLASSIFY_GRAPHS = ["c3", "c4", "p5", "star3", "c6", "c6_scrambled", "scattered"]
# a retraction plan and a rigid-path certificate over each of P1, P2 and P3
RETRACT_SLICES = [
    "p1_fold", "p1_identity", "p2_pendant", "p2_identity", "p3_pendant", "p3_identity", "p3_zigzag"
]


def _cases(docs: dict[str, dict], digraphs: dict[str, Digraph]) -> dict[str, list]:
    """Case name -> argv, with input files as ``inputs/<name>.json``."""
    cases: dict[str, list] = {}
    for src, dst in HOMS_PAIRS:
        cases[f"homs_list_{src}__{dst}"] = [
            "homs", f"inputs/{src}.json", f"inputs/{dst}.json", "--mode", "list"
        ]
    for name, doc in docs.items():
        carrier = doc.get("carrier", doc)
        if len(carrier["vertices"]) <= ENDO_VERTEX_LIMIT:
            cases[f"endos_{name}"] = ["endos", f"inputs/{name}.json"]
    for g in BUILTIN_GADGET_NAMES:
        cases[f"verify_gadget_{g}"] = ["verify-gadget", "--gadget", g, "--max-size", "2"]
        cases[f"embed_check_{g}"] = ["embed-check", "--gadget", g, "--max-size", "2"]
        cases[f"verify_gadget_{g}_3"] = ["verify-gadget", "--gadget", g, "--max-size", "3"]
    cases["verify_gadget_c4_mutant_c0"] = [
        "verify-gadget", "--gadget", "inputs/c4_mutant_c0.json", "--max-size", "2"
    ]
    cases["embed_check_c4_mutant_c0"] = [
        "embed-check", "--gadget", "inputs/c4_mutant_c0.json", "--max-size", "2"
    ]
    cases["embed_check_no_interior"] = [
        "embed-check", "--gadget", "inputs/no_interior.json", "--max-size", "2"
    ]
    # the length-2 path glued by its ends crosses copies: the sweeps fail at
    # labeled digraph 5 (irreflexive) and 3 (no-isolated); the edge passes
    for regime in ("irreflexive", "no-isolated"):
        cases[f"strong_replacement_p2_{regime}"] = [
            "strong-replacement", "--graph", "inputs/p2.json", "--a", "v0", "--b", "v2",
            "--max-size", "3", "--regime", regime,
        ]
    cases["strong_replacement_p1_irreflexive"] = [
        "strong-replacement", "--graph", "inputs/p1.json", "--a", "v0", "--b", "v1", "--max-size", "3"
    ]
    # the edge's ends are adjacent, so a loop digraph's product would need a
    # loop: the no-isolated sweep refuses it before checking any digraph
    cases["strong_replacement_p1_no-isolated"] = [
        "strong-replacement", "--graph", "inputs/p1.json", "--a", "v0", "--b", "v1", "--max-size", "3",
        "--regime", "no-isolated",
    ]
    for name in CLASSIFY_GRAPHS:
        cases[f"classify_{name}"] = ["classify", f"inputs/{name}.json"]
    for name in RETRACT_SLICES:
        cases[f"retract_{name}"] = ["retract", f"inputs/{name}.json"]
    cases["dichotomy_p3"] = ["dichotomy", "inputs/p3.json", "--max-carrier", "3", "--samples", "50"]
    cases["dichotomy_p3_p1"] = ["dichotomy", "inputs/p3_p1.json", "--max-carrier", "3", "--samples", "50"]
    cases["homs_count_p2__c4"] = ["homs", "inputs/p2.json", "inputs/c4.json", "--mode", "count"]
    cases["homs_count_c3_gadget__c3_two_cycle"] = [
        "homs", "inputs/c3_gadget.json", "inputs/c3_two_cycle.json", "--mode", "count"
    ]
    cases["homs_exists_c5__c3"] = ["homs", "inputs/c5.json", "inputs/c3.json", "--mode", "exists"]
    cases["homs_exists_c3__c4"] = ["homs", "inputs/c3.json", "inputs/c4.json", "--mode", "exists"]
    cases["homs_list_p2__c4_max3"] = [
        "homs", "inputs/p2.json", "inputs/c4.json", "--mode", "list", "--max-solutions", "3"
    ]
    cases["homs_count_p3__c5_max3"] = [
        "homs", "inputs/p3.json", "inputs/c5.json", "--max-solutions", "3"
    ]
    cases["enumerate_digraphs_2_canonical"] = ["enumerate-digraphs", "--size", "2", "--canonical"]
    cases["enumerate_digraphs_3_canonical"] = ["enumerate-digraphs", "--size", "3", "--canonical"]
    cases["enumerate_digraphs_3_canonical_all"] = [
        "enumerate-digraphs", "--size", "3", "--canonical", "--all"
    ]
    for g, name in ARROW_CASES:
        gadget = g if g in BUILTIN_GADGET_NAMES else f"inputs/{g}.json"
        label = f"{g}_{name.removeprefix('digraph_')}"
        argv = ["arrow", f"inputs/{name}.json", "--gadget", gadget]
        cases[f"arrow_{label}"] = argv
        cases[f"arrow_{label}_edgelist"] = argv + ["--format", "edgelist"]
        for k, (u, v) in enumerate(digraphs[name].arcs):
            cases[f"phi_{label}_{k}"] = ["phi", f"inputs/{name}.json", "--gadget", gadget, "--arc", u, v]
    cases["arrow_C3_clash"] = ["arrow", "inputs/digraph_clash.json", "--gadget", "C3"]
    cases["phi_C3_clash"] = ["phi", "inputs/digraph_clash.json", "--gadget", "C3", "--arc", "a", "b,c"]
    cases["phi_C3_two_cycle_not_an_arc"] = [
        "phi", "inputs/digraph_two_cycle.json", "--gadget", "C3", "--arc", "u", "u"
    ]
    for name in CLASSIFY_GRAPHS:
        cases[f"cone_classify_{name}"] = ["cone-classify", f"inputs/{name}.json"]
    return cases


def run_case(argv: list[str], root: Path) -> tuple[int, str]:
    """Run one CLI command with input paths resolved under ``root``."""
    resolved = [str(root / a) if a.startswith("inputs/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


def write_corpus(root: Path = HERE) -> int:
    docs = _documents()
    digraphs = _digraph_documents()
    (root / "inputs").mkdir(exist_ok=True)
    (root / "expected").mkdir(exist_ok=True)
    files = {**docs, **_gadget_documents(), **{name: D.to_dict() for name, D in digraphs.items()}}
    for name, doc in files.items():
        (root / "inputs" / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    cases = _cases(docs, digraphs)
    manifest = {}
    for name, argv in cases.items():
        code, out = run_case(argv, root)
        (root / "expected" / f"{name}.json").write_text(out, encoding="utf-8")
        manifest[name] = {"argv": argv, "exit": code}
    (root / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return len(manifest)


if __name__ == "__main__":
    print(f"{write_corpus()} cases written", file=sys.stderr)
