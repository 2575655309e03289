"""The benchmark's seeded workloads and their engine-independent oracles.

Each workload is a list of ``Call`` records: one public slicecat function,
its arguments, and an expectation that was worked out without the search
engine under test (brute force over all vertex maps, walk counts, or facts
that hold by construction).  A call is correct when ``check`` accepts its
output; ``check`` returns the number of checked units the call covered.

Exhaustive parts of a workload do not depend on the seed; the seeded parts
are stratified by size so that different seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable

import slicecat as sc

GADGETS = ("C3", "C4", "P4", "Y")


class Mismatch(Exception):
    """An output disagrees with its oracle."""


@dataclass
class Call:
    """One timed public call and the oracle for its output.

    ``fn`` names an attribute of the ``slicecat`` package; it is looked up at
    call time so that a traced and an untraced pass call through the same
    bindings the library itself uses.
    """

    kind: str
    fn: str
    args: tuple
    kwargs: dict
    check: Callable[[Any, Any, "Call"], int]
    source: Any = None  # input the oracle needs but the call does not get
    expected: Any = None


@dataclass
class Workload:
    name: str
    unit: str
    build: Callable[[random.Random], list[Call]]
    expect: Callable[[Call], Any]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _require_fields(got: dict, expected: dict) -> None:
    for key, want in expected.items():
        _require(got[key] == want, f"{key} is {got[key]!r}, expected {want!r}")


def _seeded_digraph(rng: random.Random, n: int, m: int) -> sc.Digraph:
    """A random digraph on v0..v(n-1) with m arcs and no isolated vertex."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    while True:
        arcs = rng.sample(cells, m)
        if len({v for arc in arcs for v in arc}) == n:
            return sc.Digraph(
                [f"v{i}" for i in range(n)], [(f"v{i}", f"v{j}") for i, j in arcs]
            )


# ---------------------------------------------------------------------------
# brute-force oracles (no slicecat search code)


def _digraph_endo_aut(D: sc.Digraph) -> tuple[int, int]:
    """|End(D)| and |Aut(D)| by trying all n^n vertex maps."""
    vs = D.vertices
    arcs = [(vs.index(u), vs.index(v)) for u, v in D.arcs]
    arc_set = set(arcs)
    endo = aut = 0
    for img in product(range(len(vs)), repeat=len(vs)):
        if all((img[u], img[v]) in arc_set for u, v in arcs):
            endo += 1
            aut += len(set(img)) == len(vs)
    return endo, aut


def _path_walk_count(n: int) -> int:
    """Sum of the entries of A^n for the path with n edges: its endomorphisms."""
    walks = [1] * (n + 1)
    for _ in range(n):
        walks = [
            (walks[i - 1] if i else 0) + (walks[i + 1] if i < n else 0)
            for i in range(n + 1)
        ]
    return sum(walks)


def _endo_verdict(endo: int, aut: int) -> str:
    if endo == 1:
        return "rigid"
    return "proper-endomorphism" if endo > aut else "automorphisms-only"


def _slice_dichotomy_verdict(X: sc.SliceObject) -> str:
    """Rigid, proper or automorphisms-only, over all colour-preserving maps."""
    vs = X.carrier.vertices
    color = dict(X.structure_map.mapping)
    fibers: dict[str, list[str]] = {}
    for v in vs:
        fibers.setdefault(color[v], []).append(v)
    edges = {frozenset(e) for e in X.carrier.edges}
    endo = 0
    for img in product(*(fibers[color[v]] for v in vs)):
        m = dict(zip(vs, img))
        if all(frozenset((m[u], m[v])) in edges for u, v in X.carrier.edges):
            if len(set(img)) < len(vs):
                return "proper-endomorphism"
            endo += 1
    return "rigid" if endo == 1 else "automorphisms-only"


def _check_endomorphism(
    mapping: dict, carrier: sc.Graph, color: dict | None, what: str
) -> None:
    """A total, edge-preserving, colour-preserving, non-bijective self-map."""
    _require(set(mapping) == set(carrier.vertices), f"{what}: map is not total")
    edges = {frozenset(e) for e in carrier.edges}
    _require(
        all(frozenset((mapping[u], mapping[v])) in edges for u, v in carrier.edges),
        f"{what}: map does not preserve edges",
    )
    if color is not None:
        _require(
            all(color[mapping[v]] == color[v] for v in carrier.vertices),
            f"{what}: map does not preserve colours",
        )
    _require(len(set(mapping.values())) < len(mapping), f"{what}: map is bijective")


# ---------------------------------------------------------------------------
# verify: the gadget property on every small digraph


def _build_verify(rng: random.Random) -> list[Call]:
    digraphs = [D for n in (1, 2, 3) for D in sc.enumerate_digraphs(n, True)]
    if len(digraphs) != 483:
        raise RuntimeError(f"expected 483 digraphs on <= 3 vertices, got {len(digraphs)}")
    # two 4-vertex digraphs per arc count 4..16
    digraphs += [_seeded_digraph(rng, 4, m) for m in range(4, 17) for _ in range(2)]
    gadgets = [sc.builtin_gadget(name) for name in GADGETS]
    return [
        Call(f"{name}/n{D.vertex_count}", "verify_gadget", (g, D), {}, _check_verify)
        for name, g in zip(GADGETS, gadgets)
        for D in digraphs
    ]


def _expect_verify(call: Call) -> dict:
    _, D = call.args
    return {"verdict": "pass", "hom_count": D.arc_count, "digraphs_checked": 1}


def _check_verify(report, expected: dict, call: Call) -> int:
    _require_fields(report.to_dict(), expected)
    return report.digraphs_checked


# ---------------------------------------------------------------------------
# embed: hom-set bijections between products of sampled digraph pairs

EMBED_PAIRS = 4
EMBED_SEEDS_PER_GADGET = 50


def _build_embed(rng: random.Random) -> list[Call]:
    gadgets = [sc.builtin_gadget(name) for name in GADGETS]
    seeds = [rng.randrange(2**31) for _ in range(EMBED_SEEDS_PER_GADGET)]
    return [
        Call(
            name,
            "full_embedding_spot_check",
            (g, 3),
            {"pair_count": EMBED_PAIRS, "seed": s},
            _check_embed,
        )
        for name, g in zip(GADGETS, gadgets)
        for s in seeds
    ]


def _expect_embed(call: Call) -> dict:
    return {"verdict": "pass", "max_pairs": call.kwargs["pair_count"]}


def _check_embed(report, expected: dict, call: Call) -> int:
    _require_fields(report.to_dict(), {"verdict": expected["verdict"]})
    _require(
        report.digraph_homs == report.slice_homs,
        f"{report.digraph_homs} digraph homs vs {report.slice_homs} slice homs",
    )
    _require(
        1 <= report.pairs_checked <= expected["max_pairs"],
        f"{report.pairs_checked} pairs checked",
    )
    return report.pairs_checked


# ---------------------------------------------------------------------------
# endos: endomorphism monoids of products, rigid relabelings, and paths

PRODUCTS_PER_STRATUM = 2
PATH_LENGTHS = (10, 11, 12)
# gk(2) as built plus one relabeling drawn from this fixed generator.  A
# relabeling's cost depends on how its names order the search (0.4 s to
# 8.8 s per call over twenty draws on a 2-vCPU Xeon VM), so a draw from
# --seed would make the endos figures depend on the seed more than on the
# code.
GK_RELABELING_SEED = "endos:gk2"


def _product_strata() -> list[tuple[str, int]]:
    """(gadget, arcs) of each seeded stratum of 4-vertex products.

    P4 stops at 7 arcs: from 8 arcs on its cost varies most between
    digraphs, and from 10 arcs on one product takes seconds.
    """
    return [
        (name, m) for name in GADGETS for m in range(4, (7 if name == "P4" else 10) + 1)
    ]


def _build_endos(rng: random.Random) -> list[Call]:
    gadgets = {name: sc.builtin_gadget(name) for name in GADGETS}
    # every 3-vertex digraph up to isomorphism, then the seeded 4-vertex ones
    triads = list(sc.enumerate_digraphs(3, True, canonical=True))
    digraphs = [(name, D) for name in GADGETS for D in triads]
    digraphs += [
        (name, _seeded_digraph(rng, 4, m))
        for name, m in _product_strata()
        for _ in range(PRODUCTS_PER_STRATUM)
    ]
    calls = [
        Call(f"product/{name}", "classify_endomorphisms", (sc.arrow_slice(D, gadgets[name]),), {}, _check_endos, D)
        for name, D in digraphs
    ]
    gk = sc.build_gk(2).graph
    names = list(gk.vertices)
    shuffled = names[:]
    random.Random(GK_RELABELING_SEED).shuffle(shuffled)
    for G in (gk, gk.relabel(dict(zip(names, shuffled)))):
        calls.append(Call("gk2", "classify_endomorphisms", (G,), {}, _check_endos))
    for n in PATH_LENGTHS:
        calls.append(Call(f"path{n}", "classify_endomorphisms", (sc.build_path(n),), {}, _check_endos))
    return calls


def _expect_endos(call: Call) -> dict:
    if call.kind.startswith("product/"):
        endo, aut = _digraph_endo_aut(call.source)
    elif call.kind == "gk2":
        endo, aut = 1, 1
    else:
        endo, aut = _path_walk_count(call.args[0].edge_count), 2
    return {"verdict": _endo_verdict(endo, aut), "endo_count": endo, "auto_count": aut}


def _check_endos(report, expected: dict, call: Call) -> int:
    _require_fields(report.to_dict(), expected)
    X = call.args[0]
    if expected["verdict"] == "proper-endomorphism":
        _require(report.witness is not None, "no witness for a proper endomorphism")
        carrier = X if isinstance(X, sc.Graph) else X.carrier
        color = None if isinstance(X, sc.Graph) else dict(X.structure_map.mapping)
        _check_endomorphism(dict(report.witness.mapping), carrier, color, "witness")
    return 1


# ---------------------------------------------------------------------------
# dichotomy: every small connected slice over P3, plus disconnected samples

DICHOTOMY_SAMPLES = 1000


def _build_dichotomy(rng: random.Random) -> list[Call]:
    P3 = sc.build_path(3)
    objects = [
        sc.SliceObject(G, P3, h)
        for n in range(1, 6)
        for G in sc.enumerate_graphs(n)
        if G.is_connected()
        for h in sc.enumerate_homs(G, P3)
    ]
    if len(objects) != 5416:
        raise RuntimeError(f"expected 5416 connected slice objects, got {len(objects)}")
    base = sc.disjoint_union([P3, P3])
    objects += [sc.random_slice_object(base, rng) for _ in range(DICHOTOMY_SAMPLES)]
    return [
        Call("P3" if X.base == P3 else "P3+P3", "classify_slice_object", (X,), {}, _check_dichotomy)
        for X in objects
    ]


def _expect_dichotomy(call: Call) -> str:
    return _slice_dichotomy_verdict(call.args[0])


def _check_dichotomy(result, expected: str, call: Call) -> int:
    X = call.args[0]
    _require(result.verdict.value == expected, f"verdict {result.verdict.value!r}, expected {expected!r}")
    if expected == "rigid":
        _require(result.witness is None, "rigid verdict carries a witness")
    else:
        w = result.witness
        _require(w is not None, "no witness for a proper endomorphism")
        _require(w.source == X and w.target == X, "witness is not an endomorphism of X")
        color = dict(X.structure_map.mapping)
        _check_endomorphism(dict(w.map.mapping), X.carrier, color, "witness")
    return 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", "digraphs", _build_verify, _expect_verify),
        Workload("embed", "pairs", _build_embed, _expect_embed),
        Workload("endos", "objects", _build_endos, _expect_endos),
        Workload("dichotomy", "instances", _build_dichotomy, _expect_dichotomy),
    )
}
