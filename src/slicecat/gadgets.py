"""Two-pointed verified gadgets and bounded checks of their defining property.

A gadget is a slice object (H, f) over a base G together with two
non-adjacent carrier vertices a, b that f identifies.  The property that
makes a gadget useful is that, for every digraph D without isolated points,
the only slice morphisms from (H, f) into the glued product over D are the
per-arc copy maps.  That statement quantifies over all digraphs; the
verifiers here check it exhaustively up to a vertex cap and report the cap,
they never claim the unbounded statement.  They run in one process and
search once per isomorphism class, but count labeled digraphs.

Four classic gadgets are built in, one per minimal universal base: a path of
length 3 over the triangle, length 4 over the 4-cycle, length 12 over the
path of length 4, and length 6 over the 3-leaf star.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from string import ascii_lowercase
from typing import Optional

from . import arrow
from .core import (
    Digraph,
    Graph,
    Morphism,
    SliceMorphism,
    SliceObject,
    Vertex,
    build_cycle,
    build_path,
    build_star,
    check_int,
    document_id,
)
from .homsearch import class_sweep, digraph_from_mask, hom_leaves, labeled_digraph_classes, loop_mask

# the four minimal universal bases, over v0, v1, ...: a base graph is universal
# iff it contains one of them
MINIMAL_BASES = {"C3": build_cycle(3), "C4": build_cycle(4), "P4": build_path(4), "Y": build_star(3)}

# per built-in gadget, keyed by its base graph: the ids its base gives v0, v1,
# ... of the minimal base (the embedding classify_slice_base reports for that
# base) and the colours along the carrier path a, b, c, ...
_BUILTIN_GADGETS = {
    "C3": ("012", "0120"),
    "C4": ("0123", "01230"),
    "P4": ("01234", "0121234323210"),
    "Y": ("1023", "0121310"),
}
BUILTIN_GADGET_NAMES = tuple(_BUILTIN_GADGETS)


@dataclass(frozen=True, init=False)
class Gadget:
    """A slice object with two distinguished, identified, non-adjacent vertices."""

    slice: SliceObject
    a: Vertex
    b: Vertex

    def __init__(self, slice: SliceObject, a: Vertex, b: Vertex):
        if a == b:
            raise ValueError("the distinguished vertices must be distinct")
        for x in (a, b):
            if not slice.carrier.has_vertex(x):
                raise ValueError(f"distinguished vertex {x!r} is not a carrier vertex")
        if slice.color(a) != slice.color(b):
            raise ValueError(
                f"structure map must identify the distinguished vertices: "
                f"f({a!r})={slice.color(a)!r} but f({b!r})={slice.color(b)!r}"
            )
        if slice.carrier.has_edge(a, b):
            raise ValueError("the distinguished vertices must not be adjacent")
        object.__setattr__(self, "slice", slice)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def carrier(self) -> Graph:
        return self.slice.carrier

    @property
    def base(self) -> Graph:
        return self.slice.base

    def to_dict(self) -> dict:
        data = self.slice.to_dict()
        data["a"] = self.a
        data["b"] = self.b
        return data

    @classmethod
    def from_dict(cls, data) -> "Gadget":
        if not isinstance(data, dict) or "a" not in data or "b" not in data:
            raise ValueError("gadget document requires 'a' and 'b'")
        return cls(SliceObject.from_dict(data), document_id(data["a"], "a"), document_id(data["b"], "b"))


def builtin_gadget(base_name: str) -> Gadget:
    """One of the four verified gadgets, keyed by its base graph."""
    if base_name.upper() not in _BUILTIN_GADGETS:
        raise ValueError(f"unknown built-in gadget {base_name!r}; have {BUILTIN_GADGET_NAMES}")
    ids, colors = _BUILTIN_GADGETS[base_name.upper()]
    base = MINIMAL_BASES[base_name.upper()].relabel({f"v{i}": w for i, w in enumerate(ids)})
    letters = list(ascii_lowercase[: len(colors)])
    carrier = Graph(letters, zip(letters, letters[1:]))
    return Gadget(SliceObject(carrier, base, dict(zip(letters, colors))), letters[0], letters[-1])


@dataclass(frozen=True)
class ReplacementGadget:
    """The odd-cycle replacement graph family member for one k."""

    graph: Graph
    a: Vertex
    b: Vertex
    to_odd_cycle: Morphism


# The 13 anchor vertices of the replacement graph, their images in the odd
# cycle C_{2k-1} (written as residues; "k" marks the two distinguished
# vertices), the single edges, and the pairs joined by paths of length k.
_GK_LABELS = {
    "A": 0, "B": None, "C": 1, "D": 1, "E": 1, "F": 0, "H": 0,
    "I": 1, "K": None, "L": 0, "M": None, "N": 1, "P": 0,
}
_GK_SOLID = [
    ("A", "E"), ("E", "F"), ("F", "D"), ("H", "D"), ("C", "H"),
    ("A", "I"), ("L", "D"), ("N", "P"), ("P", "C"),
]
_GK_DOTTED = [("A", "B"), ("B", "C"), ("I", "K"), ("K", "L"), ("L", "M"), ("M", "N")]


def build_gk(k: int) -> ReplacementGadget:
    """The rigid replacement graph with a homomorphism onto C_{2k-1}.

    Thirteen anchor vertices carry the single edges; six anchor pairs are
    joined by paths of length k instead of an edge.  The returned morphism
    maps the graph onto the odd cycle with both distinguished vertices (K and
    M, exposed as a and b) landing on residue k.
    """
    check_int(k, "k", 2)  # the replacement family starts at k = 2
    m = 2 * k - 1
    cycle = build_cycle(m)
    labels = {v: (k if lab is None else lab) for v, lab in _GK_LABELS.items()}
    vertices = list(_GK_LABELS)
    edges = list(_GK_SOLID)
    for x, y in _GK_DOTTED:
        lx, ly = labels[x], labels[y]
        if (lx + k) % m == ly:
            direction = 1
        elif (lx - k) % m == ly:
            direction = -1
        else:
            raise ValueError(
                f"no walk of length {k} from residue {lx} to {ly} in a {m}-cycle"
            )
        chain = [x]
        for step in range(1, k):
            w = f"{x}-{y}-{step}"
            vertices.append(w)
            labels[w] = (lx + direction * step) % m
            chain.append(w)
        chain.append(y)
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    graph = Graph(vertices, edges)
    hom = Morphism(graph, cycle, {v: f"v{lab}" for v, lab in labels.items()})
    return ReplacementGadget(graph=graph, a="K", b="M", to_odd_cycle=hom)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class GadgetCounterexample:
    """What broke on a digraph: a slice morphism into its product that is no
    copy map, or a copy map the search did not find."""

    digraph: Digraph
    kind: str  # "extra-hom" | "missing-copy-map"
    mapping: dict[Vertex, Vertex]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "digraph": self.digraph.to_dict(),
            "map": dict(sorted(self.mapping.items())),
            "reason": None,  # kept, so the JSON of a failing verification keeps its keys
        }


@dataclass(frozen=True)
class GadgetReport:
    digraphs_checked: int
    max_size: int
    verdict: bool
    counterexample: Optional[GadgetCounterexample] = None
    hom_count: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "digraphs_checked": self.digraphs_checked,
            "max_size": self.max_size,
            "verdict": "pass" if self.verdict else "fail",
            "hom_count": self.hom_count,
            "counterexample": self.counterexample.to_dict() if self.counterexample else None,
        }


def verify_gadget(gadget: Gadget, D: Digraph) -> GadgetReport:
    """Check one digraph: the slice morphisms into the product are exactly
    the per-arc copy maps."""
    isolated = D.isolated_vertices()
    if isolated:
        raise ValueError(f"digraph has isolated vertices: {list(isolated)}")
    res = arrow.arrow_graph(D, gadget.carrier, gadget.a, gadget.b)
    product = arrow.product_slice(res, gadget)
    # the copy maps in the engine's raw form: singleton bitsets over the
    # product's vertices, in the engine's variable order
    variables, leaves = hom_leaves(gadget.slice, product)
    bit = {w: 1 << i for i, w in enumerate(res.product.vertices)}
    copies = sorted([bit[copy[x]] for x in variables] for copy in res.copies.values())
    found = sorted(leaves)
    if found == copies:
        return GadgetReport(1, D.vertex_count, True, hom_count=len(found))
    # on failure both lists are decoded to key-sorted (vertex, image) pairs,
    # and only the reported map is validated
    vertices = res.product.vertices

    def decoded(raw: list[list[int]]) -> set[tuple[tuple[Vertex, Vertex], ...]]:
        return {tuple(sorted(zip(variables, [vertices[d.bit_length() - 1] for d in leaf]))) for leaf in raw}

    maps, expected = decoded(found), decoded(copies)
    extra = maps - expected
    if extra:
        mapping = dict(min(extra))
        SliceMorphism(gadget.slice, product, mapping)
        kind = "extra-hom"
    else:
        mapping = dict(min(expected - maps))
        # a copy map that is no slice morphism is what this kind reports
        Morphism(gadget.carrier, res.product, mapping)
        kind = "missing-copy-map"
    ce = GadgetCounterexample(digraph=D, kind=kind, mapping=mapping)
    return GadgetReport(1, D.vertex_count, False, ce, hom_count=len(found))


def verify_gadget_exhaustive(gadget: Gadget, max_n: int, *, progress=None) -> GadgetReport:
    """Sweep every labeled digraph without isolated points on 1..max_n vertices.

    Each isomorphism class is checked once, at the first of its digraphs the
    sweep reaches, and its hom count is added up per labeled digraph
    (``class_sweep``).  Stops at the first counterexample; ``digraphs_checked``
    counts the digraphs examined up to and including it.
    """

    def check(key):
        report = verify_gadget(gadget, digraph_from_mask(*key))
        return (1, report.hom_count or 0), None if report.verdict else report

    (checked, total_homs), failure = class_sweep(labeled_digraph_classes(max_n, True), check, (0, 0), progress, 100)
    if failure is not None:
        return replace(failure, digraphs_checked=checked, max_size=max_n)
    return GadgetReport(checked, max_n, True, hom_count=total_homs)


# ---------------------------------------------------------------------------
# strong replacement


@dataclass(frozen=True)
class ReplacementReport:
    """Whether every self-map into a product lands inside one gadget copy."""

    holds: bool
    homs_checked: int
    witness: Optional[Morphism] = None  # a crossing homomorphism on failure

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "homs_checked": self.homs_checked,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def check_strong_replacement(
    H: Graph,
    a: Vertex,
    b: Vertex,
    D: Digraph,
    *,
    regime: str = "irreflexive",
) -> ReplacementReport:
    """Check, for one digraph D, that every plain homomorphism H -> product
    has its image inside a single copy of H.

    The default regime rejects digraphs with loops; pass
    ``regime="no-isolated"`` to allow loops but reject isolated vertices
    instead (the alternative quantifier used by the embedding results).
    The solutions are read raw; only a crossing witness is validated.
    """
    if regime == "irreflexive":
        if D.has_loop():
            raise ValueError("strong replacement is quantified over loop-free digraphs")
    elif regime == "no-isolated":
        isolated = D.isolated_vertices()
        if isolated:
            raise ValueError(f"digraph has isolated vertices: {list(isolated)}")
    else:
        raise ValueError(f"unknown regime {regime!r}")
    res = arrow.arrow_graph(D, H, a, b)
    product = res.product.vertices
    # images and copies as bitsets over the product's vertices: distinct
    # single bits sum to their union
    bit = {w: 1 << i for i, w in enumerate(product)}
    copies = [sum({bit[w] for w in copy.values()}) for copy in res.copies.values()]
    variables, leaves = hom_leaves(H, res.product)
    checked = 0
    for leaf in leaves:
        checked += 1
        image = sum(set(leaf))
        if not any(image | copy == copy for copy in copies):
            witness = Morphism(H, res.product, {v: product[d.bit_length() - 1] for v, d in zip(variables, leaf)})
            return ReplacementReport(False, checked, witness=witness)
    return ReplacementReport(True, checked)


def check_strong_replacement_exhaustive(
    H: Graph, a: Vertex, b: Vertex, max_n: int, *, regime: str = "irreflexive"
) -> tuple[int, ReplacementReport, Optional[Digraph]]:
    """Sweep ``check_strong_replacement`` over every labeled digraph of the
    regime on 1..max_n vertices: loop-free ones, or ones without isolated
    vertices.

    Each isomorphism class is checked once (``class_sweep``).  Returns the
    number of labeled digraphs checked, up to and including the first
    failing one, the report and the failing digraph (None on a pass, where
    ``homs_checked`` counts over every labeled digraph).  Under
    ``no-isolated`` adjacent distinguished vertices are refused up front:
    a loop digraph's product would need a loop.
    """
    no_isolated = regime == "no-isolated"
    if no_isolated and H.has_edge(a, b):
        raise ValueError(
            f"distinguished vertices {a!r} and {b!r} are adjacent, so under regime {regime!r} "
            "the product of a loop digraph would have a loop"
        )
    keys = labeled_digraph_classes(max_n, no_isolated)
    if not no_isolated:  # a loop is kept by relabeling, so the least mask tells
        keys = ((n, least) for n, least in keys if not least & loop_mask(n))

    def check(key):
        D = digraph_from_mask(*key)
        report = check_strong_replacement(H, a, b, D, regime=regime)
        return (1, report.homs_checked), None if report.holds else (report, D)

    (checked, total_homs), failure = class_sweep(keys, check, (0, 0))
    report, D = failure or (ReplacementReport(True, total_homs), None)
    return checked, report, D
