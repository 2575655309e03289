"""Gluing a two-pointed gadget along every arc of a digraph.

Given a gadget graph H with distinguished vertices a, b and a digraph D, the
product graph has one vertex per D-vertex plus, for every arc (u, v), a fresh
copy of the gadget interior H minus {a, b}.  The copy map of arc (u, v) sends
a to u, b to v, and every interior vertex w to the tagged vertex "(u,v)::w".
The product's edges are exactly the copy-map images of H's edges.

When the gadget carries a structure map f with f(a) = f(b), the product
inherits one: D-vertices go to f(a) and interior vertices to f(w).

``ArrowResult`` builds the product in one pass over the arcs and validates
only what it builds from outside input: the distinguished vertices, every
product id against all earlier ones, and the product ``Graph`` itself.  The
copy maps it stores are not validated there.  ``ArrowResult.copies`` is the
one reader of a copy map.  ``phi`` validates one as a ``Morphism``;
``product_structure_map`` validates the inherited map as a ``Morphism``, and
``arrow_morphism`` validates its result as a ``SliceMorphism``.  The
verifiers read the stored copy maps unvalidated and validate only the
counterexamples they return.

``product_rows`` lays the same product out unnamed, as the adjacency rows
and colour fibers of a search host indexed by arithmetic, for the embedding
checks, which never return a product vertex.  It builds no id, ``Graph`` or
structure map and validates nothing; its docstring says why no check is lost.
What depends on the gadget alone, its ``ProductLayout``, is built once per
sweep by ``product_layout``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .core import Digraph, Graph, Morphism, SliceMorphism, SliceObject, Vertex

if TYPE_CHECKING:  # circular only at type-check time
    from .gadgets import Gadget

Arc = tuple[Vertex, Vertex]


@dataclass(frozen=True, init=False)
class ArrowResult:
    """The glued product together with its vertex bookkeeping."""

    digraph: Digraph
    gadget_graph: Graph
    a: Vertex
    b: Vertex
    product: Graph

    def __init__(self, digraph: Digraph, gadget_graph: Graph, a: Vertex, b: Vertex):
        if a == b:
            raise ValueError("the two distinguished gadget vertices must differ")
        for x in (a, b):
            if not gadget_graph.has_vertex(x):
                raise ValueError(f"distinguished vertex {x!r} is not in the gadget graph")
        interior = [w for w in gadget_graph.vertices if w not in (a, b)]
        gadget_edges = gadget_graph.edges
        # the id format is not injective (a comma or "::" inside an id can
        # shift the split), so every id is checked against all earlier ones
        used = set(digraph.vertices)
        vertices = list(digraph.vertices)
        copies: dict[Arc, dict[Vertex, Vertex]] = {}
        edges = []
        for arc in digraph.arcs:
            u, v = arc
            prefix = f"({u},{v})::"
            copy = {}
            for w in interior:
                pid = prefix + w
                if pid in used:
                    raise ValueError(f"interior id {pid!r} collides with another product vertex id")
                used.add(pid)
                copy[w] = pid
            vertices.extend(copy.values())
            copy[a] = u
            copy[b] = v
            copies[arc] = copy
            edges.extend([(copy[s], copy[t]) for s, t in gadget_edges])
        # only a and b can share an image, on a loop arc; this is checked after
        # every id, so an id collision anywhere is reported before a loop
        if gadget_graph.has_edge(a, b) and digraph.has_loop():
            arc = next(arc for arc in digraph.arcs if arc[0] == arc[1])
            s, t = sorted((a, b))
            raise ValueError(
                f"loop arc {arc!r} with gadget edge ({s!r}, {t!r}) between the "
                "distinguished vertices would create a loop; the product leaves "
                "simple graphs"
            )
        object.__setattr__(self, "digraph", digraph)
        object.__setattr__(self, "gadget_graph", gadget_graph)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_copies", copies)
        object.__setattr__(self, "product", Graph(vertices, edges))

    @property
    def copies(self) -> Mapping[Arc, Mapping[Vertex, Vertex]]:
        """Every arc's copy map, in arc order: a to u, b to v and every
        interior vertex w to "(u,v)::w".  The maps are the stored ones, shared
        by every reader: never change them."""
        return MappingProxyType(self._copies)  # type: ignore[attr-defined]


def arrow_graph(D: Digraph, H: Graph, a: Vertex, b: Vertex) -> ArrowResult:
    """Build the product of gluing (H, a, b) along every arc of D."""
    return ArrowResult(D, H, a, b)


def phi(res: ArrowResult, arc: Arc) -> Morphism:
    """The copy map of one arc, as a validated morphism H -> product.

    For a loop arc (u, u) the map identifies a and b at u; on every other arc
    it is injective.
    """
    arc = (arc[0], arc[1])
    if not res.digraph.has_arc(*arc):
        raise ValueError(f"{arc!r} is not an arc of the digraph")
    return Morphism(res.gadget_graph, res.product, res.copies[arc])


def product_structure_map(res: ArrowResult, gadget: "Gadget") -> Morphism:
    """The inherited structure map: base vertices to f(a), interiors to f(w)."""
    if res.gadget_graph != gadget.carrier or (res.a, res.b) != (gadget.a, gadget.b):
        raise ValueError("arrow result was built from a different gadget")
    f = gadget.slice.structure_map.as_dict()
    mapping = dict.fromkeys(res.digraph.vertices, f[gadget.a])
    for copy in res.copies.values():
        for w, pid in copy.items():  # a and b rewrite their arc's ends with f(a) = f(b)
            mapping[pid] = f[w]
    return Morphism(res.product, gadget.base, mapping)


def product_slice(res: ArrowResult, gadget: "Gadget") -> SliceObject:
    """The product of ``res`` as a slice object over the gadget's base."""
    return SliceObject(res.product, gadget.base, product_structure_map(res, gadget))


def arrow_slice(D: Digraph, gadget: "Gadget") -> SliceObject:
    """The product as a slice object over the gadget's base."""
    return product_slice(arrow_graph(D, gadget.carrier, gadget.a, gadget.b), gadget)


class ProductLayout(NamedTuple):
    """Where ``product_rows`` puts a gadget's copy, laid out once for a
    search pattern's variable order.  Gadget vertex a is slot 0, b slot 1
    and the s-th of the m interior vertices, in carrier order, slot 2 + s.
    The copy on the k-th arc (u, v) of a digraph on n vertices puts slot 0
    at index u, slot 1 at v and slot 2 + s at n + k*m + s."""

    slots: list[int]  # per pattern variable, its gadget vertex's slot
    edges: list[tuple[int, int]]  # the gadget's edges, as pairs of slots
    fibers: dict[Vertex, int]  # per colour, the bits s of the interior slots 2 + s over it
    color: Vertex  # f(a) = f(b), the colour of the digraph's vertices
    interior: int  # m


def product_layout(gadget: "Gadget", variables: Sequence[Vertex]) -> ProductLayout:
    """The ``ProductLayout`` of ``gadget`` for a search pattern whose
    variables are the gadget's vertices in the order ``variables``."""
    H, a, b = gadget.carrier, gadget.a, gadget.b
    f = gadget.slice.structure_map.as_dict()
    interior = [w for w in H.vertices if w not in (a, b)]
    slot = {a: 0, b: 1} | {w: 2 + s for s, w in enumerate(interior)}
    fibers: dict[Vertex, int] = {}
    for s, w in enumerate(interior):
        fibers[f[w]] = fibers.get(f[w], 0) | 1 << s
    edges = [(slot[s], slot[t]) for s, t in H.edges]
    return ProductLayout([slot[x] for x in variables], edges, fibers, f[a], len(interior))


def product_rows(
    n: int, arcs: Sequence[tuple[int, int]], layout: ProductLayout
) -> tuple[list[int], dict[Vertex, int], list[list[int]]]:
    """The product ``arrow_slice(D, gadget)`` unnamed, as a search host: its
    adjacency rows, its colour fibers and every arc's copy map as the raw
    leaf it is, from one pass over D's arcs.  D is given by its vertex count
    n and its ``arcs`` as pairs of vertex indices, in ``Digraph.arcs``
    order; the gadget by its ``layout``.

    D's i-th vertex is index i, and the copies sit where ``layout`` puts
    them.  Row i is the bitset of index i's neighbours, the copy images of
    every gadget edge; ``fibers[c]`` is the bitset of the indices over base
    vertex c: f(a) for D's vertices, f(w) for a copy of w.  The copy maps
    come in arc order, each as a raw leaf of the layout's pattern: per
    variable, the singleton bit of its image.

    Nothing is validated here, and no check of ``arrow_slice`` is lost:
    ``Gadget`` validated its structure map as a ``Morphism`` and refuses
    adjacent a and b, so no edge becomes a loop, not even on a loop arc;
    the caller vouches for the arcs, which are distinct index pairs below n
    when ``homsearch.mask_pairs`` decodes them from an arc mask; every copy
    vertex takes its gadget vertex's colour, so the inherited map is a
    homomorphism by construction; and indices are distinct by construction,
    so no id can collide.
    """
    slots, edges, m = layout.slots, layout.edges, layout.interior
    rows = [0] * (n + m * len(arcs))
    copies = []
    for k, (u, v) in enumerate(arcs):
        index = [u, v, *range(n + k * m, n + k * m + m)]
        for s, t in edges:
            i, j = index[s], index[t]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        copies.append([1 << index[s] for s in slots])
    # slot 2 of every copy, one bit every m: times the bits s of a colour's
    # interior slots it gives slot 2 + s of every copy, with no carry
    slot_two = sum(1 << (n + k * m) for k in range(len(arcs)))
    fibers = {c: slot_two * bits for c, bits in layout.fibers.items()}
    fibers[layout.color] = fibers.get(layout.color, 0) | (1 << n) - 1
    return rows, fibers, copies


def arrow_morphism(
    D1: Digraph,
    D2: Digraph,
    h: Mapping[Vertex, Vertex],
    gadget: "Gadget",
) -> SliceMorphism:
    """Extend a digraph homomorphism h: D1 -> D2 to the glued products.

    Base vertices follow h and the interior of arc (u, v) is carried onto the
    interior of (h(u), h(v)).  The result is validated as a slice morphism
    from arrow_slice(D1) to arrow_slice(D2).
    """
    extra = set(h) - set(D1.vertices)
    if extra:
        raise ValueError(f"map assigns vertices outside the domain: {sorted(extra, key=str)}")
    for v in D1.vertices:
        if v not in h:
            raise ValueError(f"map is not total: no image for vertex {v!r}")
        if h[v] not in D2.vertices:
            raise ValueError(f"image {h[v]!r} of {v!r} is not a codomain vertex")
    for u, v in D1.arcs:
        if not D2.has_arc(h[u], h[v]):
            raise ValueError(
                f"map is not a digraph homomorphism: arc ({u!r}, {v!r}) lands on "
                f"({h[u]!r}, {h[v]!r}), which is not an arc"
            )
    res1 = arrow_graph(D1, gadget.carrier, gadget.a, gadget.b)
    res2 = arrow_graph(D2, gadget.carrier, gadget.a, gadget.b)
    mapping: dict[Vertex, Vertex] = {u: h[u] for u in D1.vertices}
    for (u, v), copy in res1.copies.items():
        target = res2.copies[(h[u], h[v])]
        for w, pid in copy.items():  # a and b rewrite u and v with h(u) and h(v)
            mapping[pid] = target[w]
    return SliceMorphism(product_slice(res1, gadget), product_slice(res2, gadget), mapping)
