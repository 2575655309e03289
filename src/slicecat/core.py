"""Finite graphs, digraphs, slice objects, and validated homomorphisms.

Conventions used throughout the package:

* Vertex identifiers are opaque strings; all iteration orders are
  lexicographic so that enumeration output is reproducible.
* ``P_n`` denotes the path with ``n`` edges and ``n + 1`` vertices
  (so ``build_path(3)`` has four vertices).  "Length" always counts edges.
* Undirected graphs are simple and loopless.  Digraphs are arbitrary binary
  relations: loops and antiparallel arc pairs are allowed.

All types are immutable after construction; no operation mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


Vertex = str
Edge = tuple[Vertex, Vertex]
Arc = tuple[Vertex, Vertex]


def _document(data: object, kind: str, keys: Sequence[str]) -> Mapping:
    """A parsed document, checked to be an object carrying ``keys``."""
    if not isinstance(data, Mapping) or any(k not in data for k in keys):
        raise ValueError(f"{kind} document requires " + " and ".join(repr(k) for k in keys))
    return data


def check_int(value: object, what: str, least: Optional[int] = None) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, and at least
    ``least`` when that is given.  The one check of every size, count, limit
    and seed a caller passes: a bool is an int only by accident, and a float
    would reach ``range``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")


def document_id(value: object, what: str) -> Vertex:
    """A vertex id read from a document: a string, or an integer taken as one."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{what} {value!r} is not a vertex id")
    return str(value)


def _document_ids(value: object, what: str, size: Optional[int] = None) -> list[Vertex]:
    if not isinstance(value, list) or size not in (None, len(value)):
        count = f"{size} " if size else ""
        raise ValueError(f"{what} must be a list of {count}vertex ids, got {value!r}")
    return [document_id(v, what) for v in value]


def _document_pairs(value: object, what: str) -> list[Sequence[Vertex]]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of vertex id pairs, got {value!r}")
    return [_document_ids(pair, f"{what} entry", 2) for pair in value]


def _parse_edgelist(text: str, kind: str) -> tuple[list[Vertex], list[Sequence[Vertex]]]:
    """Vertex ids and pairs of a text list: one id per isolated vertex, two per pair."""
    vertices: list[Vertex] = []
    pairs: list[Sequence[Vertex]] = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if len(parts) > 2:
            raise ValueError(f"{kind}-list line has {len(parts)} tokens: {raw!r}")
        vertices.extend(parts)
        if len(parts) == 2:
            pairs.append(parts)
    return vertices, pairs


def _ids(vertices: Iterable[Vertex]) -> tuple[Vertex, ...]:
    if isinstance(vertices, str):  # would give one id per character
        raise TypeError(f"vertices must be an iterable of ids, not the string {vertices!r}")
    return tuple(sorted({str(v) for v in vertices}))


def _format_edgelist(vertices: Sequence[Vertex], pairs: Sequence[Sequence[Vertex]]) -> str:
    """One pair per line, isolated vertices alone.  The parser splits at
    whitespace and cuts at ``#``, so ids that are empty or hold either are refused."""
    for v in vertices:
        if not v or "#" in v or any(c.isspace() for c in v):
            raise ValueError(f"vertex id {v!r} cannot be written as an edge list")
    used = {v for p in pairs for v in p}
    lines = [v for v in vertices if v not in used]
    lines += [f"{u} {v}" for u, v in pairs]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True, init=False)
class Graph:
    """A finite simple undirected graph.

    ``vertices`` is a lexicographically sorted tuple of ids and ``edges`` a
    sorted tuple of ``(min, max)`` pairs of distinct vertices.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]] = ()):
        vs = _ids(vertices)
        canonical: set[Edge] = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u == v:
                raise ValueError(f"loops are not allowed in an undirected graph: ({u!r}, {u!r})")
            canonical.add((u, v) if u < v else (v, u))
        es = sorted(canonical)
        # in sorted edge order each vertex meets its lesser neighbours (as the
        # second end) before its greater ones, each group ascending, so the
        # neighbour lists come out sorted
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
        for u, v in es:
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the vertex set")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "_adj", {v: tuple(ns) for v, ns in adj.items()})
        object.__setattr__(self, "_edge_set", frozenset(es))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._adj  # type: ignore[attr-defined]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        e = (u, v) if u < v else (v, u)
        return e in self._edge_set  # type: ignore[attr-defined]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self._adj[v]  # type: ignore[attr-defined]

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def components(self) -> tuple[tuple[Vertex, ...], ...]:
        """Connected components, each sorted, ordered by least vertex."""
        seen: set[Vertex] = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                x = stack.pop()
                for y in self.neighbors(x):
                    if y not in comp:
                        comp.add(y)
                        seen.add(y)
                        stack.append(y)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def relabel(self, mapping: Mapping[Vertex, Vertex]) -> "Graph":
        """Rename vertices through a mapping that is total and injective on
        them and names no other vertex."""
        extra = set(mapping) - set(self.vertices)
        if extra:
            raise ValueError(f"relabeling map renames vertices outside the graph: {sorted(extra, key=str)}")
        renamed: dict[Vertex, Vertex] = {}  # new id -> the vertex renamed to it
        for v in self.vertices:
            if v not in mapping:
                raise ValueError(f"relabeling map is not total: no image for vertex {v!r}")
            w = str(mapping[v])
            if renamed.setdefault(w, v) != v:
                raise ValueError(f"relabeling map is not injective: {renamed[w]!r} and {v!r} both go to {w!r}")
        return Graph(renamed, ((mapping[u], mapping[v]) for u, v in self.edges))

    def induced(self, keep: Iterable[Vertex]) -> "Graph":
        ks = set(keep)
        return Graph(ks, (e for e in self.edges if e[0] in ks and e[1] in ks))

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Graph":
        data = _document(data, "graph", ("vertices", "edges"))
        return cls(_document_ids(data["vertices"], "vertices"), _document_pairs(data["edges"], "edges"))

    def to_edgelist(self) -> str:
        return _format_edgelist(self.vertices, self.edges)

    @classmethod
    def from_edgelist(cls, text: str) -> "Graph":
        return cls(*_parse_edgelist(text, "edge"))


@dataclass(frozen=True, init=False)
class Digraph:
    """A finite binary relation: ordered arcs, loops permitted."""

    vertices: tuple[Vertex, ...]
    arcs: tuple[Arc, ...]

    def __init__(self, vertices: Iterable[Vertex], arcs: Iterable[Sequence[Vertex]] = ()):
        vs = _ids(vertices)
        ars = sorted({(str(u), str(v)) for u, v in arcs})
        # in sorted arc order each vertex meets its out-neighbours (as the
        # first end) and its in-neighbours (as the second) ascending
        out: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
        inn: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
        for u, v in ars:
            if u not in out or v not in out:
                raise ValueError(f"arc ({u!r}, {v!r}) has an endpoint outside the vertex set")
            out[u].append(v)
            inn[v].append(u)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "arcs", tuple(ars))
        object.__setattr__(self, "_out", {v: tuple(ns) for v, ns in out.items()})
        object.__setattr__(self, "_in", {v: tuple(ns) for v, ns in inn.items()})
        object.__setattr__(self, "_arc_set", frozenset(ars))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self._arc_set  # type: ignore[attr-defined]

    def out_neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self._out[v]  # type: ignore[attr-defined]

    def in_neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self._in[v]  # type: ignore[attr-defined]

    def is_isolated(self, v: Vertex) -> bool:
        """True iff ``v`` occurs in no arc (not even a loop)."""
        return not self.out_neighbors(v) and not self.in_neighbors(v)

    def isolated_vertices(self) -> tuple[Vertex, ...]:
        return tuple([v for v in self.vertices if self.is_isolated(v)])

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.arcs)

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arcs": [list(a) for a in self.arcs],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Digraph":
        data = _document(data, "digraph", ("vertices", "arcs"))
        return cls(_document_ids(data["vertices"], "vertices"), _document_pairs(data["arcs"], "arcs"))

    def to_edgelist(self) -> str:
        return _format_edgelist(self.vertices, self.arcs)

    @classmethod
    def from_edgelist(cls, text: str) -> "Digraph":
        return cls(*_parse_edgelist(text, "arc"))


def is_homomorphism(
    mapping: Mapping[Vertex, Vertex], domain: Graph, codomain: Graph
) -> tuple[bool, Optional[Edge]]:
    """Check edge preservation of a total vertex map.

    Returns ``(True, None)`` when every domain edge lands on a codomain edge,
    and ``(False, witness_edge)`` with the first violating edge otherwise.
    A non-total map or an image outside the codomain raises ``ValueError``
    (a malformed map is an error, not a negative answer).
    """
    for v in domain.vertices:
        if v not in mapping:
            raise ValueError(f"map is not total: no image for vertex {v!r}")
        if not codomain.has_vertex(mapping[v]):
            raise ValueError(f"image {mapping[v]!r} of {v!r} is not a codomain vertex")
    for u, v in domain.edges:
        if not codomain.has_edge(mapping[u], mapping[v]):
            return False, (u, v)
    return True, None


@dataclass(frozen=True, init=False)
class Morphism:
    """A validated graph homomorphism: a total, edge-preserving vertex map."""

    domain: Graph
    codomain: Graph
    _map: dict[Vertex, Vertex]  # the map, kept once, in sorted key order

    def __init__(self, domain: Graph, codomain: Graph, mapping: Mapping[Vertex, Vertex]):
        extra = set(mapping) - set(domain.vertices)
        if extra:
            raise ValueError(f"map assigns vertices outside the domain: {sorted(extra, key=str)}")
        ok, witness = is_homomorphism(mapping, domain, codomain)
        if not ok:
            u, v = witness  # type: ignore[misc]
            raise ValueError(
                f"map does not preserve edge ({u!r}, {v!r}): "
                f"({mapping[u]!r}, {mapping[v]!r}) is not a codomain edge"
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "_map", dict(sorted((str(k), str(v)) for k, v in mapping.items())))

    @property
    def mapping(self) -> tuple[tuple[Vertex, Vertex], ...]:
        return tuple(self._map.items())

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.mapping))

    def __call__(self, v: Vertex) -> Vertex:
        return self._map[v]

    def as_dict(self) -> dict[Vertex, Vertex]:
        return dict(self._map)

    def is_injective(self) -> bool:
        return len(set(self._map.values())) == len(self._map)

    def is_surjective(self) -> bool:
        return set(self._map.values()) == set(self.codomain.vertices)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def image(self) -> tuple[Vertex, ...]:
        return tuple(sorted(set(self._map.values())))

    def compose(self, inner: "Morphism") -> "Morphism":
        """Return ``self after inner`` (apply ``inner`` first)."""
        if inner.codomain != self.domain:
            raise ValueError("morphisms are not composable: codomain/domain mismatch")
        return Morphism(inner.domain, self.codomain, {v: self(inner(v)) for v in inner.domain.vertices})

    @classmethod
    def identity(cls, graph: Graph) -> "Morphism":
        return cls(graph, graph, {v: v for v in graph.vertices})

    def to_dict(self) -> dict:
        return {"map": self.as_dict()}


@dataclass(frozen=True, init=False)
class SliceObject:
    """A graph together with a homomorphism to a fixed base graph."""

    carrier: Graph
    base: Graph
    structure_map: Morphism

    def __init__(self, carrier: Graph, base: Graph, structure_map: Mapping[Vertex, Vertex] | Morphism):
        if isinstance(structure_map, Morphism):
            if structure_map.domain != carrier or structure_map.codomain != base:
                raise ValueError("structure map endpoints do not match carrier/base")
            m = structure_map
        else:
            m = Morphism(carrier, base, structure_map)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "structure_map", m)

    def color(self, v: Vertex) -> Vertex:
        return self.structure_map(v)

    def fiber(self, base_vertex: Vertex) -> tuple[Vertex, ...]:
        """All carrier vertices mapped onto ``base_vertex``."""
        return tuple([v for v in self.carrier.vertices if self.color(v) == base_vertex])

    def image(self) -> tuple[Vertex, ...]:
        return self.structure_map.image()

    def to_dict(self) -> dict:
        return {
            "carrier": self.carrier.to_dict(),
            "base": self.base.to_dict(),
            "map": self.structure_map.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SliceObject":
        data = _document(data, "slice", ("carrier", "base", "map"))
        carrier = Graph.from_dict(data["carrier"])
        base = Graph.from_dict(data["base"])
        if not isinstance(data["map"], Mapping):
            raise ValueError("slice document 'map' must be an object from carrier to base ids")
        f = {k: document_id(v, f"map image of {k!r}") for k, v in data["map"].items()}
        return cls(carrier, base, f)


@dataclass(frozen=True, init=False)
class SliceMorphism:
    """A carrier homomorphism commuting with the structure maps."""

    source: SliceObject
    target: SliceObject
    map: Morphism

    def __init__(self, source: SliceObject, target: SliceObject, map: Mapping[Vertex, Vertex] | Morphism):
        if source.base != target.base:
            raise ValueError("slice morphism endpoints live over different bases")
        m = map if isinstance(map, Morphism) else Morphism(source.carrier, target.carrier, map)
        if m.domain != source.carrier or m.codomain != target.carrier:
            raise ValueError("carrier map endpoints do not match the slice objects")
        for v in source.carrier.vertices:
            if target.color(m(v)) != source.color(v):
                raise ValueError(
                    f"triangle does not commute at {v!r}: "
                    f"{target.color(m(v))!r} != {source.color(v)!r}"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", m)

    def __call__(self, v: Vertex) -> Vertex:
        return self.map(v)

    def compose(self, inner: "SliceMorphism") -> "SliceMorphism":
        if inner.target != self.source:
            raise ValueError("slice morphisms are not composable")
        return SliceMorphism(inner.source, self.target, self.map.compose(inner.map))

    @classmethod
    def identity(cls, obj: SliceObject) -> "SliceMorphism":
        return cls(obj, obj, Morphism.identity(obj.carrier))

    def to_dict(self) -> dict:
        return {"map": self.map.as_dict()}


# ---------------------------------------------------------------------------
# standard families


def build_path(n: int) -> Graph:
    """The path P_n with n edges and n + 1 vertices v0..vn."""
    check_int(n, "path length", 0)
    vs = [f"v{i}" for i in range(n + 1)]
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n)])


def build_cycle(n: int) -> Graph:
    """The cycle C_n on n vertices v0..v(n-1)."""
    check_int(n, "cycle length", 3)
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def build_star(k: int) -> Graph:
    """The star K_{1,k}: center v0 with k leaves; build_star(3) is the 3-leaf Y."""
    check_int(k, "leaf count", 0)
    vs = ["v0"] + [f"v{i}" for i in range(1, k + 1)]
    return Graph(vs, [("v0", f"v{i}") for i in range(1, k + 1)])


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union with vertex ids namespaced "<part index>:<id>"."""
    vertices: list[Vertex] = []
    edges: list[tuple[Vertex, Vertex]] = []
    for i, part in enumerate(parts):
        vertices.extend(f"{i}:{v}" for v in part.vertices)
        edges.extend((f"{i}:{u}", f"{i}:{v}") for u, v in part.edges)
    return Graph(vertices, edges)


def path_order(graph: Graph, component: Sequence[Vertex]) -> tuple[Vertex, ...]:
    """Order the vertices of a path-shaped component end to end.

    The walk starts from the lexicographically least endpoint (for a single
    vertex, itself).  Raises if the component is not a path.
    """
    comp = sorted(component)
    if len(comp) == 1:
        v = comp[0]
        if graph.degree(v) != 0:
            raise ValueError(f"component {comp} is not a path")
        return (v,)
    inside = set(comp)
    degs = {v: sum(1 for w in graph.neighbors(v) if w in inside) for v in comp}
    ends = [v for v in comp if degs[v] == 1]
    if len(ends) != 2 or any(degs[v] > 2 for v in comp):
        raise ValueError(f"component {comp} is not a path")
    order = [ends[0]]
    prev = None
    while True:
        nxt = [w for w in graph.neighbors(order[-1]) if w in inside and w != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    if len(order) != len(comp):
        raise ValueError(f"component {comp} is not a path")
    return tuple(order)

