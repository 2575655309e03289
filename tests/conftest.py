"""Shared brute-force oracles, instance generators and test-only helpers.

The oracles enumerate every candidate map and filter, independent of the
search engine's pruning and ordering, so engine results can be checked
against them set-for-set.  The helpers below them (the brute-force base
classifier, structure-map mutants, the embedding pair check on named
products and ``Digraph``s, the strong copy-map check and the orbit form of
the digraph classes) serve only tests, so they live here and not in the
library.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sys
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import pytest

from slicecat import universality
from slicecat.arrow import Arc, ArrowResult, arrow_graph, product_slice
from slicecat.core import (
    Digraph,
    Graph,
    Morphism,
    SliceMorphism,
    SliceObject,
    Vertex,
    build_cycle,
    build_path,
    build_star,
    is_homomorphism,
    path_order,
)
from slicecat.gadgets import (
    BUILTIN_GADGET_NAMES,
    Gadget,
    GadgetReport,
    builtin_gadget,
    verify_gadget_exhaustive,
)
from slicecat.homsearch import check_digraph_size, digraph_hom_leaves, digraph_masks, hom_leaves, least_masks
from slicecat.universality import (
    BaseVerdict,
    EmbeddingViolation,
    RetractionPlan,
    RigidPathCertificate,
    _find_section,
    _path_fold,
)


@pytest.fixture(autouse=True)
def fresh_base_memo():
    """Start each test with no base classification kept by
    ``classify_slice_object``: a test that monkeypatches
    ``classify_slice_base`` must not read a base another test classified."""
    universality._base_decomposition.cache_clear()


def naive_homs(A: Graph, B: Graph) -> set[tuple[tuple[str, str], ...]]:
    """All |B|^|A| vertex maps filtered by edge preservation."""
    if not A.vertices:
        return {()}
    if not B.vertices:
        return set()
    out = set()
    for images in itertools.product(B.vertices, repeat=len(A.vertices)):
        mapping = dict(zip(A.vertices, images))
        ok, _ = is_homomorphism(mapping, A, B)
        if ok:
            out.add(tuple(sorted(mapping.items())))
    return out


def naive_slice_homs(X: SliceObject, Y: SliceObject) -> set[tuple[tuple[str, str], ...]]:
    """Naive homs filtered by the commuting-triangle condition."""
    out = set()
    for key in naive_homs(X.carrier, Y.carrier):
        mapping = dict(key)
        if all(Y.color(mapping[v]) == X.color(v) for v in X.carrier.vertices):
            out.add(key)
    return out


def naive_digraph_homs(D1: Digraph, D2: Digraph) -> set[tuple[tuple[str, str], ...]]:
    if not D1.vertices:
        return {()}
    if not D2.vertices:
        return set()
    out = set()
    for images in itertools.product(D2.vertices, repeat=len(D1.vertices)):
        mapping = dict(zip(D1.vertices, images))
        if all(D2.has_arc(mapping[u], mapping[v]) for u, v in D1.arcs):
            out.add(tuple(sorted(mapping.items())))
    return out


def naive_injective_subgraph(pattern: Graph, host: Graph) -> bool:
    if pattern.vertex_count > host.vertex_count:
        return False
    for images in itertools.permutations(host.vertices, pattern.vertex_count):
        mapping = dict(zip(pattern.vertices, images))
        if all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges):
            return True
    return False


def naive_base_verdict(G: Graph) -> BaseVerdict:
    """The base classification by subgraph search: universal exactly when a
    triangle, a 4-cycle, a path with four edges or a 3-leaf star is a
    (non-induced) subgraph of G, each tried over every injective vertex map."""
    patterns = (build_cycle(3), build_cycle(4), build_path(4), build_star(3))
    if any(naive_injective_subgraph(pattern, G) for pattern in patterns):
        return BaseVerdict.UNIVERSAL
    return BaseVerdict.NOT_UNIVERSAL


def graph_variable_order(pattern: Graph) -> list[str]:
    """The engine's static variable order: descending degree, then id."""
    return sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))


def digraph_variable_order(D: Digraph) -> list[str]:
    """Descending out-degree plus in-degree (a loop counts twice), then id."""
    return sorted(D.vertices, key=lambda v: (-(len(D.out_neighbors(v)) + len(D.in_neighbors(v))), v))


def static_order_sequence(solutions, order: list[str]) -> list[tuple[tuple[str, str], ...]]:
    """Sort solution keys by their images along ``order``: the sequence a
    depth-first search with that variable order and ascending values emits."""
    return sorted(solutions, key=lambda key: [dict(key)[v] for v in order])


def naive_endo_counts(X: SliceObject | Graph) -> tuple[int, int]:
    """(endomorphisms, automorphisms) of a slice object or a plain graph by
    exhaustive enumeration."""
    if isinstance(X, Graph):
        homs, n = naive_homs(X, X), X.vertex_count
    else:
        homs, n = naive_slice_homs(X, X), X.carrier.vertex_count
    autos = sum(1 for key in homs if len({w for _, w in key}) == n)
    return len(homs), autos


def random_graph(rng: random.Random, max_vertices: int, edge_probability: float = 0.4) -> Graph:
    n = rng.randint(0, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if rng.random() < edge_probability
    ]
    return Graph(vs, edges)


def random_digraph(rng: random.Random, max_vertices: int, arc_probability: float = 0.35) -> Digraph:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    arcs = [(u, v) for u in vs for v in vs if rng.random() < arc_probability]
    return Digraph(vs, arcs)


def random_digraph_no_isolated(rng: random.Random, max_vertices: int) -> Digraph:
    while True:
        D = random_digraph(rng, max_vertices)
        if not D.isolated_vertices():
            return D


def load_workloads():
    """The benchmark's workload module, read from ``perfbench/`` next to ``tests/``."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def random_connected_surjective_slice(base: Graph, rng: random.Random, *, max_vertices: int = 8) -> SliceObject:
    """A random connected slice object over a path ``base`` whose structure map is onto.

    Starts from a section of the base path (guaranteeing surjectivity),
    attaches every further vertex to a compatible existing one (guaranteeing
    connectivity), then sprinkles extra compatible edges.
    """
    base_ord = path_order(base, base.vertices)
    m = len(base_ord)
    n = rng.randint(m, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    colors: dict[Vertex, Vertex] = {}
    edges: list[tuple[Vertex, Vertex]] = []
    for i in range(m):
        colors[vs[i]] = base_ord[i]
        if i:
            edges.append((vs[i - 1], vs[i]))
    for i in range(m, n):
        colors[vs[i]] = rng.choice(base.vertices)
        anchors = [w for w in vs[:i] if base.has_edge(colors[w], colors[vs[i]])]
        if not anchors:
            # on a path base every color has an adjacent one among the section's vertices
            raise RuntimeError("no compatible anchor for a fresh vertex")
        edges.append((rng.choice(anchors), vs[i]))
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if base.has_edge(colors[u], colors[v]) and rng.random() < 0.35:
                edges.append((u, v))
    return SliceObject(Graph(vs, edges), base, colors)


def _bfs_distance(graph: Graph, sources: list[Vertex]) -> dict[Vertex, int]:
    """Distance to the nearest of ``sources``, for every vertex reached: the
    reference's own search, sharing no code with the retraction it checks."""
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        x = queue.popleft()
        for y in graph.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class RetractionTieError(RuntimeError):
    """The nearest-index rule of the reference retraction produced a tie."""


def reference_retract_slice_to_path(X: SliceObject) -> RetractionPlan | RigidPathCertificate:
    """The retraction with one branch per base length, each with its own
    certificate and plan: the reference for ``retract_slice_to_path``."""
    if not X.carrier.is_connected():
        raise ValueError("carrier must be connected")
    base_ord = path_order(X.base, X.base.vertices)
    n = len(base_ord) - 1
    if n > 3:
        raise ValueError(f"base path has length {n}; only lengths 0..3 are supported")
    if set(X.image()) != set(base_ord):
        raise ValueError("structure map must be surjective onto the base path")
    f = X.structure_map
    pos = {b: i for i, b in enumerate(base_ord)}

    if n <= 2:
        section = _find_section(X, base_ord)
        mapping = {v: section[pos[f(v)]] for v in X.carrier.vertices}
        if set(section) == set(X.carrier.vertices):
            return RigidPathCertificate(tuple(section))
        tau = _bfs_distance(X.carrier, list(X.fiber(base_ord[0])))
        return RetractionPlan(
            base_path=tuple(base_ord),
            path_vertices=tuple(section),
            tau=tuple(sorted(tau.items())),
            retraction=Morphism(X.carrier, X.carrier, mapping),
        )

    pre0 = list(X.fiber(base_ord[0]))
    pre3 = list(X.fiber(base_ord[3]))
    tau = _bfs_distance(X.carrier, pre0)
    sigma = _bfs_distance(X.carrier, pre3)
    k = min(sigma[s] for s in pre0)
    start = min(s for s in pre0 if sigma[s] == k)
    path = [start]
    while sigma[path[-1]] > 0:
        path.append(min(w for w in X.carrier.neighbors(path[-1]) if sigma[w] == sigma[path[-1]] - 1))
    if len(path) != k + 1 or k % 2 == 0 or k < 3:
        raise RuntimeError(f"shortest end-to-end path has impossible length {k}")

    def target_index(v: Vertex) -> int:
        c = pos[f(v)]
        t = tau[v]
        if c == 0:
            return 0
        if c == 3:
            return k
        if c == 1:
            if t % 2 != 1:
                raise RetractionTieError(
                    f"distance parity broken at {v!r}: color 1 with even distance {t}"
                )
            return min(t, k - 2)
        if t % 2 != 0 or t == 0:
            raise RetractionTieError(
                f"distance parity broken at {v!r}: color 2 with distance {t}"
            )
        return min(t, k - 1)

    mapping = {v: path[target_index(v)] for v in X.carrier.vertices}
    if set(path) == set(X.carrier.vertices):
        return RigidPathCertificate(tuple(path))
    plan = RetractionPlan(
        base_path=tuple(base_ord),
        path_vertices=tuple(path),
        tau=tuple(sorted(tau.items())),
        retraction=Morphism(X.carrier, X.carrier, mapping),
    )
    plan.validate(X)
    return plan


def reference_compare_components(X: SliceObject, Y: SliceObject) -> SliceMorphism:
    """``compare_components`` with its own base check, folding through
    ``reference_retract_slice_to_path``: the reference for the library's."""
    if X.base != Y.base:
        raise ValueError("objects live over different bases")
    if not X.carrier.is_connected() or not Y.carrier.is_connected():
        raise ValueError("both carriers must be connected")
    if not X.carrier.vertices:
        raise ValueError("the carrier of X is empty")
    base_ord = path_order(X.base, X.base.vertices)
    n = len(base_ord) - 1
    if n > 3:
        raise ValueError(f"base path has length {n}; only lengths 0..3 are supported")
    img_x, img_y = set(X.image()), set(Y.image())
    if not img_x <= img_y:
        raise ValueError("image containment precondition does not hold")
    pos = {b: i for i, b in enumerate(base_ord)}

    if n == 3 and img_x == img_y == set(base_ord):
        sides = [(X, reference_retract_slice_to_path(X)), (Y, reference_retract_slice_to_path(Y))]
        (onto, plan_onto), (folded, plan) = sorted(sides, key=lambda side: len(side[1].path_vertices))
        retract = plan.retraction if isinstance(plan, RetractionPlan) else Morphism.identity(folded.carrier)
        fold = _path_fold(len(plan.path_vertices) - 1, len(plan_onto.path_vertices) - 1)
        idx = {v: i for i, v in enumerate(plan.path_vertices)}
        mapping = {v: plan_onto.path_vertices[fold[idx[retract(v)]]] for v in folded.carrier.vertices}
        return SliceMorphism(folded, onto, mapping)

    positions = sorted(pos[b] for b in img_x)
    if positions != list(range(positions[0], positions[-1] + 1)):
        raise RuntimeError("image of a connected carrier is not a contiguous subpath")
    sub = [base_ord[i] for i in positions]
    copy = _find_section(Y, sub)
    offset = positions[0]
    mapping = {v: copy[pos[X.structure_map(v)] - offset] for v in X.carrier.vertices}
    return SliceMorphism(X, Y, mapping)


def structure_map_mutations(gadget: Gadget):
    """All single-point structure-map rewrites (vertex, new base image)."""
    f = gadget.slice.structure_map
    for v in gadget.carrier.vertices:
        for t in gadget.base.vertices:
            if t != f(v):
                yield v, t


def gadget_building_mutants() -> dict:
    """The single-point structure-map rewrites of the built-in gadgets that
    still build a gadget, by (built-in name, vertex, new image)."""
    building = {}
    for name in BUILTIN_GADGET_NAMES:
        gadget = builtin_gadget(name)
        for vertex, target in structure_map_mutations(gadget):
            mutated = dict(gadget.slice.structure_map.as_dict(), **{vertex: target})
            try:
                building[name, vertex, target] = Gadget(
                    SliceObject(gadget.carrier, gadget.base, mutated), gadget.a, gadget.b
                )
            except ValueError:
                continue
    return building


@dataclass(frozen=True)
class InvalidGadget:
    """The counterexample of a rewrite that builds no gadget: why ``Gadget``
    refused it.  No digraph was checked."""

    reason: str
    kind: str = "invalid-gadget"
    digraph: None = None


def verify_mutated_gadget(gadget: Gadget, vertex: Vertex, new_target: Vertex, max_n: int = 2) -> GadgetReport:
    """Apply one structure-map rewrite, then validate and sweep.

    A rewrite that breaks the homomorphism property or the distinguished-pair
    invariants fails immediately with an ``InvalidGadget`` counterexample; a
    rewrite that still builds a gadget is swept like any other.
    """
    mutated = dict(gadget.slice.structure_map.mapping)
    mutated[vertex] = new_target
    try:
        candidate = Gadget(SliceObject(gadget.carrier, gadget.base, mutated), gadget.a, gadget.b)
    except ValueError as exc:
        return GadgetReport(0, max_n, False, InvalidGadget(str(exc)))  # type: ignore[arg-type]
    return verify_gadget_exhaustive(candidate, max_n)


def named_target_record(gadget: Gadget, D: Digraph) -> tuple[Digraph, set, Digraph, dict]:
    """The embedding pair check's target record read off the named product:
    the ``_target_record`` that built F(D) as an ``ArrowResult`` and searched
    the validated slice object.  The same fields, except that S's vertex ids
    are F(D)'s product ids."""
    res = arrow_graph(D, gadget.carrier, gadget.a, gadget.b)
    variables, leaves = hom_leaves(gadget.slice, product_slice(res, gadget))
    vertices = res.product.vertices
    bit = {w: 1 << i for i, w in enumerate(vertices)}
    copies = {tuple([bit[copy[x]] for x in variables]): arc for arc, copy in res.copies.items()}
    i, j = variables.index(gadget.a), variables.index(gadget.b)
    tally: Counter = Counter()
    glued = set()
    for leaf in leaves:
        tally[vertices[leaf[i].bit_length() - 1], vertices[leaf[j].bit_length() - 1]] += 1
        arc = copies.get(tuple(leaf))
        if arc is not None:
            glued.add(arc)
    support = Digraph({x for pair in tally for x in pair}, tally)
    at_d = {w: 1 << k for k, w in enumerate(D.vertices)}
    at_s = {w: 1 << k for k, w in enumerate(support.vertices)}
    return (
        D,
        {(at_d[x], at_d[y]) for x, y in glued},
        support,
        {(at_s[x], at_s[y]): k for (x, y), k in tally.items()},
    )


def reference_embedding_pair(gadget: Gadget, D1: Digraph, record) -> tuple[int, int, EmbeddingViolation | None]:
    """The embedding pair check on ``Digraph``s, with a record of
    ``named_target_record``: one search D1 -> D2 for the digraph homs and
    their gluing, and one D1 -> S, weighted by N, for the slice homs."""
    D2, glued, support, weights = record
    variables, leaves = digraph_hom_leaves(D1, D2)
    at = {v: i for i, v in enumerate(variables)}
    arcs = [(at[u], at[v]) for u, v in D1.arcs]
    digraph_homs = 0
    stray = None
    for leaf in leaves:
        digraph_homs += 1
        if stray is None and not all((leaf[i], leaf[j]) in glued for i, j in arcs):
            stray = leaf
    # the variable order depends on D1 alone, so ``arcs`` indexes these leaves too
    slice_homs = sum(
        math.prod(weights[leaf[i], leaf[j]] for i, j in arcs) for leaf in digraph_hom_leaves(D1, support)[1]
    )
    if digraph_homs != slice_homs:
        detail = f"{digraph_homs} digraph homs vs {slice_homs} slice homs"
        return digraph_homs, slice_homs, EmbeddingViolation(D1, D2, "count-mismatch", detail)
    if stray is not None:
        h = [D2.vertices[d.bit_length() - 1] for d in stray]
        p, q = next((h[i], h[j]) for i, j in arcs if (stray[i], stray[j]) not in glued)
        detail = (
            f"digraph hom {dict(sorted(zip(variables, h)))} does not glue to slice homs the search found: "
            f"the gadget copy with {gadget.a} -> {p}, {gadget.b} -> {q} is not among them"
        )
        return digraph_homs, slice_homs, EmbeddingViolation(D1, D2, "missing-image", detail)
    return digraph_homs, slice_homs, None


def phi_is_strong(res: ArrowResult, arc: Arc) -> tuple[bool, tuple[Vertex, Vertex] | None]:
    """Edge reflection check for one copy map.

    On a non-loop arc the copy map must reflect edges exactly: the images of
    s, t are adjacent in the product iff {s, t} is a gadget edge.  On a loop
    arc a and b share an image, so the check is performed on vertex pairs with
    distinct images and treats edges at a and b as interchangeable.
    """
    copy = res.copies[arc]
    g = res.gadget_graph
    is_loop = arc[0] == arc[1]
    swap = {res.a: res.b, res.b: res.a}
    for i, s in enumerate(g.vertices):
        for t in g.vertices[i + 1 :]:
            if copy[s] == copy[t]:
                continue
            gadget_edge = g.has_edge(s, t)
            if is_loop:
                gadget_edge = gadget_edge or g.has_edge(swap.get(s, s), t) or g.has_edge(s, swap.get(t, t))
            if res.product.has_edge(copy[s], copy[t]) != gadget_edge:
                return False, (s, t)
    return True, None


def digraph_classes(n: int, require_no_isolated: bool) -> list[tuple[int, frozenset[int]]]:
    """The isomorphism classes of the digraphs of ``digraph_masks``, ascending
    by least mask: per class its least arc mask and its orbit, the masks of
    the n!/|Aut| labeled digraphs isomorphic to it, read from the library's
    ``least_masks``."""
    check_digraph_size(n)
    least = least_masks(n, True)
    orbits: dict[int, set[int]] = {}
    for mask in digraph_masks(n, require_no_isolated):
        orbits.setdefault(least[mask], set()).add(mask)
    return [(mask, frozenset(orbit)) for mask, orbit in orbits.items()]
