"""Deciding when the slice category over a base graph is algebraically universal.

The decision is a linear structural scan: the slice category over G admits a
full embedding of all loop-free-pointed digraph categories exactly when G
contains a triangle, a 4-cycle, a path with four edges, or a 3-leaf star as a
subgraph; equivalently, when G is not a subgraph of a disjoint union of paths
of length three.  For a universal base the module checks the embedding
machinery (gadget gluing) at desk scale, one pair of digraphs per pair of
isomorphism classes; for a non-universal base it builds the constructive
dichotomy witness: every slice object is rigid or carries a proper
endomorphism, exhibited through path retractions and cross-component
folding.  The dichotomy sweep checks every hom of one carrier per
isomorphism class of connected carriers.  All sweeps run through
``homsearch.class_sweep``, so their counts and counterexamples are those of
the labeled sweep.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from math import prod
from typing import NamedTuple, Optional

from . import arrow
from .core import (
    Digraph,
    Graph,
    Morphism,
    SliceMorphism,
    SliceObject,
    Vertex,
    build_path,
    check_int,
    path_order,
)
from .gadgets import MINIMAL_BASES, Gadget
from .homsearch import (
    CARRIER_ENUMERATION_CAP,
    EndoVerdict,
    Pattern,
    check_digraph_size,
    class_sweep,
    classify_endomorphisms,
    digraph_from_mask,
    digraph_hom_leaves_into,
    digraph_masks,
    endomorphism_verdict,
    enumerate_homs,
    graph_from_mask,
    hom_leaves_into,
    labeled_digraph_classes,
    least_masks,
    mask_pairs,
    slice_pattern,
)

class BaseVerdict(enum.Enum):
    UNIVERSAL = "universal"
    NOT_UNIVERSAL = "not-universal"


@dataclass(frozen=True)
class BaseClassification:
    """Verdict plus a re-checkable witness.

    Universal: ``pattern`` names which of C3/C4/P4/Y embeds and ``embedding``
    is the injective morphism.  Not universal: ``decomposition`` lists every
    component as an end-to-end path of at most four vertices.
    """

    verdict: BaseVerdict
    pattern: Optional[str] = None
    embedding: Optional[Morphism] = None
    decomposition: Optional[tuple[tuple[Vertex, ...], ...]] = None

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.verdict is BaseVerdict.UNIVERSAL:
            out["pattern"] = self.pattern
            out["embedding"] = self.embedding.to_dict() if self.embedding else None
        else:
            out["decomposition"] = [list(p) for p in self.decomposition or ()]
        return out


def classify_slice_base(G: Graph) -> BaseClassification:
    """Structural classification of a base graph.

    Universal iff some vertex has degree at least 3, some component contains
    a cycle, or some component is a path with at least five vertices;
    otherwise every component is a path of length at most three.
    """
    hub = next((v for v in G.vertices if G.degree(v) >= 3), None)
    if hub is not None:  # Y is centre v0 with leaves v1..v3
        name, order = "Y", (hub, *G.neighbors(hub)[:3])
    else:
        cycles, paths = [], []
        for comp in G.components():
            # no degree exceeds 2 here, so the all-2 components are the cycles;
            # dropping comp[0] leaves a path whose ends are its two neighbours
            if all(G.degree(v) == 2 for v in comp):
                cycles.append((comp[0],) + path_order(G, comp[1:]))
            else:
                paths.append(path_order(G, comp))
        order = cycles[0] if cycles else next((p for p in paths if len(p) >= 5), None)
        if order is None:
            return BaseClassification(BaseVerdict.NOT_UNIVERSAL, decomposition=tuple(paths))
        name = {3: "C3", 4: "C4"}.get(len(order), "P4")  # a longer cycle or path holds P4
    mapping = {f"v{i}": w for i, w in enumerate(order[:5])}
    return BaseClassification(BaseVerdict.UNIVERSAL, name, Morphism(MINIMAL_BASES[name], G, mapping))


@dataclass(frozen=True)
class ConeClassification:
    """Non-bipartite test with a witness either way."""

    verdict: BaseVerdict
    odd_cycle: Optional[tuple[Vertex, ...]] = None
    bipartition: Optional[tuple[tuple[Vertex, ...], tuple[Vertex, ...]]] = None

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.verdict is BaseVerdict.UNIVERSAL:
            out["odd_cycle"] = list(self.odd_cycle or ())
        else:
            left, right = self.bipartition or ((), ())
            out["bipartition"] = {"left": list(left), "right": list(right)}
        return out


def classify_cone_base(G: Graph) -> ConeClassification:
    """Classify whether every graph mapping to G forms a universal category.

    BFS 2-colors each component; a same-color edge closes an odd cycle, which
    is extracted through the two tree paths to their meeting point.
    """
    # a vertex's colour is the parity of its BFS depth from its component's
    # least vertex; the components are disjoint, so one multi-source BFS
    # walks each of them as a BFS from that vertex alone would
    depth, parent = _bfs(G, [comp[0] for comp in G.components()])
    for u, v in G.edges:
        if (depth[u] - depth[v]) % 2:
            continue
        walk_u, walk_v = [u], [v]
        while depth[walk_u[-1]] > depth[walk_v[-1]]:
            walk_u.append(parent[walk_u[-1]])  # type: ignore[arg-type]
        while depth[walk_v[-1]] > depth[walk_u[-1]]:
            walk_v.append(parent[walk_v[-1]])  # type: ignore[arg-type]
        while walk_u[-1] != walk_v[-1]:
            walk_u.append(parent[walk_u[-1]])  # type: ignore[arg-type]
            walk_v.append(parent[walk_v[-1]])  # type: ignore[arg-type]
        cycle = list(reversed(walk_u)) + walk_v[:-1]
        i = cycle.index(min(cycle))
        cycle = cycle[i:] + cycle[:i]
        if len(cycle) > 1 and cycle[-1] < cycle[1]:
            cycle = [cycle[0]] + list(reversed(cycle[1:]))
        return ConeClassification(BaseVerdict.UNIVERSAL, odd_cycle=tuple(cycle))
    left = tuple(v for v in G.vertices if depth[v] % 2 == 0)
    right = tuple(v for v in G.vertices if depth[v] % 2 == 1)
    return ConeClassification(BaseVerdict.NOT_UNIVERSAL, bipartition=(left, right))


# ---------------------------------------------------------------------------
# retraction over short path bases


@dataclass(frozen=True)
class RigidPathCertificate:
    """The carrier is itself a minimal end-to-end path, hence rigid."""

    path_vertices: tuple[Vertex, ...]

    def to_dict(self) -> dict:
        return {"kind": "rigid-path", "path": list(self.path_vertices)}


@dataclass(frozen=True)
class RetractionPlan:
    """A proper retraction of the carrier onto an internal path.

    ``tau`` records, per carrier vertex, the distance to the nearest preimage
    of the starting end of the base path.
    """

    base_path: tuple[Vertex, ...]
    path_vertices: tuple[Vertex, ...]
    tau: tuple[tuple[Vertex, int], ...]
    retraction: Morphism

    def to_dict(self) -> dict:
        return {
            "kind": "retraction",
            "path": list(self.path_vertices),
            "tau": {v: t for v, t in self.tau},
            "retraction": self.retraction.to_dict(),
        }

    def validate(self, X: SliceObject) -> None:
        """Re-check every promised property; raises ValueError on failure."""
        r = self.retraction
        f = X.structure_map
        path = self.path_vertices
        k = len(path) - 1
        n = len(self.base_path) - 1
        if set(r.image()) != set(path):
            raise ValueError("retraction image is not the selected path")
        for v in X.carrier.vertices:
            if f(r(v)) != f(v):
                raise ValueError(f"structure map not preserved at {v!r}")
            if r(r(v)) != r(v):
                raise ValueError(f"retraction not idempotent at {v!r}")
        for u in path:
            if r(u) != u:
                raise ValueError(f"retraction moves path vertex {u!r}")
        colors = [f(u) for u in path]
        if n == 3:
            if k < 3 or k % 2 == 0:
                raise ValueError(f"path length {k} is not of the form 2c+3")
            expected = [self.base_path[0]]
            expected += [self.base_path[1 if i % 2 else 2] for i in range(1, k)]
            expected += [self.base_path[3]]
            if colors != expected:
                raise ValueError("path colors do not follow the zigzag pattern")
        else:
            if colors != list(self.base_path):
                raise ValueError("path is not a section of the base path")
        SliceMorphism(X, X, r)  # commuting triangle re-check


def _bfs(graph: Graph, sources: list[Vertex]) -> tuple[dict[Vertex, int], dict[Vertex, Optional[Vertex]]]:
    """Breadth-first search from ``sources``: each reached vertex's distance
    to the nearest source and its parent in the search tree (None at a
    source)."""
    dist = {s: 0 for s in sources}
    parent: dict[Vertex, Optional[Vertex]] = dict.fromkeys(sources)
    queue = deque(sources)
    while queue:
        x = queue.popleft()
        for y in graph.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
    return dist, parent


def _path_base(base: Graph) -> tuple[tuple[Vertex, ...], dict[Vertex, int]]:
    """The order of a path ``base`` of length at most 3 and each base
    vertex's position in it; ValueError for any other base."""
    base_ord = path_order(base, base.vertices)
    n = len(base_ord) - 1
    if n > 3:
        raise ValueError(f"base path has length {n}; only lengths 0..3 are supported")
    return base_ord, {b: i for i, b in enumerate(base_ord)}


def retract_slice_to_path(X: SliceObject) -> RetractionPlan | RigidPathCertificate:
    """Retract a connected surjective slice over a path of length at most 3.

    The base length only chooses the path.  For lengths up to 2 it is a
    section of the base (a connected copy on which the structure map is an
    isomorphism, lexicographically least); for length 3 it is the
    lexicographically least shortest end-to-end path, a zigzag.  A carrier
    that is that path itself is certified rigid.  Otherwise every vertex is
    sent to a path vertex of its color: the one at its color's position over
    a short base, and over length 3 the one whose index is nearest to its
    distance from the starting fiber.  That fold is checked once, by
    ``RetractionPlan.validate``: a vertex sent to a path vertex of another
    color fails it as "structure map not preserved".
    """
    if not X.carrier.is_connected():
        raise ValueError("carrier must be connected")
    base_ord, pos = _path_base(X.base)
    if set(X.image()) != set(base_ord):
        raise ValueError("structure map must be surjective onto the base path")
    f = X.structure_map
    n = len(base_ord) - 1
    pre0 = list(X.fiber(base_ord[0]))

    if n <= 2:
        path = _find_section(X, base_ord)
    else:
        sigma = _bfs(X.carrier, list(X.fiber(base_ord[3])))[0]
        k = min(sigma[s] for s in pre0)
        path = [min(s for s in pre0 if sigma[s] == k)]
        while sigma[path[-1]] > 0:
            path.append(min(w for w in X.carrier.neighbors(path[-1]) if sigma[w] == sigma[path[-1]] - 1))
        if len(path) != k + 1 or k % 2 == 0 or k < 3:
            raise RuntimeError(f"shortest end-to-end path has impossible length {k}")
    if set(path) == set(X.carrier.vertices):
        return RigidPathCertificate(tuple(path))

    tau = _bfs(X.carrier, pre0)[0]

    def target_index(v: Vertex) -> int:
        c = pos[f(v)]
        if n <= 2 or c == 0:
            return c
        if c == 3:
            return k
        return min(tau[v], k - 2 if c == 1 else k - 1)

    plan = RetractionPlan(
        base_path=base_ord,
        path_vertices=tuple(path),
        tau=tuple(sorted(tau.items())),
        retraction=Morphism(X.carrier, X.carrier, {v: path[target_index(v)] for v in X.carrier.vertices}),
    )
    if n == 3:
        plan.validate(X)
    return plan


def _find_section(X: SliceObject, base_ord: list[Vertex]) -> list[Vertex]:
    """A connected carrier copy on which the structure map is an isomorphism
    onto ``base_ord``, a subpath of length at most 2 of the base
    (lexicographically least choice)."""
    f = X.structure_map
    if len(base_ord) == 1:
        return [X.fiber(base_ord[0])[0]]
    if len(base_ord) == 2:
        for u, v in X.carrier.edges:
            if {f(u), f(v)} == set(base_ord):
                return [u, v] if f(u) == base_ord[0] else [v, u]
        raise RuntimeError("no edge realizes the two base colors")
    for mid in X.fiber(base_ord[1]):
        firsts = [w for w in X.carrier.neighbors(mid) if f(w) == base_ord[0]]
        lasts = [w for w in X.carrier.neighbors(mid) if f(w) == base_ord[2]]
        if firsts and lasts:
            return [firsts[0], mid, lasts[0]]
    raise RuntimeError("no middle vertex with neighbors of both end colors")


def compare_components(X: SliceObject, Y: SliceObject) -> SliceMorphism:
    """A slice morphism between two connected objects with nested images.

    Requires the image of X to be contained in the image of Y (both over the
    same path base of length at most 3).  When both images are the whole
    length-3 base, both objects retract onto zigzag paths and the one with
    the longer path folds onto the other; in every other case the image of X
    is a proper section and X maps into a copy of it inside Y.  The returned
    morphism's source/target tell the direction.
    """
    if X.base != Y.base:
        raise ValueError("objects live over different bases")
    if not X.carrier.is_connected() or not Y.carrier.is_connected():
        raise ValueError("both carriers must be connected")
    if not X.carrier.vertices:  # an empty image is no subpath to map into
        raise ValueError("the carrier of X is empty")
    base_ord, pos = _path_base(X.base)
    img_x, img_y = set(X.image()), set(Y.image())
    if not img_x <= img_y:
        raise ValueError("image containment precondition does not hold")

    if len(base_ord) == 4 and img_x == img_y == set(base_ord):
        # the object with the longer path, Y on a tie, folds onto the other
        sides = [(X, retract_slice_to_path(X)), (Y, retract_slice_to_path(Y))]
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


def _path_fold(long: int, short: int) -> list[int]:
    """Index map collapsing a zigzag path of length ``long`` onto one of
    length ``short`` (both odd, same ends)."""
    out = []
    for j in range(long + 1):
        if j <= short - 1:
            out.append(j)
        elif j == long:
            out.append(short)
        elif (j - (short - 1)) % 2 == 0:
            out.append(short - 1)
        else:
            out.append(short - 2)
    return out


# ---------------------------------------------------------------------------
# the rigid-or-proper-endomorphism dichotomy


@dataclass(frozen=True)
class DichotomyResult:
    verdict: EndoVerdict  # RIGID or HAS_PROPER_ENDOMORPHISM
    witness: Optional[SliceMorphism] = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def classify_slice_object(X: SliceObject) -> DichotomyResult:
    """Constructive dichotomy over a non-universal base.

    Retracting each carrier component over its image subpath either certifies
    the component rigid or yields a proper endomorphism; with all components
    rigid, any two components with nested images fold one into the other.  If
    neither happens the object is rigid.  A length-3 retraction is checked by
    ``RetractionPlan.validate``, and every verdict is cross-checked against
    the core test (``endomorphism_verdict``); a disagreement is a RuntimeError.
    """
    decomposition = _base_decomposition(X.base)
    path_of = {b: order for order in decomposition for b in order}
    position = {b: i for order in decomposition for i, b in enumerate(order)}
    f = X.structure_map

    infos = []
    for comp in X.carrier.components():
        img = sorted({position[f(v)] for v in comp})
        if img != list(range(img[0], img[-1] + 1)):
            raise RuntimeError("connected component has a non-contiguous image")
        order = path_of[f(comp[0])]
        outcome = retract_slice_to_path(_component_slice(X, comp, order, img[0], img[-1]))
        if isinstance(outcome, RetractionPlan):
            result = DichotomyResult(EndoVerdict.HAS_PROPER_ENDOMORPHISM, _proper_endomorphism(X, outcome.retraction))
            break
        infos.append((comp, order, img[0], img[-1]))
    else:  # every component is rigid
        result = _fold_comparable_components(X, infos) or DichotomyResult(EndoVerdict.RIGID)
    problem = _enumeration_disagreement(X, result.verdict)
    if problem is not None:
        raise RuntimeError(problem)
    return result


# one classification per distinct base graph; a universal base raises, so it is never kept
@lru_cache(maxsize=16)
def _base_decomposition(base: Graph) -> tuple[tuple[Vertex, ...], ...]:
    """The base's components as paths in order; ValueError for a universal base."""
    base_cls = classify_slice_base(base)
    if base_cls.verdict is BaseVerdict.UNIVERSAL:
        raise ValueError(
            "base is universal; the dichotomy applies only to disjoint unions of "
            "short paths (use the gadget machinery instead)"
        )
    return base_cls.decomposition or ()


def _proper_endomorphism(X: SliceObject, part: Morphism) -> SliceMorphism:
    """The endomorphism of X that is ``part`` on its domain and the identity
    elsewhere, validated; a RuntimeError if it is a bijection.  A retraction
    onto a path that is a proper subset of the carrier never is."""
    witness = SliceMorphism(X, X, {v: v for v in X.carrier.vertices} | part.as_dict())
    if witness.map.is_bijective():
        raise RuntimeError("proper endomorphism witness is a bijection")
    return witness


def _component_slice(
    X: SliceObject, comp: tuple[Vertex, ...], order: tuple[Vertex, ...], lo: int, hi: int
) -> SliceObject:
    """Component ``comp`` of X over ``build_path(hi - lo)``, where ``order``
    is its base path and base position p is renamed ``v{p - lo}``."""
    pos = {b: i for i, b in enumerate(order)}
    f = X.structure_map
    colors = {v: f"v{pos[f(v)] - lo}" for v in comp}
    return SliceObject(X.carrier.induced(comp), _SHORT_PATHS[hi - lo], colors)


# the bases of every component slice: a non-universal base has no longer path
_SHORT_PATHS = tuple(build_path(n) for n in range(4))


def _fold_comparable_components(X: SliceObject, infos) -> Optional[DichotomyResult]:
    """A proper endomorphism folding one rigid component into another with a
    containing image on the same base path, or None."""
    for i, (comp_i, order_i, lo_i, hi_i) in enumerate(infos):
        for j, (comp_j, order_j, lo_j, hi_j) in enumerate(infos):
            if i == j or order_i != order_j or not (lo_j <= lo_i and hi_i <= hi_j):
                continue
            top = len(order_i) - 1
            fold = compare_components(
                _component_slice(X, comp_i, order_i, 0, top),
                _component_slice(X, comp_j, order_i, 0, top),
            )
            return DichotomyResult(EndoVerdict.HAS_PROPER_ENDOMORPHISM, _proper_endomorphism(X, fold.map))
    return None


def _enumeration_disagreement(X: SliceObject, verdict: EndoVerdict) -> Optional[str]:
    """None when the core test confirms the constructive ``verdict``, else what
    is wrong, worded from the full endomorphism counts: the monoid is a
    nontrivial group, or two of the three verdicts differ."""
    found = endomorphism_verdict(X)
    if found is verdict:
        return None
    report = classify_endomorphisms(X)
    counts = f"{report.endo_count} endos, {report.auto_count} automorphisms"
    if report.verdict is EndoVerdict.AUTOMORPHISMS_ONLY:
        return f"endomorphism monoid is a nontrivial group ({counts})"
    if report.verdict is not verdict:
        return (
            f"constructive verdict {verdict.value} disagrees with "
            f"enumeration ({report.verdict.value}, {counts})"
        )
    return f"core test verdict {found.value} disagrees with enumeration ({report.verdict.value}, {counts})"


# ---------------------------------------------------------------------------
# full-embedding verification at desk scale


@dataclass(frozen=True)
class EmbeddingViolation:
    D1: Digraph
    D2: Digraph
    kind: str  # "count-mismatch" | "missing-image"
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "d1": self.D1.to_dict(),
            "d2": self.D2.to_dict(),
        }


@dataclass(frozen=True)
class EmbeddingReport:
    pairs_checked: int
    digraph_homs: int
    slice_homs: int
    verdict: bool
    violation: Optional[EmbeddingViolation] = None

    def to_dict(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "digraph_homs": self.digraph_homs,
            "slice_homs": self.slice_homs,
            "verdict": "pass" if self.verdict else "fail",
            "violation": self.violation.to_dict() if self.violation else None,
        }


class _Target(NamedTuple):
    """What the pair check reads of F(D2), D2 the digraph of arc mask ``mask``
    on n vertices.  Vertices are F(D2)'s indices as ``arrow.product_rows``
    lays it out (D2's i-th vertex is index i), and pairs of them are pairs of
    singleton bits, as raw leaves read them."""

    n: int
    mask: int
    weights: dict  # N on its support S: (p, q) -> slice homs gadget -> F(D2) with a -> p, b -> q
    glued: set  # the arcs of D2 whose gadget copy is among those slice homs
    arcs: set  # every arc of D2
    out: list[int]  # the out-rows of the host S ∪ D2 (D2's own n rows on an exact target)
    inn: list[int]  # its in-rows


def _is_exact(target: _Target) -> bool:
    """Whether a record reads as exact: every arc of D2 glued and N 1 on
    exactly those arcs."""
    return target.glued == target.arcs and target.weights == dict.fromkeys(target.arcs, 1)


def _check_embedding_pair(
    gadget: Gadget, source: tuple[int, int], target: _Target
) -> tuple[int, int, Optional[EmbeddingViolation]]:
    """Counts and violation of gluing h -> glued(h) being a bijection Hom(D1, D2) -> Hom(F(D1), F(D2)).

    ``source`` is D1 as (n, mask), which must have no isolated vertex;
    ``target`` is the ``_target_record`` of D2.  F(D1) is the union of its arc
    copies, which meet only in D1's vertices (the arrow construction, Hell &
    Nešetřil, *Graphs and Homomorphisms*, 2004, ch. 4).  So a slice hom
    F(D1) -> F(D2) is a choice of images x of D1's vertices and, per arc
    (u, v), a slice hom gadget -> F(D2) with a -> x_u and b -> x_v, and

        |Hom(F(D1), F(D2))| = sum over x of prod over arcs (u, v) of N(x_u, x_v),

    where N(p, q) counts the slice homs gadget -> F(D2) with a -> p and
    b -> q.  As every vertex of D1 lies on an arc, the x with a nonzero
    product are the digraph homs D1 -> S, S the support of N.

    Both counts come from one search D1 -> H, H = S ∪ D2 on F(D2)'s indices.
    Hom(D1, D2) and Hom(D1, S) both lie inside Hom(D1, H), and every other
    leaf adds 0 to both counts: a leaf adds its product of N (0 off S), and
    it is a digraph hom D1 -> D2 when every arc lands on an arc of D2.  Loops
    of D1 stay a unary filter onto the looped vertices of H.  Leaves stream
    in lexicographic order over F(D2)'s index order, in which D2's vertices
    are 0..n-1, so the homs D1 -> D2 keep the order a search D1 -> D2 gives
    them, and the first that does not glue, the one a missing-image
    violation names, is the same.

    Every digraph hom h must glue to slice homs the engine found: for each arc
    (u, v) the gadget copy on (h(u), h(v)) is one of them.  Gluing is
    injective, so equal counts make it a bijection.  No product of either
    side is built: F(D1) is counted through its arcs, and F(D2) is searched
    as ``arrow.product_rows`` lays it out by index, whose docstring says why
    the checks of a named build (no id collides, no loop arc makes a loop,
    the inherited map is a homomorphism) hold by construction.  A
    ``Digraph`` is built only for the D1 and D2 of a violation.

    An exact target, one whose glued arcs are all of D2's arcs and whose N
    is 1 on exactly those arcs, is counted as digraph homs.  There S is D2,
    so H = S ∪ D2 = D2 and every leaf is a digraph hom D1 -> D2.  Its
    product of N is 1 and each of its arcs lands on a glued arc, so each
    leaf adds 1 to both counts and no leaf strays: the pair passes with
    both counts the number of leaves.  Exactness is read off the record's
    own fields, so a record changed after it was made takes the full path.
    """
    weights, glued, d2_arcs = target.weights, target.glued, target.arcs
    arcs = mask_pairs(*source, True)
    variables, leaves = digraph_hom_leaves_into(source[0], arcs, target.out, target.inn)
    if _is_exact(target):
        count = sum(1 for _ in leaves)
        return count, count, None
    at = {v: i for i, v in enumerate(variables)}
    arcs = [(at[u], at[v]) for u, v in arcs]
    digraph_homs = slice_homs = 0
    stray = None
    for leaf in leaves:
        ends = [(leaf[i], leaf[j]) for i, j in arcs]
        slice_homs += prod([weights.get(e, 0) for e in ends])
        if d2_arcs.issuperset(ends):
            digraph_homs += 1
            if stray is None and not glued.issuperset(ends):
                stray = leaf
    if digraph_homs == slice_homs and stray is None:
        return digraph_homs, slice_homs, None
    D1, D2 = digraph_from_mask(*source), digraph_from_mask(target.n, target.mask)
    if digraph_homs != slice_homs:
        detail = f"{digraph_homs} digraph homs vs {slice_homs} slice homs"
        return digraph_homs, slice_homs, EmbeddingViolation(D1, D2, "count-mismatch", detail)
    # equal counts, yet some glued map is not among the slice homs counted
    h = [D2.vertices[d.bit_length() - 1] for d in stray]
    p, q = next((h[i], h[j]) for i, j in arcs if (stray[i], stray[j]) not in glued)
    names = [D1.vertices[v] for v in variables]
    detail = (
        f"digraph hom {dict(sorted(zip(names, h)))} does not glue to slice homs the search found: "
        f"the gadget copy with {gadget.a} -> {p}, {gadget.b} -> {q} is not among them"
    )
    return digraph_homs, slice_homs, EmbeddingViolation(D1, D2, "missing-image", detail)


def _exact_target(n: int, mask: int, arcs: list[tuple[int, int]]) -> _Target:
    """The record of an exact target D, the digraph of ``mask`` on n vertices
    with index ``arcs``: N is 1 on D's arcs and 0 elsewhere, every arc is
    glued, and S ∪ D is D, so D's own n out- and in-rows are the host."""
    d_arcs = {(1 << u, 1 << v) for u, v in arcs}
    out, inn = [0] * n, [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return _Target(n, mask, dict.fromkeys(d_arcs, 1), set(d_arcs), d_arcs, out, inn)


def _target_record(pattern: Pattern, layout: arrow.ProductLayout, n: int, mask: int) -> _Target:
    """What the pair check reads of F(D), D the digraph of ``mask`` on n
    vertices, from one search of the gadget's ``pattern`` into F(D), laid
    out by ``arrow.product_rows`` with the gadget's ``layout``.

    The sorted leaves are compared with the sorted copy leaves, as
    ``gadgets.verify_gadget`` compares the slice homs it finds with the copy
    maps.  If they are equal the target is exact (``_exact_target``).
    Otherwise N and the glued arcs are tallied from the leaves' own (a, b)
    bits, and the host is S ∪ D over F(D)'s indices.  No ``Digraph`` is
    built and no id is formatted."""
    arcs = mask_pairs(n, mask, True)
    rows, fibers, copies = arrow.product_rows(n, arcs, layout)
    _, leaves = hom_leaves_into(pattern, rows, fibers)
    found = sorted(leaves)
    if found == sorted(copies):
        return _exact_target(n, mask, arcs)
    copy_leaves = set(map(tuple, copies))
    i, j = layout.slots.index(0), layout.slots.index(1)  # the variables a and b
    weights = {}
    glued = set()
    for leaf in found:
        ends = leaf[i], leaf[j]
        weights[ends] = weights.get(ends, 0) + 1
        if tuple(leaf) in copy_leaves:
            glued.add(ends)
    # every copy is a slice hom, so S holds D's arcs when the search finds
    # them all; the union keeps the digraph count independent of that search
    d_arcs = {(1 << u, 1 << v) for u, v in arcs}
    out, inn = [0] * len(rows), [0] * len(rows)
    for p, q in d_arcs.union(weights):
        out[p.bit_length() - 1] |= q
        inn[q.bit_length() - 1] |= p
    return _Target(n, mask, weights, glued, d_arcs, out, inn)


def full_embedding_check(gadget: Gadget, max_n: int, *, progress=None) -> EmbeddingReport:
    """Check h -> glued(h) is a bijection on every hom-set between products.

    Sweeps all ordered pairs of isolated-point-free digraphs with up to
    ``max_n`` vertices.  Assumes the gadget itself has already been verified
    at this size (otherwise fullness can fail and will be reported).
    Relabeling D1 and D2 separately keeps the verdict and both hom counts,
    so each pair of isomorphism classes is checked once (``class_sweep``),
    each digraph keyed by its size and least arc mask.  With no isolated
    vertex in D1, |Hom(F(D1), F(D2))| is the sum over maps x of D1's
    vertices of the product over arcs (u, v) of N(x_u, x_v), N(p, q) the
    number of slice homs gadget -> F(D2) with a -> p and b -> q; so each
    pair is counted from one search per pair from D1 into S ∪ D2, S the
    support of N (``_check_embedding_pair``).  On an exact target, where
    the gadget's slice homs into F(D2) are exactly the arc copies, that
    search goes into D2 and counts digraph homs.  Whether every target is
    exact is decided by one search into F(K_max_n), K_max_n the complete
    digraph with every loop, when the gadget has an interior vertex
    (``_embedding_sweep``); otherwise each target class gets its own search
    gadget -> F(D2), F(D2) laid out as engine rows.  No product of either
    side is built, and no ``Digraph`` but the two of a violation.
    """
    labeled = list(labeled_digraph_classes(max_n, True))
    return _embedding_sweep(gadget, max_n, ((x, y) for x in labeled for y in labeled), progress)


def full_embedding_spot_check(
    gadget: Gadget,
    n: int,
    pair_count: int,
    seed: int,
) -> EmbeddingReport:
    """Check randomly sampled ordered pairs of n-vertex digraphs, each held as
    its arc mask.  ``pair_count`` is the number of draws; ``pairs_checked``
    counts the distinct pairs drawn, so it can be smaller.  ``pair_count``
    and ``seed`` must be ints (not bools), so that a report can be
    reproduced.  As in ``full_embedding_check``, one search into F(K_n)
    decides whether every sampled target is exact, so a gadget with an
    interior vertex and an exact F(K_n) searches no target of its own."""
    check_int(pair_count, "pair_count", 1)  # no pairs would pass vacuously
    check_int(seed, "seed")  # random.Random(None) would draw from OS entropy
    check_digraph_size(n)
    masks = digraph_masks(n, True)
    rng = random.Random(seed)
    chosen_idx = sorted(
        {(rng.randrange(len(masks)), rng.randrange(len(masks))) for _ in range(pair_count)}
    )
    return _embedding_sweep(gadget, n, [((n, masks[i]), (n, masks[j])) for i, j in chosen_idx], None)


def _embedding_sweep(gadget: Gadget, n: int, pairs, progress) -> EmbeddingReport:
    """Sweep ``pairs`` of digraphs on at most n vertices, each given as its
    (n, mask) key, in order, checking each distinct pair once.  The gadget's
    search pattern and copy layout are built once, here; no state outlives
    the call.

    One record of F(K_n), K_n the complete digraph on n vertices with every
    loop, decides every target.  Each target D2 is a sub-digraph of K_n on
    its first vertices, and the inclusion F(D2) -> F(K_n) is an injective
    slice map.  A slice hom gadget -> F(D2) is thus one into F(K_n) too; if
    that is the copy on an arc (u, v) of K_n, and the gadget has an interior
    vertex, its image is an interior vertex of that copy lying in F(D2), so
    (u, v) is an arc of D2 and the hom is D2's own copy on it.  As K_n is
    itself an isolation-free digraph on n vertices, F(K_n) is exact exactly
    when every such target on at most n vertices is; then each record is
    built from D2's arcs alone (``_exact_target``), with no product laid
    out and no gadget search per target.  Without an interior vertex a copy
    in F(K_n) is only its two ends, which F(D2) holds whether or not (u, v)
    is an arc, so that gadget, like one with a non-exact F(K_n), gets a
    ``_target_record`` search per target, made at the first pair with that
    target."""
    pattern = slice_pattern(gadget.slice)
    layout = arrow.product_layout(gadget, pattern[0])
    if layout.interior and _is_exact(_target_record(pattern, layout, n, (1 << n * n) - 1)):
        def record(key):
            return _exact_target(*key, mask_pairs(*key, True))
    else:
        def record(key):
            return _target_record(pattern, layout, *key)
    targets: dict = {}

    def check(pair):
        source, target = pair
        if target not in targets:
            targets[target] = record(target)
        nd, ns, violation = _check_embedding_pair(gadget, source, targets[target])
        return (1, nd, ns), violation

    (checked, total_d, total_s), violation = class_sweep(pairs, check, (0, 0, 0), progress, 50)
    return EmbeddingReport(checked, total_d, total_s, violation is None, violation)


# ---------------------------------------------------------------------------
# dichotomy sweeps


@dataclass(frozen=True)
class DichotomyViolation:
    slice_doc: dict
    detail: str

    def to_dict(self) -> dict:
        return {"instance": self.slice_doc, "detail": self.detail}


@dataclass(frozen=True)
class DichotomyReport:
    instances: int
    verdict: bool
    violation: Optional[DichotomyViolation] = None

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "verdict": "pass" if self.verdict else "fail",
            "violation": self.violation.to_dict() if self.violation else None,
        }


def _check_dichotomy_instance(X: SliceObject) -> Optional[str]:
    """None when the instance satisfies the dichotomy, else a description.

    ``classify_slice_object`` cross-checks its verdict, and
    ``RetractionPlan.validate`` is the one check of a length-3 retraction;
    both fail by raising.  Every instance is built by the library, so a
    ``RuntimeError`` or a ``ValueError`` is a fault of the classifier,
    reported as a violation."""
    try:
        classify_slice_object(X)
    except (RuntimeError, ValueError) as exc:
        return f"constructive classification failed: {exc}"
    return None


def dichotomy_sweep(
    base: Graph, max_carrier: int, *, samples: int = 0, seed: int = 0, progress=None
) -> DichotomyReport:
    """Exhaust all slice objects with small connected carriers over a
    non-universal base, then optionally add randomly generated instances
    (disconnected carriers included).

    Relabeling a carrier keeps its hom count and the verdicts, so each
    carrier class is searched once, at its least edge mask, the first of its
    carriers the sweep reaches (``class_sweep``); ``instances`` counts labeled
    instances.  Carriers above ``CARRIER_ENUMERATION_CAP`` vertices, a
    universal or an empty base are a ValueError, and so is a count or a
    ``seed`` that is not an int, so that every report can be reproduced;
    all of it is checked, and the base classified once, before the first
    instance.  Each instance goes through ``classify_slice_object``, which
    reads that classification from its base memo.
    """
    check_int(max_carrier, "max_carrier", 1)  # a sweep over no carrier sizes would pass vacuously
    if max_carrier > CARRIER_ENUMERATION_CAP:
        raise ValueError(
            f"carrier enumeration is capped at {CARRIER_ENUMERATION_CAP} vertices (requested {max_carrier})"
        )
    check_int(samples, "samples", 0)
    check_int(seed, "seed")  # random.Random(None) would draw from OS entropy
    if not base.vertices:  # no carrier with a vertex maps to it
        raise ValueError("base has no vertices, so the sweep would pass vacuously")
    _base_decomposition(base)  # a universal base is refused here, before any instance
    rng = random.Random(seed)

    def check(key):
        if key[0]:
            carrier = graph_from_mask(*key)
            homs = enumerate_homs(carrier, base) if carrier.is_connected() else ()
            objects = [SliceObject(carrier, base, h) for h in homs]
        else:  # each sample key is new, so the samples are drawn in order
            objects = [random_slice_object(base, rng)]
        for count, X in enumerate(objects, 1):
            problem = _check_dichotomy_instance(X)
            if problem is not None:
                return (count,), DichotomyViolation(X.to_dict(), problem)
        return (len(objects),), None

    # per labeled carrier the size and least mask of its class, then one key per sample
    carriers = chain.from_iterable(zip(repeat(n), least_masks(n, False)) for n in range(1, max_carrier + 1))
    keys = chain(carriers, zip(repeat(0), range(samples)))
    (instances,), violation = class_sweep(keys, check, (0,), progress, 200)
    return DichotomyReport(instances, violation is None, violation)


def random_slice_object(
    base: Graph,
    rng: random.Random,
    *,
    max_vertices: int = 6,
) -> SliceObject:
    """A random slice object built colors-first.

    Vertices get random base images; edges are sprinkled among pairs whose
    images are adjacent, so the coloring is a homomorphism by construction.
    Carriers may be disconnected.
    """
    if not base.vertices:
        raise ValueError("base has no vertices, so no vertex can be coloured")
    check_int(max_vertices, "max_vertices", 1)
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    colors = {v: rng.choice(base.vertices) for v in vs}
    edges = [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if base.has_edge(colors[u], colors[v]) and rng.random() < 0.45
    ]
    return SliceObject(Graph(vs, edges), base, colors)
