"""Homomorphism search for graphs, slice objects and digraphs.

One arc-consistent engine serves every search.  Each pattern vertex is a
variable whose domain is an int bitset over the host vertices, indexed in
lexicographic order.  Each pattern edge or arc is a binary constraint checked
against per-host-vertex adjacency bitmasks (out and in for digraphs).  Slice
colors and digraph loops narrow the initial domains.  AC-3 (Mackworth,
"Consistency in networks of relations", 1977) runs at the root and after
every assignment.
A revision narrows a variable's partners to the union of the support rows
of its domain's values: a singleton domain reads its row, a larger one reads
a table from domain bitset to union that is filled on first use.  Each
support list of a search has its own table, which lives as long as that one
search.
Variables go in a fixed order (descending degree, then id) and values in
ascending order.  Propagation only cuts branches without solutions, so
solutions stream in lexicographic order of their images along that variable
order, as a plain backtracker would emit them.

Counting has its own entry point on the same domains, constraints and
propagation.  ``_count`` multiplies the counts of the connected components of
the variables that still have a choice (Bayardo & Pehoushek, AAAI 2000; Sang
et al., SAT 2004), with a cache of component counts that lives for one call.
``hom_count``, ``slice_hom_count`` and ``digraph_hom_count`` return counts
without building a morphism per solution.  ``classify_endomorphisms`` counts
every subtree below an assignment that repeats a fixed value, where no
bijection is left, and walks the rest.  ``endomorphism_verdict`` gives the
same verdict without counts, from at most n + 1 existence searches.

A graph search is set up in two parts.  The pattern (the variable order,
each variable's partner positions and colour) depends on the source alone;
binding it to a host gives the domains and a new union table.  So one
pattern, built once by ``slice_pattern``, can be searched into many hosts,
and no search sees another's table.

Validation happens once, where results leave the library.  ``hom_leaves``
and ``digraph_hom_leaves`` give the raw stream, and ``hom_leaves_into`` and
``digraph_hom_leaves_into`` the one into a host its caller laid out as rows
(a prebuilt graph pattern, or a digraph pattern given by index arcs); the
public ``enumerate_*`` functions wrap it and yield validated morphisms
(dicts for digraphs).  The internal verifiers count and compare raw
solutions and validate only the witnesses and counterexamples they return.

The bounded sweeps (gadget verification, embedding, strong replacement and
the dichotomy) search each isomorphism class once, since relabeling keeps
loops, isolated vertices, connectivity, verdicts and hom counts (isomorph
rejection after McKay, J. Algorithms 1998).  A labeled graph or digraph is
a bit mask over vertex pairs, and ``_cells`` is the one map from its bits to
the pairs: every mask this module builds, filters or decodes goes through it
(``mask_pairs`` decodes), and no other module reads a mask bit.  One class
routine, ``least_masks``, maps every mask to the least mask of its class.
One helper, ``class_sweep``, walks the labeled items in sweep order, checks
a class at its first item and adds the result up per item, so counters,
progress and counterexamples keep a labeled meaning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from itertools import islice, permutations
from operator import add, or_
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .core import Digraph, Graph, Morphism, SliceMorphism, SliceObject, Vertex, check_int

DIGRAPH_ENUMERATION_CAP = 4
# a carrier class walk keeps one entry per labeled graph: 2^21 at 7 vertices, 2^28 at 8
CARRIER_ENUMERATION_CAP = 7


# one constraint group of a variable x: (support, unions, partners).  When x
# takes value i, every variable in partners must take a value in support[i];
# when x's domain is the bitset d, a value in unions[d], the union of
# support[i] over the bits i of d.  Each support list has one union table,
# shared by its groups and freed with the search.
Constraints = list[list[tuple[Sequence[int], dict[int, int], list[int]]]]
# a test on a propagated node and the depth of the variable just assigned
# there: True keeps the search from descending below the node
Cut = Optional[Callable[[list[int], int], bool]]
# the host-independent part of a graph search: the pattern's vertices in
# variable order, per variable its partners' positions, and per variable its
# colour (None for an uncoloured pattern)
Pattern = tuple[list[Vertex], list[list[int]], Optional[list[Vertex]]]


def _adjacency_masks(
    index: Mapping[Vertex, int], pairs: Iterable[tuple[Vertex, Vertex]]
) -> tuple[list[int], list[int]]:
    """Per host vertex, in ``index`` order, the bitsets of its out- and
    in-neighbours along ``pairs``, built in one pass over them."""
    out = [0] * len(index)
    inn = [0] * len(index)
    for u, v in pairs:
        i, j = index[u], index[v]
        out[i] |= 1 << j
        inn[j] |= 1 << i
    return out, inn


class _Unions(dict):
    """The union table of one support list: domain bitset -> the union of
    the support rows of its bits, filled on first read."""

    __slots__ = ("support",)

    def __init__(self, support: Sequence[int]):
        self.support = support

    def __missing__(self, domain: int) -> int:
        support = self.support
        union = 0
        m = domain
        while m:
            low = m & -m
            union |= support[low.bit_length() - 1]
            m ^= low
        self[domain] = union
        return union


def _propagate(doms: list[int], changed: Iterable[int], constraints: Constraints) -> Optional[list[int]]:
    """AC-3 from the variables in ``changed``, narrowing ``doms`` in place;
    None when a domain is wiped out.  A singleton domain revises its partners
    with its support row, a larger one with its union from the table."""
    queue = list(changed)
    while queue:
        x = queue.pop()
        dx = doms[x]
        i = -1 if dx & (dx - 1) else dx.bit_length() - 1
        for support, unions, partners in constraints[x]:
            allowed = unions[dx] if i < 0 else support[i]
            for y in partners:
                dy = doms[y] & allowed
                if dy != doms[y]:
                    if not dy:
                        return None
                    doms[y] = dy
                    if y not in queue:
                        queue.append(y)
    return doms


def _root(domains: list[int], constraints: Constraints) -> Optional[list[int]]:
    """The domains after AC-3 from every variable; None when one is empty."""
    return _propagate(list(domains), range(len(domains)), constraints) if all(domains) else None


def _solve(domains: list[int], constraints: Constraints) -> Iterator[list[int]]:
    """Yield every assignment within the domain bitsets that satisfies the
    constraints (each listed from both ends), assigning variables in list
    order and values in ascending order.  A solution is yielded as its list of
    singleton domains, which may be one of the search's frames: never mutate it.
    It runs only as far as its consumer reads; no variables give one empty solution.
    """
    root = _root(domains, constraints)
    if root is not None:
        yield from _dfs(root, constraints)


def _dfs(node: list[int], constraints: Constraints, cut: Cut = None) -> Iterator[list[int]]:
    """The depth-first search of ``_solve`` below an arc-consistent ``node``,
    yielding every solution there in the same order.

    A depth whose domain is a singleton gets no frame: its value was
    propagated when it was forced, so the search steps over it.

    ``cut``, when given, is called on every node that an assignment and its
    propagation make above the leaves (not on the root, and not where the
    value was forced already); the search does not descend below a node it
    returns True for."""
    n = len(node)
    # one frame per depth with a choice: the domains there, the depth and the values left to try
    stack: list[list] = []
    doms, depth = node, 0
    while True:
        while depth < n and not doms[depth] & (doms[depth] - 1):
            depth += 1
        if depth < n:
            stack.append([doms, depth, doms[depth]])
        else:
            yield doms
        while stack:
            frame = stack[-1]
            left = frame[2]
            if not left:
                stack.pop()
                continue
            low = left & -left
            frame[2] = left ^ low
            depth = frame[1]
            child = frame[0].copy()
            child[depth] = low
            child = _propagate(child, (depth,), constraints)
            if child is None or cut and depth + 1 < n and cut(child, depth):
                continue
            doms, depth = child, depth + 1
            break
        else:  # every frame is exhausted
            return


def _count(doms: list[int], constraints: Constraints, cache: dict) -> int:
    """The number of solutions within the arc-consistent ``doms``.

    In an arc-consistent state a singleton variable's constraints already hold
    for every value its partners have left, so only the variables with a
    choice matter, and they fall apart into the connected components of the
    constraint graph among them (Bayardo & Pehoushek, "Counting models using
    connected components", AAAI 2000).  Component counts multiply.  A
    one-variable component counts its domain's bits; a larger one branches on
    its first variable, propagates and counts the rest, and is cached by its
    variables and domains for the lifetime of ``cache`` (one caller's call).

    Nested components are frames on an explicit stack, not Python calls, so
    their depth (up to one per variable, as on a long path) is not bounded by
    the recursion limit.
    """
    # per component being summed: the product it interrupted (domains,
    # pending variables, running total), then its cache key, branching
    # variable, the rest, the values left and the sum so far
    frames: list[list] = []
    pending = {x for x, d in enumerate(doms) if d & (d - 1)}
    total = 1
    while True:
        while pending and total:
            component = [pending.pop()]
            for x in component:
                for _, _, partners in constraints[x]:
                    for y in partners:
                        if y in pending:
                            pending.remove(y)
                            component.append(y)
            if len(component) == 1:
                total *= doms[component[0]].bit_count()
                continue
            component.sort()
            key = (tuple(component), tuple([doms[x] for x in component]))
            count = cache.get(key)
            if count is None:
                frames.append([doms, pending, total, key, component[0], component[1:], doms[component[0]], 0])
                break
            total *= count
        else:
            # the product is complete: the answer, or one term of the innermost sum
            if not frames:
                return total
            frames[-1][7] += total
        frame = frames[-1]
        parent, x, left = frame[0], frame[4], frame[6]
        child = None
        while left and child is None:
            low = left & -left
            left ^= low
            child = parent.copy()
            child[x] = low
            child = _propagate(child, (x,), constraints)
        frame[6] = left
        if child is None:
            # the sum is complete: cache it and resume the product it interrupted
            frames.pop()
            cache[frame[3]] = count = frame[7]
            doms, pending, total = parent, frame[1], frame[2] * count
        else:
            doms, total = child, 1
            pending = {y for y in frame[5] if child[y] & (child[y] - 1)}


def _count_solutions(domains: list[int], constraints: Constraints) -> int:
    """How many assignments ``_solve`` would yield, counted by ``_count``."""
    root = _root(domains, constraints)
    return 0 if root is None else _count(root, constraints, {})


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None:  # an empty stream would read as "no solution"
        check_int(limit, "limit", 1)


def _mapping(variables: Sequence[Vertex], values: Sequence[Vertex], leaf: list[int]) -> dict[Vertex, Vertex]:
    """The vertex map that one raw solution stands for."""
    return {v: values[d.bit_length() - 1] for v, d in zip(variables, leaf)}


def hom_leaves(
    A: Graph | SliceObject, B: Graph | SliceObject, *, limit: Optional[int] = None
) -> tuple[list[Vertex], Iterator[list[int]]]:
    """The variable order (descending degree, then id) and the raw solutions
    A -> B: per solution the variables' singleton bitsets, bit i for B's i-th
    vertex.  Raw solutions are unvalidated and must not be mutated.

    For slice objects structure-map fibers act as colors, which is exactly
    the commuting-triangle condition.  ``limit`` (at least 1) stops the
    stream after that many solutions.
    """
    _check_limit(limit)
    variables, domains, constraints = _hom_search(A, B)
    return variables, islice(_solve(domains, constraints), limit)


def hom_leaves_into(
    pattern: Pattern, rows: Sequence[int], fibers: Mapping[Vertex, int]
) -> tuple[list[Vertex], Iterator[list[int]]]:
    """The raw solutions of ``hom_leaves`` from the slice object of
    ``slice_pattern`` into a host given only by its rows: host vertex i is
    bit i, ``rows[i]`` the bitset of its neighbours and ``fibers[c]`` the
    bitset of the host vertices over base vertex c (a missing colour has
    none).  One pattern serves any number of hosts; each search binds it to
    its host with a union table of its own.

    The host is not validated: the caller vouches that the rows are
    symmetric and loop-free, the fibers disjoint, and that every edge lies
    over a base edge, so that the host is a slice object over X's base.
    """
    return pattern[0], _solve(*_bind(pattern, rows, fibers))


def slice_pattern(X: SliceObject) -> Pattern:
    """The host-independent part of every search from X, for
    ``hom_leaves_into``: the variables in the engine's order, each one's
    partner positions and its colour."""
    return _graph_pattern(X.carrier, X.structure_map.as_dict())


def _hom_search(A: Graph | SliceObject, B: Graph | SliceObject) -> tuple[list[Vertex], list[int], Constraints]:
    """The variable order, starting domains and constraints of ``hom_leaves``:
    B encoded as rows and fibers over its vertex index, A's pattern bound to
    them."""
    colors = fibers = None
    if isinstance(A, SliceObject):
        if A.base != B.base:
            raise ValueError("slice objects live over different bases")
        colors = A.structure_map.as_dict()
        target = colors if B is A else B.structure_map.as_dict()
        A, B = A.carrier, B.carrier
    index = {w: i for i, w in enumerate(B.vertices)}
    # an edge is listed once, so a neighbour is an out- or an in-neighbour along the list
    rows = [o | i for o, i in zip(*_adjacency_masks(index, B.edges))]
    if colors is not None:
        fibers = {}
        for w, c in target.items():
            fibers[c] = fibers.get(c, 0) | 1 << index[w]
    pattern = _graph_pattern(A, colors)
    return (pattern[0], *_bind(pattern, rows, fibers))


def _graph_pattern(A: Graph, colors: Optional[Mapping[Vertex, Vertex]]) -> Pattern:
    """The host-independent part of a search from A: its vertices in
    variable order (descending degree, then id), per variable the positions
    of its neighbours and, with ``colors`` (A's colours), its colour."""
    # the vertices are sorted by id and the sort is stable: descending degree, then id
    variables = sorted(A.vertices, key=A.degree, reverse=True)
    position = {v: i for i, v in enumerate(variables)}
    partners = [[position[w] for w in A.neighbors(v)] for v in variables]
    return variables, partners, None if colors is None else [colors[v] for v in variables]


def _bind(
    pattern: Pattern, rows: Sequence[int], fibers: Optional[Mapping[Vertex, int]]
) -> tuple[list[int], Constraints]:
    """The starting domains and constraints of ``pattern`` searched into the
    host with adjacency rows ``rows`` and, for a coloured pattern, fibers
    ``fibers``: a variable of colour c may take only the values in
    ``fibers[c]``.  The constraints share one union table, new per call."""
    _, partners, colors = pattern
    unions = _Unions(rows)
    constraints: Constraints = [[(rows, unions, p)] for p in partners]
    if colors is None:
        return [(1 << len(rows)) - 1] * len(partners), constraints
    return [fibers.get(c, 0) for c in colors], constraints


def enumerate_homs(A: Graph, B: Graph, limit: Optional[int] = None) -> Iterator[Morphism]:
    """Stream every homomorphism A -> B, at most ``limit``."""
    variables, leaves = hom_leaves(A, B, limit=limit)
    for leaf in leaves:
        yield Morphism(A, B, _mapping(variables, B.vertices, leaf))


def hom_count(A: Graph, B: Graph) -> int:
    """The number of homomorphisms A -> B, counted without enumerating them."""
    return _count_solutions(*_hom_search(A, B)[1:])


def enumerate_slice_homs(X: SliceObject, Y: SliceObject, limit: Optional[int] = None) -> Iterator[SliceMorphism]:
    """Stream the slice morphisms X -> Y, at most ``limit`` (see ``hom_leaves`` for the colors)."""
    variables, leaves = hom_leaves(X, Y, limit=limit)
    for leaf in leaves:
        yield SliceMorphism(X, Y, _mapping(variables, Y.carrier.vertices, leaf))


def slice_hom_count(X: SliceObject, Y: SliceObject) -> int:
    """The number of slice morphisms X -> Y, counted without enumerating them."""
    return _count_solutions(*_hom_search(X, Y)[1:])


class EndoVerdict(enum.Enum):
    RIGID = "rigid"
    AUTOMORPHISMS_ONLY = "automorphisms-only"
    HAS_PROPER_ENDOMORPHISM = "proper-endomorphism"


@dataclass(frozen=True)
class EndoReport:
    """Outcome of classifying the endomorphism monoid of one object."""

    verdict: EndoVerdict
    witness: Optional[Morphism]
    endo_count: int
    auto_count: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "endo_count": self.endo_count,
            "auto_count": self.auto_count,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def classify_endomorphisms(X: SliceObject | Graph) -> EndoReport:
    """Count endomorphisms and automorphisms; exhibit a proper endomorphism.

    Accepts a slice object (endomorphisms in the slice, i.e. color-preserving)
    or a plain graph (ordinary graph endomorphisms).  For finite objects an
    endomorphism is proper exactly when its vertex map is non-bijective.
    Counts come from raw solutions; only the witness is built and validated.

    One depth-first walk in static order counts where it would otherwise
    descend into maps that cannot be bijections.  When the value just
    assigned is already another variable's only value, every solution below
    is non-bijective: the walk adds ``_count`` of the node and does not
    descend.  The leaves it reaches are told apart by their sum; they are
    automorphisms unless propagation forced two variables onto one value.
    The first non-bijective leaf, or the first solution under the first
    counted node with a non-zero count, whichever the walk meets first, is
    the first non-bijective endomorphism in static order: the witness.
    """
    carrier = X if isinstance(X, Graph) else X.carrier
    variables, domains, constraints = _hom_search(X, X)
    cache: dict = {}
    endo_count = 0
    first: Optional[list[int]] = None

    def non_bijective(doms: list[int], depth: int) -> bool:
        nonlocal endo_count, first
        if doms.count(doms[depth]) == 1:  # no other variable is fixed to this value
            return False
        count = _count(doms, constraints, cache)
        if count and first is None:
            first = next(_dfs(doms, constraints))
        endo_count += count
        return True

    every_vertex = (1 << carrier.vertex_count) - 1
    auto_count = 0
    root = _root(domains, constraints)  # never None: the identity is a solution
    for leaf in _dfs(root, constraints, non_bijective):
        # n distinct singletons sum to all n bits; a repeated one carries and
        # leaves fewer bits set, so the sum tells bijections apart
        if sum(leaf) == every_vertex:
            auto_count += 1
        else:
            endo_count += 1
            if first is None:
                first = leaf
    endo_count += auto_count
    witness: Optional[Morphism] = None
    if first is not None:
        m = _mapping(variables, carrier.vertices, first)
        witness = Morphism(X, X, m) if isinstance(X, Graph) else SliceMorphism(X, X, m).map
    if endo_count == 1:
        verdict = EndoVerdict.RIGID
    elif endo_count > auto_count:
        verdict = EndoVerdict.HAS_PROPER_ENDOMORPHISM
    else:
        verdict = EndoVerdict.AUTOMORPHISMS_ONLY
    return EndoReport(verdict=verdict, witness=witness, endo_count=endo_count, auto_count=auto_count)


def endomorphism_verdict(X: SliceObject | Graph) -> EndoVerdict:
    """The verdict of ``classify_endomorphisms``, decided by existence searches
    instead of counts.

    This is the core test of Hell & Nešetřil ("The core of a graph", Discrete
    Math. 1992): a finite X has a proper endomorphism iff one misses some
    vertex, that is iff X maps into itself with that vertex taken out of
    every domain (colors stay, so in the slice X minus a vertex keeps its
    fibers).  One search per vertex, each stopped at its first solution,
    settles that.  If none succeeds every endomorphism is an automorphism,
    and a search stopped at two solutions tells the identity alone (rigid)
    from a nontrivial group.
    """
    _, domains, constraints = _hom_search(X, X)
    root = _root(domains, constraints)  # never None: the identity is a solution
    for i in range(len(root)):
        bit = 1 << i
        doms = [d & ~bit for d in root]
        # the root is arc-consistent, so only the variables that lost the value need revising
        lost = [x for x, d in enumerate(root) if d & bit]
        if all(doms) and _propagate(doms, lost, constraints) is not None:
            if next(_dfs(doms, constraints), None) is not None:
                return EndoVerdict.HAS_PROPER_ENDOMORPHISM
    # the root is arc-consistent already, so its search needs no second AC-3
    if len(list(islice(_dfs(root, constraints), 2))) == 1:
        return EndoVerdict.RIGID
    return EndoVerdict.AUTOMORPHISMS_ONLY


# ---------------------------------------------------------------------------
# labeled graphs and digraphs, their isomorphism classes and the class sweep


def check_digraph_size(n: int) -> None:
    """Raise ValueError unless n is an int, not a bool, with 1 <= n <=
    DIGRAPH_ENUMERATION_CAP.  A sweep up to a size below 1 would pass
    vacuously; beyond the cap it is infeasible.  Callers check before any
    cached table lookup: ``True`` hashes and compares equal to 1."""
    check_int(n, "digraph size")
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if n > DIGRAPH_ENUMERATION_CAP:
        raise ValueError(
            f"digraph enumeration is capped at {DIGRAPH_ENUMERATION_CAP} vertices (requested {n})"
        )


@cache
def _cells(n: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """The vertex pairs behind the bits of a mask on n vertices, bit k for the
    k-th: the arc (i, j) at bit n*i + j, or the edges i < j in lexicographic
    order.  The one map from mask bits to vertex pairs, built once per size."""
    return tuple((i, j) for i in range(n) for j in range(n) if directed or i < j)


def mask_pairs(n: int, mask: int, directed: bool) -> list[tuple[int, int]]:
    """The vertex pairs of the set bits of ``mask`` on n vertices, as index
    pairs in bit order: arcs if ``directed``, else edges i < j.  Bit order is
    lexicographic, so for n <= 4 it is the ``Digraph.arcs`` order on v0..v(n-1)."""
    return [c for k, c in enumerate(_cells(n, directed)) if mask >> k & 1]


def loop_mask(n: int) -> int:
    """The arc mask of every loop on n vertices."""
    return sum(1 << k for k, (i, j) in enumerate(_cells(n, True)) if i == j)


def least_masks(n: int, directed: bool) -> list[int]:
    """Per mask over the vertex pairs of n vertices (digraph arcs or graph
    edges, numbered as ``digraph_from_mask`` and ``graph_from_mask`` read
    them), the least mask of its isomorphism class: a list with one entry per
    mask, 2^(n*n) or 2^(n(n-1)/2).

    The masks are walked in ascending order.  A mask not reached yet is the
    least of its class.  Its orbit, the masks of the n!/|Aut| labeled
    relabelings, is the OR over its pairs of their images under every vertex
    permutation, taken permutation by permutation.
    """
    cells = _cells(n, directed)
    # an edge is found from either end; an arc only from its own
    at = {(j, i): k for k, (i, j) in enumerate(cells)} | {c: k for k, c in enumerate(cells)}
    perms = list(permutations(range(n)))
    # per pair, the bit of its image under each permutation
    images = [[1 << at[p[i], p[j]] for p in perms] for i, j in cells]
    least = [-1] * (1 << len(cells))
    for mask in range(len(least)):
        if least[mask] < 0:
            orbit = [0] * len(perms)
            for k, image in enumerate(images):
                if mask >> k & 1:
                    orbit = list(map(or_, orbit, image))
            for m in orbit:
                least[m] = mask
    return least


@cache
def digraph_masks(n: int, require_no_isolated: bool) -> tuple[int, ...]:
    """The arc masks of ``enumerate_digraphs``, in its order, as a table
    built once per process; bit n*i + j is the arc (v_i, v_j).  The caller
    checks n with ``check_digraph_size``."""
    cells = _cells(n, True)
    # per vertex, the mask of the arcs at it
    touching = [sum(1 << k for k, c in enumerate(cells) if i in c) for i in range(n)]
    return tuple(m for m in range(1 << len(cells)) if not require_no_isolated or all(m & t for t in touching))


def labeled_digraph_classes(max_n: int, require_no_isolated: bool) -> Iterator[tuple[int, int]]:
    """Every labeled digraph of ``digraph_masks`` on 1..max_n vertices, in
    that order (the sweep order), as the key of its class: its size n and
    least mask.  The cap is checked before anything is yielded."""
    check_digraph_size(max_n)
    for n in range(1, max_n + 1):
        least = least_masks(n, True)
        yield from ((n, least[mask]) for mask in digraph_masks(n, require_no_isolated))


@cache
def _labels(n: int) -> tuple[Vertex, ...]:
    """The ids v0..v(n-1), one tuple per size.  Every graph built from a mask
    shares these string objects: dict lookups keyed by shared ids take the
    identity fast path, which the classifier measurably relies on."""
    return tuple(f"v{i}" for i in range(n))


def digraph_from_mask(n: int, mask: int) -> Digraph:
    """The digraph on v0..v(n-1) whose arcs are the set bits of ``mask``."""
    vs = _labels(n)
    return Digraph(vs, [(vs[i], vs[j]) for i, j in mask_pairs(n, mask, True)])


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph on v0..v(n-1) whose edges are the set bits of ``mask``, the
    edges i < j numbered in lexicographic order."""
    vs = _labels(n)
    return Graph(vs, [(vs[i], vs[j]) for i, j in mask_pairs(n, mask, False)])


def class_sweep(keys: Iterable[Hashable], check: Callable, totals: Sequence[int], progress=None, every: int = 1):
    """Sweep labeled items, checking each isomorphism class once.

    ``keys`` gives one key per labeled item, in sweep order; isomorphic items
    share a key, such as the size and least mask of their class.
    ``check(key)`` runs at the first item of each key, the first member of
    its class that the sweep reaches, and returns the counts of one item of
    the class (a tuple like ``totals``, whose first entry counts labeled
    units) and a failure or None.  The counts are added to ``totals`` per
    labeled item, and the sweep stops at the first item whose class failed,
    so the totals and the failure keep their labeled meaning.  ``progress``
    gets every multiple of ``every`` that the running unit count reaches.
    Returns the totals and the failure, None when every item passed.
    """
    results: dict = {}
    for key in keys:
        if key not in results:
            results[key] = check(key)
        counts, failure = results[key]
        done, totals = totals[0], list(map(add, totals, counts))
        for reached in range((done // every + 1) * every, totals[0] + 1, every) if progress else ():
            progress(reached)
        if failure is not None:
            return totals, failure
    return list(totals), None


def enumerate_digraphs(n: int, require_no_isolated: bool, *, canonical: bool = False) -> Iterator[Digraph]:
    """All labeled digraphs on vertices v0..v(n-1), in ascending arc-mask order.

    With ``require_no_isolated`` only relations where every vertex occurs in
    some arc are produced.  ``canonical`` keeps one representative per
    isomorphism class, the least arc mask of the class (see ``least_masks``).
    """
    check_digraph_size(n)
    masks = digraph_masks(n, require_no_isolated)
    if canonical:
        least = least_masks(n, True)
        masks = (m for m in masks if least[m] == m)
    for mask in masks:
        yield digraph_from_mask(n, mask)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple graphs on vertices v0..v(n-1), ascending edge mask."""
    check_int(n, "vertex count", 0)
    for mask in range(1 << len(_cells(n, False))):
        yield graph_from_mask(n, mask)


# ---------------------------------------------------------------------------
# digraph homomorphisms


def digraph_hom_leaves(
    D1: Digraph, D2: Digraph, limit: Optional[int] = None
) -> tuple[list[Vertex], Iterator[list[int]]]:
    """Raw solutions D1 -> D2 as in ``hom_leaves``.

    Variables go by descending out-degree plus in-degree (a loop counts
    twice), ties by id.  A loop of D1 is a unary filter: its vertex may only
    land on a looped vertex of D2.
    """
    _check_limit(limit)
    variables, domains, constraints = _digraph_search(D1, D2)
    return variables, islice(_solve(domains, constraints), limit)


def digraph_hom_leaves_into(
    n: int, arcs: Sequence[tuple[int, int]], out: Sequence[int], inn: Sequence[int]
) -> tuple[list[int], Iterator[list[int]]]:
    """The raw solutions of ``digraph_hom_leaves`` from the pattern on indices
    0..n-1 with the given index ``arcs`` into a host given only by its rows:
    host vertex i is bit i, ``out[i]`` and ``inn[i]`` the bitsets of its out-
    and in-neighbours.  The variables are pattern indices, in the order
    ``digraph_hom_leaves`` gives a digraph whose i-th vertex is index i.

    Nothing is validated: the caller vouches that the arcs are distinct pairs
    of indices below n and that ``inn`` is the transpose of ``out``.
    """
    variables, domains, constraints = _arc_pattern(n, arcs, out, inn)
    return variables, _solve(domains, constraints)


def _digraph_search(D1: Digraph, D2: Digraph) -> tuple[list[Vertex], list[int], Constraints]:
    """The variable order, starting domains and constraints of
    ``digraph_hom_leaves``: D2 encoded as out/in rows over its vertex index,
    D1 as arcs over its own, searched by ``_arc_pattern``."""
    out, inn = _adjacency_masks({w: i for i, w in enumerate(D2.vertices)}, D2.arcs)
    at = {v: i for i, v in enumerate(D1.vertices)}
    order, domains, constraints = _arc_pattern(D1.vertex_count, [(at[u], at[v]) for u, v in D1.arcs], out, inn)
    return [D1.vertices[i] for i in order], domains, constraints


def _arc_pattern(
    n: int, arcs: Sequence[tuple[int, int]], out: Sequence[int], inn: Sequence[int]
) -> tuple[list[int], list[int], Constraints]:
    """The variable order, starting domains and constraints of a digraph
    search from the pattern on indices 0..n-1 with the given arcs into the
    host with rows ``out`` and ``inn``.

    Variables go by descending out-degree plus in-degree (a loop counts
    twice), ties by index, which for a ``Digraph`` (its vertices sorted by id)
    is its id.  A loop is a unary filter onto the host's looped vertices.
    """
    degree = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    loops = set()
    for u, v in arcs:
        degree[u] += 1
        degree[v] += 1
        if u == v:
            loops.add(u)
        else:
            succ[u].append(v)
            pred[v].append(u)
    # the sort is stable: descending degree, then index
    variables = sorted(range(n), key=lambda v: -degree[v])
    position = [0] * n
    for i, v in enumerate(variables):
        position[v] = i
    out_unions, in_unions = _Unions(out), _Unions(inn)
    constraints: Constraints = [
        [
            (out, out_unions, [position[w] for w in succ[v]]),
            (inn, in_unions, [position[w] for w in pred[v]]),
        ]
        for v in variables
    ]
    looped = sum(1 << i for i, m in enumerate(out) if m >> i & 1)
    domains = [looped if v in loops else (1 << len(out)) - 1 for v in variables]
    return variables, domains, constraints


def digraph_hom_count(D1: Digraph, D2: Digraph) -> int:
    """The number of arc-preserving vertex maps D1 -> D2, counted without enumerating them."""
    return _count_solutions(*_digraph_search(D1, D2)[1:])


def enumerate_digraph_homs(D1: Digraph, D2: Digraph, limit: Optional[int] = None) -> Iterator[dict[Vertex, Vertex]]:
    """Stream the arc-preserving vertex maps D1 -> D2 as plain dicts, at most ``limit``."""
    variables, leaves = digraph_hom_leaves(D1, D2, limit)
    for leaf in leaves:
        yield _mapping(variables, D2.vertices, leaf)
