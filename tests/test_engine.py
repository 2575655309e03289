"""Differential tests of the search engine against the brute-force oracles.

Each public enumerator must yield exactly the oracle's solution set, in the
sequence a plain depth-first search with the static variable order and
ascending values would emit: sorted by the images along that order.  Each
count (``hom_count``, ``slice_hom_count``, ``digraph_hom_count``) must equal
the length of that stream.  ``classify_endomorphisms`` must agree with the
oracle's counts, and its witness must be the oracle's first non-bijective
endomorphism in that sequence.  ``endomorphism_verdict`` must give the
verdict of the oracle's counts.
"""

import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from slicecat.core import Digraph, Graph, Morphism, SliceObject, build_cycle, build_path, disjoint_union
from slicecat.homsearch import (
    EndoVerdict,
    _adjacency_masks,
    classify_endomorphisms,
    digraph_hom_count,
    digraph_hom_leaves,
    endomorphism_verdict,
    enumerate_digraph_homs,
    enumerate_homs,
    enumerate_slice_homs,
    hom_count,
    hom_leaves,
    slice_hom_count,
)
from slicecat.universality import random_slice_object

from conftest import (
    digraph_variable_order,
    graph_variable_order,
    naive_digraph_homs,
    naive_endo_counts,
    naive_homs,
    naive_slice_homs,
    random_digraph,
    random_graph,
    static_order_sequence,
)

BASES = [build_path(1), build_path(3), Graph(list("012"), [("0", "1"), ("1", "2"), ("0", "2")])]
# ids chosen so that lexicographic order differs from creation order
NAMES = ["v3", "a", "Z", "v10", "b b", "v1", "c"]


@st.composite
def graphs(draw, max_vertices=5):
    n = draw(st.integers(0, max_vertices))
    vs = NAMES[:n]
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(vs, [p for p, keep in zip(pairs, chosen) if keep])


@st.composite
def slice_objects(draw, base, max_vertices=5):
    """A random carrier built over random colors, so the structure map is a
    homomorphism by construction: only pairs with adjacent colors may be joined."""
    n = draw(st.integers(0, max_vertices))
    vs = NAMES[:n]
    color = {v: draw(st.sampled_from(base.vertices)) for v in vs}
    pairs = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if base.has_edge(color[vs[i]], color[vs[j]])
    ]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    carrier = Graph(vs, [p for p, keep in zip(pairs, chosen) if keep])
    return SliceObject(carrier, base, color)


@st.composite
def digraphs(draw, max_vertices=4):
    n = draw(st.integers(1, max_vertices))
    vs = NAMES[:n]
    pairs = [(u, v) for u in vs for v in vs]  # loops included
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(vs, [p for p, keep in zip(pairs, chosen) if keep])


@settings(max_examples=150, deadline=None)
@given(graphs(), graphs())
def test_graph_homs_match_oracle_in_order(a, b):
    got = [m.mapping for m in enumerate_homs(a, b)]
    assert got == static_order_sequence(naive_homs(a, b), graph_variable_order(a))
    assert hom_count(a, b) == len(got)


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=7), graphs(max_vertices=3))
def test_sparse_pattern_counts_match_oracle(a, b):
    # larger patterns fall apart into more components once a few vertices
    # are fixed, so the component products and the cache are exercised
    assert hom_count(a, b) == len(naive_homs(a, b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BASES).flatmap(lambda base: st.tuples(slice_objects(base), slice_objects(base))))
def test_slice_homs_match_oracle_in_order(pair):
    x, y = pair
    got = [sm.map.mapping for sm in enumerate_slice_homs(x, y)]
    assert got == static_order_sequence(naive_slice_homs(x, y), graph_variable_order(x.carrier))
    assert slice_hom_count(x, y) == len(got)


@settings(max_examples=150, deadline=None)
@given(digraphs(), digraphs(max_vertices=3))
def test_digraph_homs_match_oracle_in_order(d1, d2):
    got = [tuple(sorted(m.items())) for m in enumerate_digraph_homs(d1, d2)]
    assert got == static_order_sequence(naive_digraph_homs(d1, d2), digraph_variable_order(d1))
    assert digraph_hom_count(d1, d2) == len(got)


def limited_streams(rng: random.Random, kind: str):
    """The streams of one random search of ``kind``, each as a function from
    ``limit`` to a list: the raw solutions and the public enumerator's output."""
    if kind == "digraph":
        d1, d2 = random_digraph(rng, 4), random_digraph(rng, 3, 0.5)
        return [
            lambda k: list(map(tuple, digraph_hom_leaves(d1, d2, k)[1])),
            lambda k: list(enumerate_digraph_homs(d1, d2, k)),
        ]
    if kind == "slice":
        base = rng.choice(BASES)
        x, y = random_slice_object(base, rng, max_vertices=5), random_slice_object(base, rng, max_vertices=5)
        return [
            lambda k: list(map(tuple, hom_leaves(x, y, limit=k)[1])),
            lambda k: list(enumerate_slice_homs(x, y, k)),
        ]
    a, b = random_graph(rng, 5), random_graph(rng, 5, 0.6)
    return [
        lambda k: list(map(tuple, hom_leaves(a, b, limit=k)[1])),
        lambda k: list(enumerate_homs(a, b, limit=k)),
    ]


@pytest.mark.parametrize("kind", ["graph", "slice", "digraph"])
def test_a_limit_keeps_the_first_solutions_of_the_stream(kind):
    rng = random.Random(f"limit:{kind}")
    for _ in range(40):
        for stream in limited_streams(rng, kind):
            full = stream(None)
            for k in (1, 2, 5, len(full) + 1):
                assert stream(k) == full[:k]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_a_vertex_less_pattern_has_one_empty_solution(n):
    vs = [f"v{i}" for i in range(n)]
    host, digraph_host = Graph(vs, zip(vs, vs[1:])), Digraph(vs, zip(vs, vs))
    for limit in (None, 1):
        assert list(hom_leaves(Graph([]), host, limit=limit)[1]) == [[]]
        assert list(digraph_hom_leaves(Digraph([]), digraph_host, limit)[1]) == [[]]
    assert hom_count(Graph([]), host) == digraph_hom_count(Digraph([]), digraph_host) == 1


def _check_endo_report(report, carrier, homs):
    """The oracle's counts, and as witness its first non-bijective endomorphism
    in static order (so the witness is a colour-preserving proper endomorphism)."""
    ordered = static_order_sequence(homs, graph_variable_order(carrier))
    proper = [key for key in ordered if len({w for _, w in key}) < carrier.vertex_count]
    assert (report.endo_count, report.auto_count) == (len(homs), len(homs) - len(proper))
    if not proper:
        assert report.witness is None
        return
    w = report.witness
    assert isinstance(w, Morphism) and w.domain == w.codomain == carrier
    assert w.mapping == proper[0]


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_graph_endo_counts_match_oracle(g):
    _check_endo_report(classify_endomorphisms(g), g, naive_homs(g, g))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BASES).flatmap(lambda base: slice_objects(base, max_vertices=6)))
def test_slice_endo_counts_match_oracle(x):
    _check_endo_report(classify_endomorphisms(x), x.carrier, naive_slice_homs(x, x))


def _oracle_verdict(x) -> EndoVerdict:
    endo, auto = naive_endo_counts(x)
    if endo == 1:
        return EndoVerdict.RIGID
    return EndoVerdict.HAS_PROPER_ENDOMORPHISM if endo > auto else EndoVerdict.AUTOMORPHISMS_ONLY


PATH_BASES = [build_path(3), disjoint_union([build_path(3), build_path(3)])]


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(), st.sampled_from(PATH_BASES).flatmap(slice_objects)))
def test_endomorphism_verdict_matches_oracle(x):
    assert endomorphism_verdict(x) is _oracle_verdict(x)


@pytest.mark.parametrize("x", [Graph([])] + [SliceObject(Graph([]), base, {}) for base in PATH_BASES])
def test_empty_carrier_is_rigid(x):
    assert endomorphism_verdict(x) is _oracle_verdict(x) is EndoVerdict.RIGID


def test_equal_domains_of_different_components_are_cached_apart():
    # a path and a triangle of three vertices each keep full domains in K3,
    # but have 12 and 6 maps there: a cache keyed by domains alone would
    # hand one component the other's count
    pattern = Graph(list("abcdef"), [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"), ("d", "f")])
    assert hom_count(pattern, build_cycle(3)) == 12 * 6


def test_counting_a_long_chain_of_nested_components():
    # ids that sort in path order make every branch leave the rest of the
    # path as one nested component, 1,500 deep
    vs = [f"v{i:04d}" for i in range(1501)]
    assert hom_count(Graph(vs, list(zip(vs, vs[1:]))), build_cycle(3)) == 3 * 2**1500


def _path_walks(vertices: int, steps: int) -> int:
    """Walks with ``steps`` steps on the path with ``vertices`` vertices, by the
    reflection principle: unrestricted walks from i to j minus their
    reflections across the absent vertices -1 and ``vertices``."""

    def free(d: int) -> int:  # unrestricted walks displaced by d
        return comb(steps, (steps + d) // 2) if abs(d) <= steps and (steps + d) % 2 == 0 else 0

    period = 2 * (vertices + 1)
    shifts = range(-steps // period - 1, steps // period + 2)
    return sum(
        free(j - i + m * period) - free(-2 - j - i + m * period)
        for i in range(vertices)
        for j in range(vertices)
        for m in shifts
    )


@pytest.mark.parametrize("n", range(1, 15))
def test_path_endomorphisms_are_its_walks(n):
    # an endomorphism of P_n is a walk of n steps along its n + 1 vertices
    report = classify_endomorphisms(build_path(n))
    assert (report.endo_count, report.auto_count) == (_path_walks(n + 1, n), 2)
    if n == 1:
        assert report.verdict is EndoVerdict.AUTOMORPHISMS_ONLY and report.witness is None
    else:
        assert report.verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM
        assert not report.witness.is_bijective()


@pytest.mark.parametrize("n", range(1, 7))
def test_isolated_one_colour_vertices(n):
    # every vertex is its own component: n^n endomorphisms, n! automorphisms,
    # and the first map in static order sends every vertex to the least one
    vs = [f"x{i}" for i in range(n)]
    x = SliceObject(Graph(vs, []), build_path(0), {v: "v0" for v in vs})
    report = classify_endomorphisms(x)
    assert (report.endo_count, report.auto_count) == (n**n, factorial(n))
    if n == 1:
        assert report.verdict is EndoVerdict.RIGID and report.witness is None
    else:
        assert report.witness.as_dict() == {v: "x0" for v in vs}


def _vertex_mask(index, vertices):
    return sum(1 << index[v] for v in vertices)


@settings(max_examples=100, deadline=None)
@given(graphs(), digraphs())
def test_edge_list_masks_equal_per_vertex_masks(g, d):
    # the searches build adjacency masks from one pass over the edge (arc)
    # list; each must equal the mask of the vertex's own neighbour list
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacency = [o | i for o, i in zip(*_adjacency_masks(index, g.edges))]
    assert adjacency == [_vertex_mask(index, g.neighbors(v)) for v in g.vertices]
    index = {v: i for i, v in enumerate(d.vertices)}
    out, inn = _adjacency_masks(index, d.arcs)
    assert out == [_vertex_mask(index, d.out_neighbors(v)) for v in d.vertices]
    assert inn == [_vertex_mask(index, d.in_neighbors(v)) for v in d.vertices]
