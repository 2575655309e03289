"""Differential tests of the search engine against the brute-force oracles.

Each public enumerator must yield exactly the oracle's solution set, in the
sequence a plain depth-first search with the static variable order and
ascending values would emit: sorted by the images along that order.
``classify_endomorphisms`` counts from the engine's raw solutions and must
agree with the oracle's counts.
"""

from hypothesis import given, settings, strategies as st

from slicecat.core import Digraph, Graph, Morphism, SliceObject, build_path, is_homomorphism
from slicecat.homsearch import (
    _adjacency_masks,
    classify_endomorphisms,
    contains_subgraph,
    enumerate_digraph_homs,
    enumerate_homs,
    enumerate_slice_homs,
)

from conftest import (
    digraph_variable_order,
    graph_variable_order,
    naive_digraph_homs,
    naive_endo_counts,
    naive_homs,
    naive_slice_homs,
    static_order_sequence,
)

BASES = [build_path(1), build_path(3), Graph(list("012"), [("0", "1"), ("1", "2"), ("0", "2")])]
# ids chosen so that lexicographic order differs from creation order
NAMES = ["v3", "a", "Z", "v10", "b b", "v1"]


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


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=4), graphs(max_vertices=4), st.data())
def test_pinned_graph_homs_match_oracle(a, b, data):
    if not a.vertices or not b.vertices:
        return
    v = data.draw(st.sampled_from(a.vertices))
    w = data.draw(st.sampled_from(b.vertices))
    got = [m.mapping for m in enumerate_homs(a, b, pins={v: w})]
    expected = {key for key in naive_homs(a, b) if dict(key)[v] == w}
    assert got == static_order_sequence(expected, graph_variable_order(a))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BASES).flatmap(lambda base: st.tuples(slice_objects(base), slice_objects(base))))
def test_slice_homs_match_oracle_in_order(pair):
    x, y = pair
    got = [sm.map.mapping for sm in enumerate_slice_homs(x, y)]
    assert got == static_order_sequence(naive_slice_homs(x, y), graph_variable_order(x.carrier))


@settings(max_examples=150, deadline=None)
@given(digraphs(), digraphs(max_vertices=3))
def test_digraph_homs_match_oracle_in_order(d1, d2):
    got = [tuple(sorted(m.items())) for m in enumerate_digraph_homs(d1, d2)]
    assert got == static_order_sequence(naive_digraph_homs(d1, d2), digraph_variable_order(d1))


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=4), graphs(max_vertices=6))
def test_subgraph_containment_finds_first_injective_hom(pattern, host):
    injective = {
        key for key in naive_homs(pattern, host) if len({w for _, w in key}) == len(key)
    }
    found = contains_subgraph(pattern, host)
    if not injective:
        assert found is None
    else:
        first = static_order_sequence(injective, graph_variable_order(pattern))[0]
        assert found is not None and found.mapping == first


def _check_endo_report(report, carrier, color, endos, autos):
    assert (report.endo_count, report.auto_count) == (endos, autos)
    if endos == autos:
        assert report.witness is None
        return
    w = report.witness
    assert isinstance(w, Morphism) and w.domain == w.codomain == carrier
    assert is_homomorphism(w.as_dict(), carrier, carrier) == (True, None)
    assert not w.is_bijective()
    if color is not None:
        assert all(color[w(v)] == color[v] for v in carrier.vertices)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_graph_endo_counts_match_oracle(g):
    homs = naive_homs(g, g)
    autos = sum(1 for key in homs if len({w for _, w in key}) == g.vertex_count)
    _check_endo_report(classify_endomorphisms(g), g, None, len(homs), autos)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BASES).flatmap(lambda base: slice_objects(base)))
def test_slice_endo_counts_match_oracle(x):
    report = classify_endomorphisms(x)
    _check_endo_report(report, x.carrier, x.structure_map.as_dict(), *naive_endo_counts(x))


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
