"""Arc consistency from union tables against the bit-by-bit revision it replaced.

``reference_propagate`` is the engine's earlier ``_propagate``: it revises a
support by OR-ing one row per bit of the domain.  The engine now reads each
union from a table that belongs to one search.  Both must narrow every
constraint network that ``_hom_search`` and ``_digraph_search`` build to the
same domains, or both report a wipe-out; the tables must give every live
search its own unions.
"""

from __future__ import annotations

import random

import pytest

from slicecat import homsearch
from slicecat.core import Graph, SliceObject, build_path
from slicecat.homsearch import (
    _digraph_search,
    _hom_search,
    _propagate,
    classify_endomorphisms,
    digraph_hom_leaves,
    hom_leaves,
)

from conftest import (
    digraph_variable_order,
    graph_variable_order,
    load_workloads,
    naive_digraph_homs,
    naive_homs,
    naive_slice_homs,
    random_digraph,
    random_graph,
    static_order_sequence,
)


def reference_propagate(doms, changed, constraints):
    """AC-3 revising each support bit by bit, as the engine did before its union tables."""
    queue = list(changed)
    while queue:
        x = queue.pop()
        dx = doms[x]
        for support, _, partners in constraints[x]:
            allowed = 0
            m = dx
            while m:
                low = m & -m
                allowed |= support[low.bit_length() - 1]
                m ^= low
            for y in partners:
                dy = doms[y] & allowed
                if dy != doms[y]:
                    if not dy:
                        return None
                    doms[y] = dy
                    if y not in queue:
                        queue.append(y)
    return doms


def random_slice(rng: random.Random, base: Graph, max_vertices: int) -> SliceObject:
    """A carrier over random colors, joined only where the colors are adjacent."""
    n = rng.randint(0, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    color = {v: rng.choice(base.vertices) for v in vs}
    edges = [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if base.has_edge(color[u], color[v]) and rng.random() < 0.6
    ]
    return SliceObject(Graph(vs, edges), base, color)


def random_network(rng: random.Random, kind: str):
    """The (variables, domains, constraints) of one random search of ``kind``."""
    if kind == "graph":
        return _hom_search(random_graph(rng, 7), random_graph(rng, 7, 0.5))
    if kind == "slice":
        base = rng.choice([build_path(2), build_path(3)])
        return _hom_search(random_slice(rng, base, 7), random_slice(rng, base, 8))
    return _digraph_search(random_digraph(rng, 5), random_digraph(rng, 5, 0.45))


def random_subset(rng: random.Random, domain: int) -> int:
    """A non-empty subset of a non-empty bitset."""
    bits = [1 << i for i in range(domain.bit_length()) if domain >> i & 1]
    return sum(rng.sample(bits, rng.randint(1, len(bits))))


def assert_same_narrowing(doms, changed, constraints):
    want = reference_propagate(list(doms), changed, constraints)
    got = _propagate(list(doms), changed, constraints)
    assert got == want


@pytest.mark.parametrize("kind", ["graph", "slice", "digraph"])
@pytest.mark.parametrize("seed", range(5))
def test_union_tables_narrow_like_the_bitwise_revision(kind, seed):
    rng = random.Random(f"{kind}:{seed}")
    for _ in range(40):
        _, domains, constraints = random_network(rng, kind)
        if not domains or not all(domains):
            continue
        assert_same_narrowing(domains, range(len(domains)), constraints)
        # narrow from many different states of one search, so its tables
        # are read again for domains they already hold
        root = _propagate(list(domains), range(len(domains)), constraints)
        start = root or domains
        for _ in range(15):
            doms = list(start)
            changed = rng.sample(range(len(doms)), rng.randint(1, len(doms)))
            for x in changed:
                doms[x] = random_subset(rng, doms[x])
            assert_same_narrowing(doms, changed, constraints)


@pytest.mark.parametrize("seed", [1, 7, 12])
def test_endos_benchmark_objects_classify_as_with_the_bitwise_revision(seed, monkeypatch):
    # the products reach 102 vertices, where the tables are read far more
    # often than they are filled
    workloads = load_workloads()
    objects = [call.args[0] for call in workloads._build_endos(random.Random(f"endos:{seed}"))]
    got = [classify_endomorphisms(x).to_dict() for x in objects]
    monkeypatch.setattr(homsearch, "_propagate", reference_propagate)
    assert got == [classify_endomorphisms(x).to_dict() for x in objects]


def test_live_searches_keep_their_own_unions():
    # searches over different hosts run interleaved, and each finished one
    # is replaced by a new one, so support lists are freed and allocated
    # while others are live: a table shared between searches, or one keyed
    # by the support's id(), hands a search another host's unions
    rng = random.Random(2024)
    base = build_path(3)

    def fresh():
        """A new search: its variables, raw stream, host vertices and the oracle's sequence."""
        kind = rng.choice(["graph", "slice", "digraph"])
        if kind == "digraph":
            d1, d2 = random_digraph(rng, 4), random_digraph(rng, 4, 0.5)
            want = static_order_sequence(naive_digraph_homs(d1, d2), digraph_variable_order(d1))
            return (*digraph_hom_leaves(d1, d2), d2.vertices, want)
        if kind == "slice":
            x, y = random_slice(rng, base, 4), random_slice(rng, base, 5)
            want = static_order_sequence(naive_slice_homs(x, y), graph_variable_order(x.carrier))
            return (*hom_leaves(x, y), y.carrier.vertices, want)
        a, b = random_graph(rng, 4), random_graph(rng, 5, 0.6)
        want = static_order_sequence(naive_homs(a, b), graph_variable_order(a))
        return (*hom_leaves(a, b), b.vertices, want)

    live = [(*fresh(), []) for _ in range(6)]
    finished = 0
    while finished < 200:
        for k, (variables, leaves, values, want, got) in enumerate(live):
            leaf = next(leaves, None)
            if leaf is None:
                assert got == want
                live[k] = (*fresh(), [])
                finished += 1
            else:
                got.append(tuple(sorted((v, values[d.bit_length() - 1]) for v, d in zip(variables, leaf))))
