"""Shared brute-force oracles and instance generators.

The oracles enumerate every candidate map and filter, independent of the
search engine's pruning and ordering, so engine results can be checked
against them set-for-set.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

from slicecat.core import Digraph, Graph, SliceObject, is_homomorphism


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
