"""Small monoids realized as endomorphism monoids through the gadget functor.

The paper's headline claim is algebraic universality: every monoid is End of
a slice object.  For the cyclic monoid M = <g | g^(i+p) = g^i>, let D be the
functional digraph of right multiplication by g on g^0..g^(i+p-1).  A digraph
endomorphism of D commutes with the successor, so it is fixed by the image
of g^0, and every image works: End(D) is M, of order i + p.  The full
embedding D -> F(D) = ``arrow_slice(D, gadget)`` then gives End(F(D)) = M.
The units of M are the powers of g when i = 0 (the cyclic group of order p)
and only the identity otherwise, so Aut(F(D)) has p elements or one.

Beyond the cyclic ones, every monoid of order at most 4 is compared by its
composition table.  Up to isomorphism there are 1, 2, 7 and 35 of orders
1-4 (OEIS A058129), counted here by brute force over the tables with the
identity as element 0.  The endomorphism monoids of the digraphs on at most
4 vertices with at most 4 endomorphisms realize 1, 2, 7 and 21 of them; 30
of those 31 have a realizer with an arc and no isolated vertex, and through
every built-in gadget F(D) has the same table as D.
"""

from itertools import permutations, product

import pytest

from slicecat.arrow import arrow_slice
from slicecat.core import Digraph
from slicecat.gadgets import BUILTIN_GADGET_NAMES, builtin_gadget
from slicecat.homsearch import (
    classify_endomorphisms,
    digraph_from_mask,
    digraph_hom_count,
    enumerate_digraph_homs,
    enumerate_slice_homs,
    least_masks,
    slice_hom_count,
)

# (index i, period p); |M| = i + p runs up to 11
CYCLIC_MONOIDS = [(0, 1), (1, 1), (0, 3), (2, 3), (3, 4), (5, 6), (0, 4), (1, 2)]


def right_multiplication(i: int, p: int) -> Digraph:
    """The functional digraph of x -> xg on the cyclic monoid of index i and period p."""
    n = i + p
    return Digraph([f"g{k}" for k in range(n)], [(f"g{k}", f"g{k + 1 if k + 1 < n else i}") for k in range(n)])


@pytest.mark.parametrize("gadget_name", BUILTIN_GADGET_NAMES)
@pytest.mark.parametrize("i, p", CYCLIC_MONOIDS)
def test_cyclic_monoid_is_the_endomorphism_monoid_of_its_product(gadget_name, i, p):
    D = right_multiplication(i, p)
    F = arrow_slice(D, builtin_gadget(gadget_name))
    report = classify_endomorphisms(F)
    assert digraph_hom_count(D, D) == slice_hom_count(F, F) == report.endo_count == i + p
    assert report.auto_count == (p if i == 0 else 1)


def canonical_table(table: list[list[int]]) -> tuple[int, ...]:
    """The least relabeled form of a monoid table with identity 0 over the
    relabelings that fix 0, so two tables share it iff their monoids are
    isomorphic."""
    n = len(table)
    forms = []
    for rest in permutations(range(1, n)):
        new = (0, *rest)
        old = sorted(range(n), key=new.__getitem__)
        forms.append(tuple(new[table[old[i]][old[j]]] for i in range(n) for j in range(n)))
    return min(forms)


def composition_table(vertices: tuple, maps: list[dict]) -> list[list[int]]:
    """The table of f∘g over ``maps``, self-maps of ``vertices`` with the
    identity among them, renumbered so that the identity is 0."""
    images = sorted((tuple(m[v] for v in vertices) for m in maps), key=lambda image: image != vertices)
    at = {v: i for i, v in enumerate(vertices)}
    index = {image: k for k, image in enumerate(images)}
    return [[index[tuple(f[at[x]] for x in g)] for g in images] for f in images]


def end_table(D: Digraph) -> list[list[int]]:
    return composition_table(D.vertices, list(enumerate_digraph_homs(D, D)))


@pytest.fixture(scope="module")
def small_monoids() -> set[tuple[int, ...]]:
    """Every monoid of order 1-4 up to isomorphism, as its canonical table:
    each associative table with identity 0, by brute force."""
    found = set()
    for n in range(1, 5):
        cells = [(i, j) for i in range(1, n) for j in range(1, n)]
        for values in product(range(n), repeat=len(cells)):
            table = [[i or j for j in range(n)] for i in range(n)]
            for (i, j), value in zip(cells, values):
                table[i][j] = value
            if all(table[table[a][b]][c] == table[a][table[b][c]] for a, b, c in product(range(1, n), repeat=3)):
                found.add(canonical_table(table))
    return found


@pytest.fixture(scope="module")
def realizers() -> dict[tuple[int, ...], list[Digraph]]:
    """Per monoid, the digraph classes on at most 4 vertices (least masks in
    order) with at most 4 endomorphisms whose End is that monoid."""
    found: dict[tuple[int, ...], list[Digraph]] = {}
    for n in range(1, 5):
        for mask in sorted(set(least_masks(n, True))):
            D = digraph_from_mask(n, mask)
            if digraph_hom_count(D, D) <= 4:
                found.setdefault(canonical_table(end_table(D)), []).append(D)
    return found


def first_glueable(digraphs: list[Digraph]):
    """The first digraph with an arc and no isolated vertex, which the
    gadget functor embeds, or None."""
    return next((D for D in digraphs if D.arcs and not D.isolated_vertices()), None)


def orders(monoids) -> list[int]:
    return [sum(1 for table in monoids if len(table) == k * k) for k in range(1, 5)]


def test_monoids_of_order_at_most_four(small_monoids):
    assert orders(small_monoids) == [1, 2, 7, 35]


def test_small_digraphs_realize_31_of_them(small_monoids, realizers):
    assert orders(realizers) == [1, 2, 7, 21]
    assert set(realizers) <= small_monoids
    glueable = [D for D in map(first_glueable, realizers.values()) if D is not None]
    assert len(glueable) == 30


@pytest.mark.parametrize("gadget_name", BUILTIN_GADGET_NAMES)
def test_small_monoid_is_the_endomorphism_monoid_of_its_product(realizers, gadget_name):
    gadget = builtin_gadget(gadget_name)
    for monoid, digraphs in realizers.items():
        D = first_glueable(digraphs)
        if D is None:
            continue
        F = arrow_slice(D, gadget)
        endos = [m.map.as_dict() for m in enumerate_slice_homs(F, F)]
        assert len(endos) ** 2 == len(monoid)
        assert len({tuple(e[v] for v in D.vertices) for e in endos}) == len(endos)
        assert canonical_table(composition_table(F.carrier.vertices, endos)) == monoid
