"""Small monoids realized as endomorphism monoids through the gadget functor.

The paper's headline claim is algebraic universality: every monoid is End of
a slice object.  For the cyclic monoid M = <g | g^(i+p) = g^i>, let D be the
functional digraph of right multiplication by g on g^0..g^(i+p-1).  A digraph
endomorphism of D commutes with the successor, so it is fixed by the image
of g^0, and every image works: End(D) is M, of order i + p.  The full
embedding D -> F(D) = ``arrow_slice(D, gadget)`` then gives End(F(D)) = M.
The units of M are the powers of g when i = 0 (the cyclic group of order p)
and only the identity otherwise, so Aut(F(D)) has p elements or one.
"""

import pytest

from slicecat.arrow import arrow_slice
from slicecat.core import Digraph
from slicecat.gadgets import BUILTIN_GADGET_NAMES, builtin_gadget
from slicecat.homsearch import classify_endomorphisms, digraph_hom_count, slice_hom_count

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
