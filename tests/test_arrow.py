import random

import pytest
from hypothesis import given, settings, strategies as st

from slicecat.arrow import (
    arrow_graph,
    arrow_morphism,
    arrow_slice,
    phi,
    product_slice,
    product_structure_map,
)
from slicecat.core import Digraph, Graph, Morphism, SliceMorphism, SliceObject
from slicecat.gadgets import BUILTIN_GADGET_NAMES, Gadget, builtin_gadget, verify_gadget
from slicecat.homsearch import enumerate_digraph_homs, enumerate_digraphs

from conftest import phi_is_strong, random_digraph


def interior_id(u, v, w):
    """The documented product id of interior gadget vertex w in the copy of arc (u, v)."""
    return f"({u},{v})::{w}"


C3_GADGET = builtin_gadget("C3")
SINGLE_ARC = Digraph(["u", "v"], [("u", "v")])
LOOP = Digraph(["u"], [("u", "u")])
# ids glued from the separators of the interior-id format, so that distinct
# arcs often format to the same interior id
ADVERSARIAL_IDS = st.lists(
    st.sampled_from(["a", "b", "c", ",", "(", ")", "::", " ", "\t"]), min_size=1, max_size=3
).map("".join)


class TestDigraphAdjacency:
    @staticmethod
    def assert_sorted_distinct_neighbours(d, arcs):
        for v in d.vertices:
            assert d.out_neighbors(v) == tuple(sorted({w for u, w in arcs if u == v}))
            assert d.in_neighbors(v) == tuple(sorted({u for u, w in arcs if w == v}))

    def test_random_digraphs_with_loops(self):
        rng = random.Random(14)
        for _ in range(200):
            d = random_digraph(rng, 6, rng.random())
            self.assert_sorted_distinct_neighbours(d, d.arcs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ADVERSARIAL_IDS, min_size=1, max_size=5, unique=True), st.data())
    def test_adversarial_ids_with_repeated_arcs(self, names, data):
        # the arcs come in any order and may repeat
        arcs = data.draw(st.lists(st.sampled_from([(u, v) for u in names for v in names]), max_size=12))
        self.assert_sorted_distinct_neighbours(Digraph(names, arcs), arcs)


class TestArrowGraph:
    def test_single_arc_is_one_copy(self):
        res = arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "d")
        assert res.product.vertex_count == 4 and res.product.edge_count == 3
        # one copy of a length-3 path: two ends of degree 1
        degs = sorted(res.product.degree(v) for v in res.product.vertices)
        assert degs == [1, 1, 2, 2]

    def test_two_arcs_vertex_formula(self):
        d = Digraph(["u", "v", "w"], [("u", "v"), ("u", "w")])
        res = arrow_graph(d, C3_GADGET.carrier, "a", "d")
        assert res.product.vertex_count == 3 + 2 * 2
        assert res.product.edge_count == 6

    def test_loop_arc_gives_triangle(self):
        res = arrow_graph(LOOP, C3_GADGET.carrier, "a", "d")
        assert res.product.vertex_count == 3 and res.product.edge_count == 3
        assert all(res.product.degree(v) == 2 for v in res.product.vertices)

    def test_distinguished_vertices_must_differ_and_exist(self):
        with pytest.raises(ValueError):
            arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "a")
        with pytest.raises(ValueError):
            arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "zz")

    def test_loop_with_adjacent_endpoints_rejected(self):
        k2 = Graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="loop"):
            arrow_graph(LOOP, k2, "a", "b")

    def test_interior_id_collision_detected(self):
        clash = Digraph(["u", "v", interior_id("u", "v", "b")], [("u", "v")])
        with pytest.raises(ValueError, match="collides"):
            arrow_graph(clash, C3_GADGET.carrier, "a", "d")

    def test_interior_ids_colliding_with_each_other_detected(self):
        # "(a,b,c)::b" is the interior id of both arcs; before the check the
        # two copies merged into a 6-vertex product and verification failed
        clash = Digraph(["a,b", "c", "a", "b,c"], [("a,b", "c"), ("a", "b,c")])
        with pytest.raises(ValueError, match="collides"):
            arrow_graph(clash, C3_GADGET.carrier, "a", "d")

    @settings(max_examples=100, deadline=None)
    @given(ADVERSARIAL_IDS, ADVERSARIAL_IDS, ADVERSARIAL_IDS)
    def test_shifted_comma_always_detected(self, p, q, r):
        # arcs (p+","+q, r) and (p, q+","+r) both format as "(p,q,r)::w"
        names = {p + "," + q, r, p, q + "," + r}
        arcs = [(p + "," + q, r), (p, q + "," + r)]
        with pytest.raises(ValueError, match="collides"):
            arrow_graph(Digraph(names, arcs), C3_GADGET.carrier, "a", "d")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(ADVERSARIAL_IDS, min_size=1, max_size=4, unique=True),
        st.data(),
    )
    def test_adversarial_ids_never_corrupt_the_product(self, names, data):
        arcs = data.draw(
            st.lists(st.sampled_from([(u, v) for u in names for v in names]), min_size=1, max_size=4, unique=True)
        )
        d = Digraph(names, arcs)
        interior = [w for w in C3_GADGET.carrier.vertices if w not in ("a", "d")]
        ids = list(d.vertices) + [interior_id(u, v, w) for u, v in d.arcs for w in interior]
        if len(set(ids)) < len(ids):
            with pytest.raises(ValueError, match="collides"):
                arrow_graph(d, C3_GADGET.carrier, "a", "d")
            return
        res = arrow_graph(d, C3_GADGET.carrier, "a", "d")
        assert res.product.vertex_count == len(ids)
        assert res.product.edge_count == 3 * d.arc_count
        if not d.isolated_vertices():
            assert verify_gadget(C3_GADGET, d).verdict

    def test_antiparallel_arcs_share_only_base_vertices(self):
        d = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        res = arrow_graph(d, C3_GADGET.carrier, "a", "d")
        assert res.product.vertex_count == 2 + 2 * 2
        img1 = set(phi(res, ("u", "v")).image())
        img2 = set(phi(res, ("v", "u")).image())
        assert img1 & img2 == {"u", "v"}


def two_pass_arrow(D, H, a, b):
    """Reference product: every interior id first, then the copy maps and the
    edges in a second pass over the arcs.  Returns the product, the copy map
    of every arc and the id of every (arc, interior vertex)."""
    interior = [w for w in H.vertices if w not in (a, b)]
    used = set(D.vertices)
    index = {}
    vertices = list(D.vertices)
    for arc in D.arcs:
        for w in interior:
            pid = interior_id(*arc, w)
            if pid in used:
                raise ValueError(f"interior id {pid!r} collides with another product vertex id")
            used.add(pid)
            index[(arc, w)] = pid
            vertices.append(pid)
    copies = {}
    edges = set()
    for arc in D.arcs:
        copy = {w: index[(arc, w)] for w in interior}
        copy.update({a: arc[0], b: arc[1]})
        copies[arc] = copy
        for s, t in H.edges:
            if copy[s] == copy[t]:
                raise ValueError(
                    f"loop arc {arc!r} with gadget edge ({s!r}, {t!r}) between the "
                    "distinguished vertices would create a loop; the product leaves "
                    "simple graphs"
                )
            edges.add((copy[s], copy[t]))
    return Graph(vertices, edges), copies, index


def outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# a carrier whose distinguished vertices are adjacent, so loop arcs fail
ADJACENT_ENDS = Graph(["a", "c", "d"], [("a", "c"), ("a", "d"), ("c", "d")])


class TestOnePassProduct:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(ADVERSARIAL_IDS, st.sampled_from(["u", "v", "w"])), min_size=1, max_size=4, unique=True),
        st.sampled_from(BUILTIN_GADGET_NAMES + ("adjacent",)),
        st.data(),
    )
    def test_matches_the_two_pass_reference(self, names, gadget_name, data):
        arcs = data.draw(st.lists(st.sampled_from([(u, v) for u in names for v in names]), max_size=5, unique=True))
        D = Digraph(names, arcs)
        gadget = None if gadget_name == "adjacent" else builtin_gadget(gadget_name)
        H, a, b = (ADJACENT_ENDS, "a", "d") if gadget is None else (gadget.carrier, gadget.a, gadget.b)
        got = outcome(arrow_graph, D, H, a, b)
        want = outcome(two_pass_arrow, D, H, a, b)
        if isinstance(want, tuple) and want[0] is ValueError:
            assert got == want
            return
        product, copies, index = want
        assert got.product.vertices == product.vertices
        assert got.product.edges == product.edges
        assert got.copies == copies
        assert list(got.copies) == list(D.arcs)
        if gadget is not None:
            f = gadget.slice.structure_map
            expected = {u: f(a) for u in D.vertices}
            expected.update({pid: f(w) for (arc, w), pid in index.items()})
            assert product_structure_map(got, gadget).as_dict() == expected

    def test_a_collision_is_reported_before_an_earlier_loop(self):
        # the loop arc ("A", "A") comes first, the colliding arcs later
        clash = Digraph(["A", "a,b", "c", "a", "b,c"], [("A", "A"), ("a,b", "c"), ("a", "b,c")])
        got = outcome(arrow_graph, clash, ADJACENT_ENDS, "a", "d")
        assert got == outcome(two_pass_arrow, clash, ADJACENT_ENDS, "a", "d")
        assert "collides" in got[1]

    def test_copies_are_read_only(self):
        res = arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "d")
        with pytest.raises(TypeError):
            res.copies[("u", "v")] = {}  # type: ignore[index]


class TestPhi:
    def test_single_arc_case_analysis(self):
        res = arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "d")
        m = phi(res, ("u", "v"))
        assert m.as_dict() == {
            "a": "u",
            "b": interior_id("u", "v", "b"),
            "c": interior_id("u", "v", "c"),
            "d": "v",
        }

    def test_loop_arc_identifies_ends(self):
        res = arrow_graph(LOOP, C3_GADGET.carrier, "a", "d")
        m = phi(res, ("u", "u"))
        assert m("a") == "u" and m("d") == "u"
        interior = [x for x in C3_GADGET.carrier.vertices if x not in ("a", "d")]
        assert len({m(x) for x in interior}) == len(interior)

    def test_unknown_arc_is_an_error(self):
        res = arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "d")
        with pytest.raises(ValueError):
            phi(res, ("v", "u"))

    def test_injective_on_non_loop_arcs(self):
        rng = random.Random(3)
        for _ in range(30):
            d = random_digraph(rng, 4)
            g = builtin_gadget(rng.choice(BUILTIN_GADGET_NAMES))
            res = arrow_graph(d, g.carrier, g.a, g.b)
            for arc in d.arcs:
                m = phi(res, arc)
                if arc[0] != arc[1]:
                    assert m.is_injective()

    def test_strong_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(30):
            d = random_digraph(rng, 4)
            g = builtin_gadget(rng.choice(BUILTIN_GADGET_NAMES))
            res = arrow_graph(d, g.carrier, g.a, g.b)
            for arc in d.arcs:
                ok, witness = phi_is_strong(res, arc)
                assert ok, (arc, witness)


class TestArrowSlice:
    def test_single_arc_colors(self):
        x = arrow_slice(SINGLE_ARC, C3_GADGET)
        # the product is a path whose colors read 0,1,2,0 end to end
        assert x.color("u") == "0" and x.color("v") == "0"
        assert x.color(interior_id("u", "v", "b")) == "1"
        assert x.color(interior_id("u", "v", "c")) == "2"

    def test_loop_gives_colored_triangle(self):
        x = arrow_slice(LOOP, C3_GADGET)
        assert sorted(x.color(v) for v in x.carrier.vertices) == ["0", "1", "2"]

    def test_gadget_invariant_enforced_upstream(self):
        c3 = C3_GADGET.base
        p = Graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        bad = SliceObject(p, c3, {"a": "0", "b": "1", "c": "2", "d": "1"})
        with pytest.raises(ValueError, match="identify"):
            Gadget(bad, "a", "d")

    def test_structure_map_composes_with_phi(self):
        # inherited map after the copy map returns the gadget's own map
        rng = random.Random(13)
        for _ in range(30):
            d = random_digraph(rng, 4)
            g = builtin_gadget(rng.choice(BUILTIN_GADGET_NAMES))
            res = arrow_graph(d, g.carrier, g.a, g.b)
            f_d = product_structure_map(res, g)
            for arc in d.arcs:
                m = phi(res, arc)
                assert all(f_d(m(x)) == g.slice.color(x) for x in g.carrier.vertices)

    def test_slice_phi_validates(self):
        res = arrow_graph(SINGLE_ARC, C3_GADGET.carrier, "a", "d")
        sm = SliceMorphism(C3_GADGET.slice, product_slice(res, C3_GADGET), phi(res, ("u", "v")))
        assert sm.source == C3_GADGET.slice


class TestArrowMorphism:
    def test_identity_maps_to_identity(self):
        h = {v: v for v in SINGLE_ARC.vertices}
        sm = arrow_morphism(SINGLE_ARC, SINGLE_ARC, h, C3_GADGET)
        assert sm.map == Morphism.identity(sm.source.carrier)

    def test_two_homs_two_distinct_images(self):
        two_cycle = Digraph(["x", "y"], [("x", "y"), ("y", "x")])
        homs = list(enumerate_digraph_homs(SINGLE_ARC, two_cycle))
        assert len(homs) == 2
        images = {arrow_morphism(SINGLE_ARC, two_cycle, h, C3_GADGET).map.mapping for h in homs}
        assert len(images) == 2

    def test_non_homomorphism_rejected(self):
        bad = {"u": "u", "v": "u"}
        with pytest.raises(ValueError, match="not a digraph homomorphism"):
            arrow_morphism(SINGLE_ARC, SINGLE_ARC, bad, C3_GADGET)

    def test_malformed_maps_are_value_errors(self):
        with pytest.raises(ValueError, match="not total"):
            arrow_morphism(SINGLE_ARC, SINGLE_ARC, {"u": "u"}, C3_GADGET)
        with pytest.raises(ValueError, match="not a codomain vertex"):
            arrow_morphism(SINGLE_ARC, SINGLE_ARC, {"u": "u", "v": "zz"}, C3_GADGET)
        with pytest.raises(ValueError, match=r"outside the domain: \[0, 'zz'\]"):
            arrow_morphism(SINGLE_ARC, SINGLE_ARC, {"u": "u", "v": "v", "zz": "u", 0: "v"}, C3_GADGET)

    def test_functoriality_on_all_two_vertex_digraphs(self):
        digraphs = [d for n in (1, 2) for d in enumerate_digraphs(n, True)]
        for d1 in digraphs:
            idm = arrow_morphism(d1, d1, {v: v for v in d1.vertices}, C3_GADGET)
            assert idm.map == Morphism.identity(idm.source.carrier)
        rng = random.Random(17)
        triples = [
            (d1, d2, d3)
            for d1 in digraphs
            for d2 in digraphs
            for d3 in digraphs
        ]
        rng.shuffle(triples)
        composed = 0
        for d1, d2, d3 in triples[:120]:
            for h1 in enumerate_digraph_homs(d1, d2):
                for h2 in enumerate_digraph_homs(d2, d3):
                    h21 = {v: h2[h1[v]] for v in d1.vertices}
                    lhs = arrow_morphism(d1, d3, h21, C3_GADGET)
                    rhs = arrow_morphism(d2, d3, h2, C3_GADGET).compose(
                        arrow_morphism(d1, d2, h1, C3_GADGET)
                    )
                    assert lhs.map == rhs.map
                    composed += 1
        assert composed > 50

    def test_faithfulness(self):
        digraphs = [d for n in (1, 2) for d in enumerate_digraphs(n, True)]
        for d1 in digraphs:
            for d2 in digraphs:
                images = {}
                for h in enumerate_digraph_homs(d1, d2):
                    key = arrow_morphism(d1, d2, h, C3_GADGET).map.mapping
                    assert key not in images, "two digraph homs collapsed"
                    images[key] = h


class TestEdgeCount:
    def test_edge_formula_on_builtins(self):
        # the distinguished vertices of every built-in are non-adjacent and
        # share no neighbor, so each arc contributes its full edge complement
        rng = random.Random(19)
        for _ in range(60):
            d = random_digraph(rng, 6, arc_probability=0.25)
            g = builtin_gadget(rng.choice(BUILTIN_GADGET_NAMES))
            res = arrow_graph(d, g.carrier, g.a, g.b)
            assert res.product.edge_count == d.arc_count * g.carrier.edge_count
            assert res.product.vertex_count == d.vertex_count + d.arc_count * (
                g.carrier.vertex_count - 2
            )
