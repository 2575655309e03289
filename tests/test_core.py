import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from slicecat.core import (
    Digraph,
    Graph,
    Morphism,
    SliceMorphism,
    SliceObject,
    build_cycle,
    build_path,
    build_star,
    disjoint_union,
    is_homomorphism,
    path_order,
)

from conftest import random_graph


class TestBuilders:
    def test_path_degenerate(self):
        g = build_path(0)
        assert g.vertex_count == 1 and g.edge_count == 0

    def test_path_three(self):
        g = build_path(3)
        assert g.vertex_count == 4 and g.edge_count == 3

    def test_path_twelve(self):
        g = build_path(12)
        assert g.vertex_count == 13 and g.edge_count == 12

    @pytest.mark.parametrize("n,vertices,edges", [(3, 3, 3), (4, 4, 4)])
    def test_cycles(self, n, vertices, edges):
        g = build_cycle(n)
        assert (g.vertex_count, g.edge_count) == (vertices, edges)

    def test_cycle_too_short(self):
        with pytest.raises(ValueError):
            build_cycle(2)

    def test_star_three_is_y(self):
        g = build_star(3)
        assert g.vertex_count == 4 and g.edge_count == 3
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 3]

    def test_star_degenerate(self):
        assert build_star(0).vertex_count == 1
        assert build_star(1).edge_count == 1

    def test_disjoint_union_counts(self):
        p3 = build_path(3)
        u = disjoint_union([p3, p3])
        assert u.vertex_count == 8 and u.edge_count == 6
        assert disjoint_union([]).vertex_count == 0
        mix = disjoint_union([build_cycle(3), build_star(3)])
        assert mix.vertex_count == 7 and mix.edge_count == 6


class TestGraphInvariants:
    def test_no_loops(self):
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "a")])

    def test_edge_endpoints_must_exist(self):
        with pytest.raises(ValueError):
            Graph(["a", "b"], [("a", "c")])

    def test_edges_deduplicate_either_orientation(self):
        g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.edge_count == 1

    def test_vertices_sorted(self):
        g = Graph(["b", "a", "c"])
        assert g.vertices == ("a", "b", "c")

    def test_digraph_loops_allowed_and_isolated_queryable(self):
        d = Digraph(["a", "b"], [("a", "a")])
        assert d.has_arc("a", "a")
        assert d.is_isolated("b") and not d.is_isolated("a")
        assert d.isolated_vertices() == ("b",)

    def test_relabel_renames_vertices_and_edges(self):
        g = build_path(2).relabel({"v0": "a", "v1": "b", "v2": "c"})
        assert g == Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"v0": "a", "v1": "b"}, "not total: no image for vertex 'v2'"),
            ({"v0": "a", "v1": "b", "v2": "c", "zz": "a"}, r"outside the graph: \['zz'\]"),
            ({"v0": "a", "v1": "b", "v2": "c", 0: "d", "zz": "e"}, r"outside the graph: \[0, 'zz'\]"),
            ({"v0": "a", "v1": "a", "v2": "c"}, "not injective: 'v0' and 'v1' both go to 'a'"),
        ],
        ids=["partial", "outside-key", "outside-keys-of-two-types", "not-injective"],
    )
    def test_relabel_refuses_a_map_that_is_not_a_bijection_of_the_vertices(self, mapping, message):
        with pytest.raises(ValueError, match=message):
            build_path(2).relabel(mapping)


class TestHomomorphismCheck:
    def test_identity_on_triangle(self):
        c3 = build_cycle(3)
        ok, witness = is_homomorphism({v: v for v in c3.vertices}, c3, c3)
        assert ok and witness is None

    def test_constant_map_from_edge_fails_with_witness(self):
        k2 = build_path(1)
        ok, witness = is_homomorphism({"v0": "v0", "v1": "v0"}, k2, k2)
        assert not ok and witness == ("v0", "v1")

    def test_zigzag_path_onto_triangle(self):
        # the length-3 path folds onto the triangle with both ends at "0"
        p = Graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        c3 = Graph(list("012"), [("0", "1"), ("1", "2"), ("0", "2")])
        ok, _ = is_homomorphism({"a": "0", "b": "1", "c": "2", "d": "0"}, p, c3)
        assert ok

    def test_partial_map_is_an_error_not_false(self):
        k2 = build_path(1)
        with pytest.raises(ValueError):
            is_homomorphism({"v0": "v0"}, k2, k2)

    def test_out_of_range_image_is_an_error(self):
        k2 = build_path(1)
        with pytest.raises(ValueError):
            is_homomorphism({"v0": "zz", "v1": "v0"}, k2, k2)

    def test_morphism_construction_rejects_bad_map(self):
        k2 = build_path(1)
        with pytest.raises(ValueError):
            Morphism(k2, k2, {"v0": "v0", "v1": "v0"})
        # outside keys of two types are named, not compared with each other
        with pytest.raises(ValueError, match=r"outside the domain: \[0, 'zz'\]"):
            Morphism(k2, k2, {"v0": "v0", "v1": "v1", 0: "v0", "zz": "v1"})

    def test_morphism_roundtrip_with_checker(self):
        rng = random.Random(11)
        built = 0
        for _ in range(200):
            a = random_graph(rng, 4)
            b = random_graph(rng, 4)
            if not a.vertices or not b.vertices:
                continue
            mapping = {v: rng.choice(b.vertices) for v in a.vertices}
            ok, _ = is_homomorphism(mapping, a, b)
            if ok:
                Morphism(a, b, mapping)
                built += 1
            else:
                with pytest.raises(ValueError):
                    Morphism(a, b, mapping)
        assert built > 0


def refusal(build) -> str:
    """The text of the ValueError that ``build()`` raises."""
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


class TestValidatorRefusals:
    """Every refusal of ``Morphism`` and ``SliceMorphism``, word for word."""

    P2 = build_path(2)

    def test_stray_key(self):
        message = refusal(lambda: Morphism(self.P2, self.P2, {"v0": "v1", "v1": "v0", "v2": "v1", "zz": "v0"}))
        assert message == "map assigns vertices outside the domain: ['zz']"

    def test_map_that_is_not_total(self):
        message = refusal(lambda: Morphism(self.P2, self.P2, {"v0": "v1", "v2": "v1"}))
        assert message == "map is not total: no image for vertex 'v1'"

    def test_image_outside_the_codomain(self):
        message = refusal(lambda: Morphism(self.P2, self.P2, {"v0": "v1", "v1": "zz", "v2": "v1"}))
        assert message == "image 'zz' of 'v1' is not a codomain vertex"

    def test_non_edge_names_the_first_violating_edge(self):
        # ('v0', 'v1') lands on an edge; ('v1', 'v2') is the first that does not
        message = refusal(lambda: Morphism(self.P2, self.P2, {"v0": "v0", "v1": "v1", "v2": "v1"}))
        assert message == "map does not preserve edge ('v1', 'v2'): ('v1', 'v1') is not a codomain edge"
        message = refusal(lambda: Morphism(self.P2, self.P2, {"v0": "v2", "v1": "v0", "v2": "v2"}))
        assert message == "map does not preserve edge ('v0', 'v1'): ('v2', 'v0') is not a codomain edge"

    def test_scrambled_key_order_is_kept_sorted(self):
        m = Morphism(self.P2, self.P2, {"v2": "v1", "v0": "v1", "v1": "v2"})
        assert m.mapping == (("v0", "v1"), ("v1", "v2"), ("v2", "v1"))
        assert list(m.as_dict()) == ["v0", "v1", "v2"]

    def test_structure_map_endpoints_that_do_not_match(self):
        p1 = build_path(1)
        message = refusal(lambda: SliceObject(p1, self.P2, Morphism.identity(p1)))
        assert message == "structure map endpoints do not match carrier/base"

    def test_slice_morphism_endpoints_that_do_not_match(self):
        x = SliceObject(self.P2, self.P2, {v: v for v in self.P2.vertices})
        message = refusal(lambda: SliceMorphism(x, x, Morphism.identity(build_path(1))))
        assert message == "carrier map endpoints do not match the slice objects"

    def test_different_bases(self):
        x = SliceObject(build_path(1), build_path(1), {"v0": "v0", "v1": "v1"})
        y = SliceObject(build_path(1), build_path(2), {"v0": "v0", "v1": "v1"})
        message = refusal(lambda: SliceMorphism(x, y, {"v0": "v0", "v1": "v1"}))
        assert message == "slice morphism endpoints live over different bases"

    def test_non_commuting_triangle_names_its_vertex_and_both_colours(self):
        # over the identity colouring only the identity commutes: v2 -> v0
        # lands on colour v0, where v2 has colour v2
        x = SliceObject(self.P2, self.P2, {"v0": "v0", "v1": "v1", "v2": "v2"})
        SliceMorphism(x, x, {"v0": "v0", "v1": "v1", "v2": "v2"})
        message = refusal(lambda: SliceMorphism(x, x, {"v0": "v0", "v1": "v1", "v2": "v0"}))
        assert message == "triangle does not commute at 'v2': 'v0' != 'v2'"


class TestSliceTypes:
    def test_slice_object_validates_structure_map(self):
        p3 = build_path(3)
        with pytest.raises(ValueError):
            SliceObject(build_cycle(3), p3, {"v0": "v0", "v1": "v1", "v2": "v0"})

    def test_slice_morphism_requires_commuting_triangle(self):
        p1 = build_path(1)
        x = SliceObject(p1, p1, {"v0": "v0", "v1": "v1"})
        swapped = SliceObject(p1, p1, {"v0": "v1", "v1": "v0"})
        SliceMorphism(x, x, {"v0": "v0", "v1": "v1"})
        with pytest.raises(ValueError):
            SliceMorphism(x, swapped, {"v0": "v0", "v1": "v1"})

    def test_slice_morphism_rejects_mismatched_bases(self):
        x = SliceObject(build_path(1), build_path(1), {"v0": "v0", "v1": "v1"})
        y = SliceObject(build_path(1), build_path(2), {"v0": "v0", "v1": "v1"})
        with pytest.raises(ValueError):
            SliceMorphism(x, y, {"v0": "v0", "v1": "v1"})


@st.composite
def graphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(vs, chosen)


class TestSerialization:
    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_graph_json_roundtrip(self, g):
        assert Graph.from_dict(json.loads(json.dumps(g.to_dict()))) == g

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_graph_edgelist_roundtrip(self, g):
        assert Graph.from_edgelist(g.to_edgelist()) == g

    def test_digraph_roundtrip(self):
        d = Digraph(["a", "b", "c"], [("a", "a"), ("a", "b"), ("c", "b")])
        assert Digraph.from_dict(d.to_dict()) == d
        assert Digraph.from_edgelist(d.to_edgelist()) == d

    def test_slice_roundtrip(self):
        p3 = build_path(3)
        x = SliceObject(p3, p3, {v: v for v in p3.vertices})
        assert SliceObject.from_dict(x.to_dict()) == x

    def test_serialized_edges_are_lexicographic(self):
        g = Graph(["b", "a", "c"], [("c", "b"), ("b", "a")])
        assert g.to_dict()["edges"] == [["a", "b"], ["b", "c"]]

    def test_parse_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            Graph.from_dict({"vertices": []})

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=4), graphs(max_vertices=4))
    def test_disjoint_union_counts_are_sums(self, a, b):
        u = disjoint_union([a, b])
        assert u.vertex_count == a.vertex_count + b.vertex_count
        assert u.edge_count == a.edge_count + b.edge_count


# ids the edge-list format can carry: non-empty, no whitespace, no "#"
WRITABLE_IDS = st.text(min_size=1, max_size=4).filter(
    lambda v: "#" not in v and not any(c.isspace() for c in v)
)
BREAKERS = ["#", " ", "\t", "\n", "\x1c", "\u2028"]
UNWRITABLE_IDS = st.one_of(
    st.just(""),
    st.tuples(WRITABLE_IDS, st.sampled_from(BREAKERS), st.text(max_size=2)).map("".join),
)


class TestIds:
    @pytest.mark.parametrize("cls", [Graph, Digraph])
    def test_bare_string_is_not_a_vertex_list(self, cls):
        with pytest.raises(TypeError):
            cls("abc")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(WRITABLE_IDS, min_size=1, max_size=6, unique=True), st.data())
    def test_edgelist_roundtrip_of_writable_ids(self, ids, data):
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))))
        d = Digraph(ids, pairs)
        assert Digraph.from_edgelist(d.to_edgelist()) == d
        g = Graph(ids, [(u, v) for u, v in pairs if u != v])
        assert Graph.from_edgelist(g.to_edgelist()) == g

    @settings(max_examples=100, deadline=None)
    @given(UNWRITABLE_IDS, st.booleans())
    def test_edgelist_rejects_unwritable_ids(self, bad, isolated):
        edges = [] if isolated else [(bad, "x")]
        for obj in (Graph([bad, "x"], edges), Digraph([bad, "x"], edges)):
            with pytest.raises(ValueError, match="edge list"):
                obj.to_edgelist()

    def test_edgelist_rejects_reported_ids(self):
        g = Graph(["a b", "c#d", "e"], [("a b", "e")])
        with pytest.raises(ValueError):
            g.to_edgelist()


class TestPathOrder:
    def test_orders_from_least_endpoint(self):
        g = Graph(["m", "a", "z"], [("m", "a"), ("m", "z")])
        assert path_order(g, g.vertices) == ("a", "m", "z")

    def test_rejects_non_path(self):
        c = build_cycle(3)
        with pytest.raises(ValueError):
            path_order(c, c.vertices)
