import random
import re

import pytest

from slicecat import universality
from slicecat.arrow import product_layout, product_rows
from slicecat.core import Digraph, Graph, SliceObject, build_cycle, build_path, build_star
from slicecat.gadgets import BUILTIN_GADGET_NAMES, build_gk, builtin_gadget, verify_gadget_exhaustive
from slicecat.homsearch import (
    EndoVerdict,
    classify_endomorphisms,
    digraph_hom_leaves,
    digraph_hom_leaves_into,
    digraph_masks,
    enumerate_digraph_homs,
    enumerate_digraphs,
    enumerate_graphs,
    enumerate_homs,
    enumerate_slice_homs,
    hom_count,
    hom_leaves,
    hom_leaves_into,
    labeled_digraph_classes,
    mask_pairs,
    slice_hom_count,
    slice_pattern,
)
from slicecat.universality import dichotomy_sweep, full_embedding_check, full_embedding_spot_check, random_slice_object

from conftest import (
    graph_variable_order,
    naive_digraph_homs,
    naive_endo_counts,
    naive_homs,
    naive_slice_homs,
    random_digraph,
    random_graph,
    static_order_sequence,
)


def as_keys(morphisms):
    return {m.mapping for m in morphisms}


class TestEnumerateHoms:
    def test_k2_to_k2(self):
        assert hom_count(build_path(1), build_path(1)) == 2

    def test_k2_to_c3(self):
        assert hom_count(build_path(1), build_cycle(3)) == 6

    def test_odd_cycle_into_bipartite(self):
        assert hom_count(build_cycle(3), build_path(1)) == 0

    def test_empty_pattern_has_one_hom(self):
        assert hom_count(Graph([]), build_path(1)) == 1
        assert hom_count(Graph([]), Graph([])) == 1

    def test_no_targets(self):
        assert hom_count(build_path(0), Graph([])) == 0

    def test_budget_limits_stream(self):
        out = list(enumerate_homs(build_path(1), build_cycle(3), limit=4))
        assert len(out) == 4

    def test_exists_mode_stops_at_one(self):
        out = list(enumerate_homs(build_path(1), build_cycle(3), limit=1))
        assert len(out) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_an_error(self, limit):
        # the engine stops when its count reaches the limit, so a limit it
        # can never reach would silently stream every solution
        with pytest.raises(ValueError, match="limit"):
            hom_leaves(build_path(1), build_cycle(3), limit=limit)
        with pytest.raises(ValueError, match="limit"):
            list(enumerate_homs(build_path(1), build_cycle(3), limit=limit))

    def test_deterministic_order(self):
        first = [m.mapping for m in enumerate_homs(build_path(2), build_cycle(4))]
        second = [m.mapping for m in enumerate_homs(build_path(2), build_cycle(4))]
        assert first == second

    def test_lexicographic_stream_order(self):
        # equal degrees, so the variable order is v0, v1 and solutions come
        # out sorted by (image of v0, image of v1)
        got = [(m("v0"), m("v1")) for m in enumerate_homs(build_path(1), build_cycle(3))]
        assert got == [
            ("v0", "v1"),
            ("v0", "v2"),
            ("v1", "v0"),
            ("v1", "v2"),
            ("v2", "v0"),
            ("v2", "v1"),
        ]

    def test_oracle_equivalence_exhaustive_small(self):
        # every pair of labeled graphs with at most 3 vertices
        small = list(enumerate_graphs(0)) + list(enumerate_graphs(1)) + \
            list(enumerate_graphs(2)) + list(enumerate_graphs(3))
        for a in small:
            for b in small:
                assert as_keys(enumerate_homs(a, b)) == naive_homs(a, b)

    def test_oracle_equivalence_random_five(self):
        rng = random.Random(23)
        for _ in range(60):
            a = random_graph(rng, 5)
            b = random_graph(rng, 5)
            assert as_keys(enumerate_homs(a, b)) == naive_homs(a, b)

    def test_stream_follows_static_order(self):
        # solutions come out sorted by their images along the static
        # variable order (descending degree, then id), however much the
        # engine prunes
        rng = random.Random(5)
        for _ in range(40):
            a = random_graph(rng, 5)
            b = random_graph(rng, 5)
            got = [m.mapping for m in enumerate_homs(a, b)]
            assert got == static_order_sequence(naive_homs(a, b), graph_variable_order(a))


class TestSliceHoms:
    def test_identity_slice_is_rigid_by_colors(self):
        c3 = build_cycle(3)
        x = SliceObject(c3, c3, {v: v for v in c3.vertices})
        assert slice_hom_count(x, x) == 1

    def test_gadget_slice_single_endo(self):
        # path colored 0,1,2,0 over the triangle: brute force gives one map
        c3 = Graph(list("012"), [("0", "1"), ("1", "2"), ("0", "2")])
        p = Graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        x = SliceObject(p, c3, {"a": "0", "b": "1", "c": "2", "d": "0"})
        assert naive_slice_homs(x, x) == {sm.map.mapping for sm in enumerate_slice_homs(x, x)}
        assert slice_hom_count(x, x) == 1

    def test_mismatched_bases_error(self):
        c3, c4 = build_cycle(3), build_cycle(4)
        x = SliceObject(c3, c3, {v: v for v in c3.vertices})
        y = SliceObject(c4, c4, {v: v for v in c4.vertices})
        with pytest.raises(ValueError):
            list(enumerate_slice_homs(x, y))

    def test_matches_filtered_plain_homs(self):
        # slice enumeration equals plain enumeration filtered by the triangle
        rng = random.Random(31)
        p3 = build_path(3)
        for _ in range(60):
            a = random_graph(rng, 5)
            b = random_graph(rng, 5)
            fa = {v: rng.choice(p3.vertices) for v in a.vertices}
            fb = {v: rng.choice(p3.vertices) for v in b.vertices}
            from slicecat.core import is_homomorphism

            if not is_homomorphism(fa, a, p3)[0] or not is_homomorphism(fb, b, p3)[0]:
                continue
            x = SliceObject(a, p3, fa)
            y = SliceObject(b, p3, fb)
            filtered = {
                m.mapping
                for m in enumerate_homs(a, b)
                if all(fb[m(v)] == fa[v] for v in a.vertices)
            }
            assert {sm.map.mapping for sm in enumerate_slice_homs(x, y)} == filtered

    @pytest.mark.parametrize("name", BUILTIN_GADGET_NAMES)
    def test_prebuilt_pattern_keeps_no_state_between_hosts(self, name):
        # one pattern searched into host A, then B, then A again: each search
        # binds it to a union table of its own, so nothing of B's reaches A
        gadget = builtin_gadget(name)
        pattern = slice_pattern(gadget.slice)
        layout = product_layout(gadget, pattern[0])
        hosts = [product_rows(2, mask_pairs(2, mask, True), layout)[:2] for mask in digraph_masks(2, True)]

        def stream(pattern, host):
            variables, leaves = hom_leaves_into(pattern, *host)
            return variables, list(map(list, leaves))

        assert len(hosts) == 13
        for a in hosts:
            fresh = stream(slice_pattern(gadget.slice), a)
            assert fresh[1], name  # every arc's copy is a solution
            for b in hosts:
                first = stream(pattern, a)
                stream(pattern, b)
                assert stream(pattern, a) == first == fresh

    def test_composition_closure(self):
        p3 = build_path(3)
        x = SliceObject(build_path(3), p3, {f"v{i}": f"v{i}" for i in range(4)})
        carrier = Graph(["a", "b", "c", "d", "p"], [("a", "b"), ("b", "c"), ("c", "d"), ("b", "p")])
        y = SliceObject(carrier, p3, {"a": "v0", "b": "v1", "c": "v2", "d": "v3", "p": "v0"})
        for f in enumerate_slice_homs(x, y):
            for g in enumerate_slice_homs(y, x):
                g.compose(f)  # validation happens on construction
                f.compose(g)


class TestEndomorphismClassification:
    def test_identity_over_triangle_rigid(self):
        c3 = build_cycle(3)
        x = SliceObject(c3, c3, {v: v for v in c3.vertices})
        assert classify_endomorphisms(x).verdict is EndoVerdict.RIGID

    def test_two_path_copies_fold(self):
        # two identical components can be swapped or folded together;
        # counts frozen from the exhaustive 8^8 enumeration: 4 endos, 2 autos
        from slicecat.core import disjoint_union

        p3 = build_path(3)
        carrier = disjoint_union([p3, p3])
        x = SliceObject(carrier, p3, {f"{i}:v{j}": f"v{j}" for i in range(2) for j in range(4)})
        report = classify_endomorphisms(x)
        assert report.verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM
        assert (report.endo_count, report.auto_count) == (4, 2)
        assert report.witness is not None and not report.witness.is_bijective()

    def test_identity_path_rigid(self):
        p3 = build_path(3)
        x = SliceObject(p3, p3, {v: v for v in p3.vertices})
        report = classify_endomorphisms(x)
        assert report.verdict is EndoVerdict.RIGID
        assert naive_endo_counts(x) == (1, 1)

    def test_report_invariants_on_random_instances(self):
        rng = random.Random(47)
        p3 = build_path(3)
        from slicecat.universality import random_slice_object

        for _ in range(80):
            x = random_slice_object(p3, rng, max_vertices=4)
            report = classify_endomorphisms(x)
            endos, autos = naive_endo_counts(x)
            assert (report.endo_count, report.auto_count) == (endos, autos)
            assert (report.verdict is EndoVerdict.RIGID) == (endos == 1)
            assert (report.verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM) == (endos > autos)

    def test_verdict_is_relabeling_invariant(self):
        rng = random.Random(53)
        p3 = build_path(3)
        from slicecat.universality import random_slice_object

        for _ in range(40):
            x = random_slice_object(p3, rng, max_vertices=5)
            names = list(x.carrier.vertices)
            shuffled = names[:]
            rng.shuffle(shuffled)
            relabel = dict(zip(names, [f"w{i}{s}" for i, s in enumerate(shuffled)]))
            carrier2 = x.carrier.relabel(relabel)
            x2 = SliceObject(carrier2, p3, {relabel[v]: x.color(v) for v in names})
            assert classify_endomorphisms(x).verdict == classify_endomorphisms(x2).verdict

    def test_plain_graph_accepted(self):
        report = classify_endomorphisms(build_cycle(4))
        # the 4-cycle folds onto an edge, so proper endomorphisms exist
        assert report.verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM


class TestDigraphEnumeration:
    def test_single_vertex(self):
        assert sum(1 for _ in enumerate_digraphs(1, True)) == 1
        assert sum(1 for _ in enumerate_digraphs(1, False)) == 2

    def test_two_vertices(self):
        assert sum(1 for _ in enumerate_digraphs(2, True)) == 13
        assert sum(1 for _ in enumerate_digraphs(2, False)) == 16

    def test_partition_counts_up_to_three(self):
        for n in (1, 2, 3):
            every = sum(1 for _ in enumerate_digraphs(n, False))
            free = sum(1 for _ in enumerate_digraphs(n, True))
            withiso = sum(
                1 for d in enumerate_digraphs(n, False) if d.isolated_vertices()
            )
            assert every == 1 << (n * n)
            assert free + withiso == every

    def test_three_vertices_no_isolated_count(self):
        # inclusion-exclusion: 512 - 3*16 + 3*2 - 1
        assert sum(1 for _ in enumerate_digraphs(3, True)) == 469

    def test_cap_is_enforced_with_message(self):
        with pytest.raises(ValueError, match="capped at 4"):
            list(enumerate_digraphs(5, True))

    @pytest.mark.parametrize("size", [2.5, 2.0, True], ids=["float", "whole-float", "bool"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda n: verify_gadget_exhaustive(builtin_gadget("C3"), n),
            lambda n: full_embedding_check(builtin_gadget("C3"), n),
            lambda n: full_embedding_spot_check(builtin_gadget("C3"), n, 4, 1),
            lambda n: list(enumerate_digraphs(n, True)),
            lambda n: list(labeled_digraph_classes(n, True)),
        ],
        ids=["verify", "embed", "spot", "enumerate", "classes"],
    )
    def test_size_that_is_not_an_int_is_an_error(self, run, size):
        # True == 1 and hashes as 1, so it would read the cached table of size 1
        digraph_masks(1, True)
        digraph_masks(2, True)
        with pytest.raises(ValueError, match=f"digraph size must be an int, got {size!r}"):
            run(size)

    def test_canonical_is_a_subset_with_all_classes(self):
        full = list(enumerate_digraphs(2, False))
        canon = list(enumerate_digraphs(2, False, canonical=True))
        assert len(canon) == 10  # labeled 16 collapse to 10 classes on 2 vertices
        masks = {d.arcs for d in full}
        assert all(d.arcs in masks for d in canon)

    def test_deterministic_stream(self):
        a = [d.arcs for d in enumerate_digraphs(2, True)]
        b = [d.arcs for d in enumerate_digraphs(2, True)]
        assert a == b


_P1 = build_path(1)
_P1_OVER_P1 = SliceObject(_P1, _P1, {"v0": "v0", "v1": "v1"})
_ARC = Digraph(["u", "v"], [("u", "v")])


@pytest.mark.parametrize("value", [True, 2.5, 2.0], ids=["bool", "float", "whole-float"])
@pytest.mark.parametrize(
    "run, what",
    [
        (lambda v: dichotomy_sweep(build_path(3), v, samples=5), "max_carrier"),
        (lambda v: dichotomy_sweep(build_path(3), 2, samples=v), "samples"),
        (lambda v: random_slice_object(build_path(3), random.Random(1), max_vertices=v), "max_vertices"),
        (lambda v: list(enumerate_graphs(v)), "vertex count"),
        (lambda v: list(enumerate_homs(_P1, _P1, limit=v)), "limit"),
        (lambda v: list(enumerate_slice_homs(_P1_OVER_P1, _P1_OVER_P1, v)), "limit"),
        (lambda v: list(enumerate_digraph_homs(_ARC, _ARC, v)), "limit"),
        (build_path, "path length"),
        (build_cycle, "cycle length"),
        (build_star, "leaf count"),
        (build_gk, "k"),
    ],
    ids=[
        "dichotomy-max-carrier", "dichotomy-samples", "random-slice-object", "enumerate-graphs",
        "homs", "slice-homs", "digraph-homs", "path", "cycle", "star", "gk",
    ],
)
def test_count_that_is_not_an_int_is_an_error(monkeypatch, run, what, value):
    # core.check_int is the one rule: True == 1 would run as a size of 1, and a
    # float would reach range(); the dichotomy sweep refuses before any instance
    def no_instances(*args):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(universality, "least_masks", no_instances)
    monkeypatch.setattr(universality, "_check_dichotomy_instance", no_instances)
    with pytest.raises(ValueError, match=re.escape(f"{what} must be an int, got {value!r}")):
        run(value)


class TestDigraphHoms:
    def test_single_arc_to_single_arc(self):
        d = Digraph(["u", "v"], [("u", "v")])
        assert len(list(enumerate_digraph_homs(d, d))) == 1

    def test_single_arc_to_two_cycle(self):
        d1 = Digraph(["u", "v"], [("u", "v")])
        d2 = Digraph(["x", "y"], [("x", "y"), ("y", "x")])
        assert len(list(enumerate_digraph_homs(d1, d2))) == 2

    def test_loop_into_loopless(self):
        loop = Digraph(["u"], [("u", "u")])
        arc = Digraph(["x", "y"], [("x", "y")])
        assert list(enumerate_digraph_homs(loop, arc)) == []

    def test_limit_stops_the_stream(self):
        d1 = Digraph(["u", "v"], [("u", "v")])
        d2 = Digraph(["x", "y"], [("x", "y"), ("y", "x")])
        assert len(list(enumerate_digraph_homs(d1, d2, limit=1))) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_an_error(self, limit):
        d = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        with pytest.raises(ValueError, match="limit"):
            digraph_hom_leaves(d, d, limit)

    def test_against_naive(self):
        rng = random.Random(61)
        for _ in range(60):
            d1 = random_digraph(rng, 3)
            d2 = random_digraph(rng, 3)
            got = {tuple(sorted(m.items())) for m in enumerate_digraph_homs(d1, d2)}
            assert got == naive_digraph_homs(d1, d2)

    def test_rows_entry_matches_the_digraph_entry(self):
        # every ordered pair on at most 2 vertices, loops and isolated vertices
        # included: the pattern as index arcs, the host as rows built from D2
        digraphs = [d for n in (1, 2) for d in enumerate_digraphs(n, False)]
        for d1 in digraphs:
            at1 = {v: i for i, v in enumerate(d1.vertices)}
            arcs = [(at1[u], at1[v]) for u, v in d1.arcs]
            for d2 in digraphs:
                at2 = {v: i for i, v in enumerate(d2.vertices)}
                out = [sum(1 << at2[w] for w in d2.out_neighbors(v)) for v in d2.vertices]
                inn = [sum(1 << at2[w] for w in d2.in_neighbors(v)) for v in d2.vertices]
                variables, leaves = digraph_hom_leaves_into(d1.vertex_count, arcs, out, inn)
                expected_variables, expected_leaves = digraph_hom_leaves(d1, d2)
                assert [d1.vertices[i] for i in variables] == expected_variables, (d1, d2)
                assert list(map(list, leaves)) == list(map(list, expected_leaves)), (d1, d2)
