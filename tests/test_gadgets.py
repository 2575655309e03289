import json
import re
from itertools import islice
from pathlib import Path

import pytest

from slicecat import gadgets, homsearch
from slicecat.arrow import arrow_graph, phi, product_slice
from slicecat.core import Digraph, Graph, SliceObject, build_path, is_homomorphism
from slicecat.gadgets import (
    BUILTIN_GADGET_NAMES,
    Gadget,
    GadgetCounterexample,
    GadgetReport,
    ReplacementReport,
    builtin_gadget,
    build_gk,
    check_strong_replacement,
    check_strong_replacement_exhaustive,
    verify_gadget,
    verify_gadget_exhaustive,
)
from slicecat.homsearch import (
    EndoVerdict,
    classify_endomorphisms,
    digraph_from_mask,
    enumerate_digraphs,
    enumerate_homs,
    labeled_digraph_classes,
    loop_mask,
)
from slicecat.universality import classify_slice_base, full_embedding_check

from conftest import gadget_building_mutants, structure_map_mutations, verify_mutated_gadget

SINGLE_ARC = Digraph(["u", "v"], [("u", "v")])
TWO_CYCLE = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
LOOP = Digraph(["u"], [("u", "u")])
TWO_ARC_PATH = Digraph(["x", "y", "z"], [("x", "y"), ("y", "z")])


def complete_digraph(n: int, loops: bool) -> Digraph:
    """K_n on v0..v(n-1): every arc, and every loop when ``loops``."""
    full = (1 << n * n) - 1
    return digraph_from_mask(n, full if loops else full & ~loop_mask(n))


def validated_verify_gadget(gadget, D) -> GadgetReport:
    """``verify_gadget`` as it read with a validated failure path: on a
    mismatch the search is re-run through ``enumerate_slice_homs`` and every
    copy map is built through ``phi``.  The engine is looked up in
    ``homsearch`` at call time, so a patched ``homsearch.hom_leaves`` reaches
    both searches."""
    res = arrow_graph(D, gadget.carrier, gadget.a, gadget.b)
    product = product_slice(res, gadget)
    variables, leaves = homsearch.hom_leaves(gadget.slice, product)
    bit = {w: 1 << i for i, w in enumerate(res.product.vertices)}
    copies = sorted([bit[copy[x]] for x in variables] for copy in res.copies.values())
    found = sorted(leaves)
    if found == copies:
        return GadgetReport(1, D.vertex_count, True, hom_count=len(found))
    expected = {phi(res, arc).mapping for arc in D.arcs}
    maps = {sm.map.mapping for sm in homsearch.enumerate_slice_homs(gadget.slice, product)}
    extra = maps - expected
    kind, mapping = ("extra-hom", min(extra)) if extra else ("missing-copy-map", min(expected - maps))
    ce = GadgetCounterexample(digraph=D, kind=kind, mapping=dict(mapping))
    return GadgetReport(1, D.vertex_count, False, ce, hom_count=len(found))


class TestBuiltins:
    def test_c3_gadget_shape(self):
        g = builtin_gadget("C3")
        assert g.slice.color("a") == g.slice.color("d") == "0"
        assert g.slice.color("b") == "1" and g.slice.color("c") == "2"
        assert (g.a, g.b) == ("a", "d")

    def test_c4_gadget_shape(self):
        g = builtin_gadget("C4")
        assert [g.slice.color(x) for x in "abcde"] == list("01230")
        assert (g.a, g.b) == ("a", "e")

    def test_p4_gadget_shape(self):
        g = builtin_gadget("P4")
        assert [g.slice.color(x) for x in "abcdefghijklm"] == list("0121234323210")
        # exactly one carrier vertex lands on the far end of the base path
        assert g.slice.fiber("4") == ("g",)
        assert (g.a, g.b) == ("a", "m")

    def test_y_gadget_shape(self):
        g = builtin_gadget("Y")
        assert [g.slice.color(x) for x in "abcdefg"] == list("0121310")
        assert g.slice.fiber("2") == ("c",) and g.slice.fiber("3") == ("e",)
        assert (g.a, g.b) == ("a", "g")

    def test_y_gadget_unique_fibers_at_distance_two(self):
        g = builtin_gadget("Y")
        (c,), (e,) = g.slice.fiber("2"), g.slice.fiber("3")
        mid = set(g.carrier.neighbors(c)) & set(g.carrier.neighbors(e))
        assert mid and not g.carrier.has_edge(c, e)

    @pytest.mark.parametrize("name", BUILTIN_GADGET_NAMES)
    def test_base_is_its_minimal_graph_under_the_classifier_renaming(self, name):
        # each gadget's base is its minimal graph renamed v_i -> ids[i], and
        # that renaming is the embedding the classifier reports for the base
        ids, _ = gadgets._BUILTIN_GADGETS[name]
        result = classify_slice_base(builtin_gadget(name).base)
        assert result.pattern == name
        assert result.embedding.as_dict() == {f"v{i}": w for i, w in enumerate(ids)}

    def test_all_builtins_satisfy_gadget_invariants(self):
        for name in BUILTIN_GADGET_NAMES:
            g = builtin_gadget(name)
            ok, _ = is_homomorphism(
                g.slice.structure_map.as_dict(), g.carrier, g.base
            )
            assert ok
            assert g.slice.color(g.a) == g.slice.color(g.b)
            assert not g.carrier.has_edge(g.a, g.b)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_gadget("K5")

    def test_case_insensitive(self):
        assert builtin_gadget("p4").to_dict() == builtin_gadget("P4").to_dict()

    def test_roundtrip(self):
        for name in BUILTIN_GADGET_NAMES:
            g = builtin_gadget(name)
            assert Gadget.from_dict(g.to_dict()).to_dict() == g.to_dict()


class TestReplacementFamily:
    def test_k2_maps_onto_triangle(self):
        gk = build_gk(2)
        assert gk.to_odd_cycle.codomain.vertex_count == 3
        ok, _ = is_homomorphism(gk.to_odd_cycle.as_dict(), gk.graph, gk.to_odd_cycle.codomain)
        assert ok

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_distinguished_vertices_land_on_k(self, k):
        gk = build_gk(k)
        assert gk.to_odd_cycle(gk.a) == gk.to_odd_cycle(gk.b) == f"v{k}"
        assert gk.graph.vertex_count == 13 + 6 * (k - 1)
        assert gk.graph.edge_count == 9 + 6 * k

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_gk(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_odd_cycle_map_is_a_gadget_for_loop_free_digraphs(self, k):
        # gk(k) over C_{2k-1} by its odd-cycle map, pointed at K and M (one
        # residue, not adjacent): on loop-free digraphs its slice homs are the
        # copies, and a loop folds the K-L and L-M paths onto each other
        gk = build_gk(k)
        gadget = Gadget(SliceObject(gk.graph, gk.to_odd_cycle.codomain, gk.to_odd_cycle), "K", "M")
        classes = sorted({(n, m) for n, m in labeled_digraph_classes(4, True) if not m & loop_mask(n)})
        assert len(classes) == 217
        assert [key for key in classes if not verify_gadget(gadget, digraph_from_mask(*key)).verdict] == []
        for n, homs in [(4, 12), (5, 20), (6, 30)]:
            report = verify_gadget(gadget, complete_digraph(n, loops=False))
            assert report.verdict and report.hom_count == homs
        report = verify_gadget(gadget, LOOP)
        assert not report.verdict and report.hom_count == 4
        assert report.counterexample.kind == "extra-hom"


class TestVerifyGadget:
    def test_c3_single_arc(self):
        report = verify_gadget(builtin_gadget("C3"), SINGLE_ARC)
        assert report.verdict and report.hom_count == 1

    def test_c3_two_cycle(self):
        report = verify_gadget(builtin_gadget("C3"), TWO_CYCLE)
        assert report.verdict and report.hom_count == 2

    def test_c3_loop(self):
        report = verify_gadget(builtin_gadget("C3"), LOOP)
        assert report.verdict and report.hom_count == 1

    def test_isolated_vertex_rejected(self):
        with_isolated = Digraph(["u", "v", "w"], [("u", "v")])
        with pytest.raises(ValueError, match="isolated"):
            verify_gadget(builtin_gadget("C3"), with_isolated)

    def test_colliding_ids_are_refused(self):
        # the copy of arc (a, b,c) names its interior b "(a,b,c)::b", and so
        # does the copy of (a,b, c): the named product cannot be built, so
        # verify refuses the digraph rather than pass it
        doc = json.loads((Path(__file__).parent / "golden/inputs/digraph_clash.json").read_text())
        with pytest.raises(ValueError, match=re.escape("interior id '(a,b,c)::b' collides")):
            verify_gadget(builtin_gadget("C3"), Digraph.from_dict(doc))

    def test_hom_count_equals_arc_count_per_digraph(self):
        for name in BUILTIN_GADGET_NAMES:
            g = builtin_gadget(name)
            for D in enumerate_digraphs(2, True):
                report = verify_gadget(g, D)
                assert report.verdict
                assert report.hom_count == D.arc_count

    def test_failure_path_matches_validated_reference(self):
        # every mutant fails on some digraph with at most two vertices, so
        # the raw failure path is reached; it must report what the validated
        # re-search reported
        for key, candidate in gadget_building_mutants().items():
            failures = 0
            for n in (1, 2):
                for D in enumerate_digraphs(n, True):
                    report = verify_gadget(candidate, D)
                    assert report.to_dict() == validated_verify_gadget(candidate, D).to_dict(), (key, D)
                    failures += not report.verdict
            assert failures, key

    def test_missing_copy_map_matches_validated_reference(self, monkeypatch):
        # no gadget reaches this kind: every copy map of a valid gadget is a
        # slice morphism the engine finds, so one copy-map leaf is dropped
        search = homsearch.hom_leaves

        def dropping(A, B, **kwargs):
            variables, leaves = search(A, B, **kwargs)
            return variables, islice(leaves, 1, None)

        monkeypatch.setattr(gadgets, "hom_leaves", dropping)
        monkeypatch.setattr(homsearch, "hom_leaves", dropping)
        gadget = builtin_gadget("C3")
        report = verify_gadget(gadget, TWO_CYCLE)
        assert not report.verdict and report.hom_count == 1
        assert report.counterexample.kind == "missing-copy-map"
        res = arrow_graph(TWO_CYCLE, gadget.carrier, gadget.a, gadget.b)
        assert report.counterexample.mapping in [res.copies[arc] for arc in TWO_CYCLE.arcs]
        assert report.to_dict() == validated_verify_gadget(gadget, TWO_CYCLE).to_dict()

    def test_exhaustive_c3_max2(self):
        report = verify_gadget_exhaustive(builtin_gadget("C3"), 2)
        assert report.verdict and report.digraphs_checked == 1 + 13

    def test_exhaustive_over_cap(self):
        with pytest.raises(ValueError, match="capped"):
            verify_gadget_exhaustive(builtin_gadget("C3"), 9)

    def test_sweep_over_no_sizes_is_an_error(self):
        # a sweep that checks no digraph would pass, and so would every mutant
        for max_n in (0, -2):
            with pytest.raises(ValueError, match="at least one vertex"):
                verify_gadget_exhaustive(builtin_gadget("C3"), max_n)
        with pytest.raises(ValueError, match="at least one vertex"):
            verify_mutated_gadget(builtin_gadget("C4"), "c", "0", max_n=0)


def closed_walks(base: Graph, length: int) -> list[tuple]:
    """The closed walks of ``length`` edges in ``base``, one of each reversal pair."""
    walks = [(v,) for v in base.vertices]
    for _ in range(length):
        walks = [w + (u,) for w in walks for u in base.neighbors(w[-1])]
    return sorted({min(w, w[::-1]) for w in walks if w[0] == w[-1]})


def path_gadget(base: Graph, walk: tuple) -> Gadget:
    """The coloured path along ``walk``, pointed at its two ends."""
    ps = [f"p{i}" for i in range(len(walk))]
    return Gadget(SliceObject(Graph(ps, zip(ps, ps[1:])), base, dict(zip(ps, walk))), ps[0], ps[-1])


@pytest.mark.parametrize("name, passing", [("C3", 3), ("C4", 4), ("Y", 3)])
def test_builtin_is_the_shortest_coloured_path_gadget(name, passing):
    # every closed walk up to the built-in's length as a gadget, decided on
    # K_2, K_3 and K_4 with loops: no shorter walk passes, and at its length
    # only the built-in's colour walk under the base's automorphisms does
    builtin = builtin_gadget(name)
    base = builtin.base
    length = builtin.carrier.vertex_count - 1
    targets = [complete_digraph(n, loops=True) for n in (2, 3, 4)]

    def passes(walk):
        return all(verify_gadget(path_gadget(base, walk), D).verdict for D in targets)

    for shorter in range(2, length):
        assert not any(passes(w) for w in closed_walks(base, shorter)), shorter
    autos = [h for h in enumerate_homs(base, base) if len(set(h.as_dict().values())) == base.vertex_count]
    colours = tuple(builtin.slice.color(v) for v in builtin.carrier.vertices)
    images = {min(w, w[::-1]) for w in (tuple(h(c) for c in colours) for h in autos)}
    found = [w for w in closed_walks(base, length) if passes(w)]
    assert len(found) == passing and set(found) == images


class TestMutations:
    def test_c3_invalid_rewrite_caught(self):
        # sending c to 1 maps the edge (b, c) onto a loop: not a homomorphism
        report = verify_mutated_gadget(builtin_gadget("C3"), "c", "1")
        assert not report.verdict
        assert report.counterexample.kind == "invalid-gadget"

    def test_valid_rewrites_that_fold_are_caught(self):
        # each rewrite keeps the structure map a homomorphism but admits a
        # non-copy morphism into some product (found by brute force)
        cases = [("C4", "c", "0"), ("P4", "g", "2"), ("Y", "e", "0")]
        for name, vertex, target in cases:
            gadget = builtin_gadget(name)
            mutated = {k: v for k, v in gadget.slice.structure_map.mapping}
            mutated[vertex] = target
            ok, _ = is_homomorphism(mutated, gadget.carrier, gadget.base)
            assert ok, "mutation was supposed to stay a homomorphism"
            report = verify_mutated_gadget(gadget, vertex, target)
            assert not report.verdict
            assert report.counterexample.kind == "extra-hom"
            assert report.counterexample.digraph is not None

    def test_every_builtin_has_three_caught_mutations(self):
        for name in BUILTIN_GADGET_NAMES:
            gadget = builtin_gadget(name)
            caught = 0
            for vertex, target in structure_map_mutations(gadget):
                report = verify_mutated_gadget(gadget, vertex, target, max_n=2)
                if not report.verdict:
                    caught += 1
                if caught >= 3:
                    break
            assert caught >= 3, f"{name}: fewer than 3 mutations caught"

    def test_gadget_building_mutants_fail_both_verifiers(self):
        # the single-point rewrites that still build a gadget: each admits a
        # stray slice morphism into some product over at most two vertices,
        # so both bounded verifiers must fail on every one of them
        building = gadget_building_mutants()
        assert set(building) == {
            ("C4", "b", "3"), ("C4", "c", "0"), ("C4", "d", "1"),
            ("P4", "c", "0"), ("P4", "d", "3"), ("P4", "g", "2"), ("P4", "i", "4"), ("P4", "j", "1"),
            ("Y", "c", "0"), ("Y", "c", "3"), ("Y", "e", "0"), ("Y", "e", "2"),
        }
        for key, candidate in building.items():
            report = verify_gadget_exhaustive(candidate, 2)
            assert not report.verdict and report.counterexample.kind == "extra-hom", key
            embedding = full_embedding_check(candidate, 2)
            assert not embedding.verdict and embedding.violation.kind == "count-mismatch", key


def validated_strong_replacement(H, a, b, D) -> ReplacementReport:
    """``check_strong_replacement`` on a digraph its regime admits, as it read
    with validated morphisms: one ``phi`` per arc for a copy's image and one
    ``Morphism`` per solution."""
    res = arrow_graph(D, H, a, b)
    copies = [frozenset(phi(res, arc).image()) for arc in D.arcs]
    checked = 0
    for hom in enumerate_homs(H, res.product):
        checked += 1
        image = set(hom.image())
        if not any(image <= copy for copy in copies):
            return ReplacementReport(False, checked, witness=hom)
    return ReplacementReport(True, checked)


GK2 = build_gk(2)
STRONG_CARRIERS = {
    "gk2": (GK2.graph, GK2.a, GK2.b),
    **{name: (g.carrier, g.a, g.b) for name, g in zip(BUILTIN_GADGET_NAMES, map(builtin_gadget, BUILTIN_GADGET_NAMES))},
}


class TestStrongReplacement:
    @pytest.mark.parametrize("regime", ["irreflexive", "no-isolated"])
    @pytest.mark.parametrize("name", sorted(STRONG_CARRIERS))
    def test_raw_check_matches_validated_reference(self, name, regime):
        H, a, b = STRONG_CARRIERS[name]
        no_isolated = regime == "no-isolated"
        for n in (1, 2, 3):
            for D in enumerate_digraphs(n, no_isolated, canonical=True):
                if no_isolated or not D.has_loop():
                    expected = validated_strong_replacement(H, a, b, D).to_dict()
                    assert check_strong_replacement(H, a, b, D, regime=regime).to_dict() == expected

    def test_no_isolated_sweep_refuses_adjacent_distinguished_vertices(self, monkeypatch):
        checked = []
        monkeypatch.setattr(gadgets, "check_strong_replacement", lambda *args, **kwargs: checked.append(args))
        with pytest.raises(ValueError, match=r"'v0' and 'v1' are adjacent.*'no-isolated'"):
            check_strong_replacement_exhaustive(build_path(1), "v0", "v1", 3, regime="no-isolated")
        assert checked == []

    def test_edge_gadget_stays_in_copies(self):
        # every image of a single edge is a product edge, which lies inside
        # one copy by construction (brute-forced; 4 homs, none crossing)
        k2 = build_path(1)
        report = check_strong_replacement(k2, "v0", "v1", TWO_ARC_PATH)
        assert report.holds and report.homs_checked == 4

    def test_midpoint_gadget_crosses_copies(self):
        # the length-2 path glued by its ends crosses two copies meeting at
        # the shared base vertex (brute-forced counterexample)
        p2 = build_path(2)
        report = check_strong_replacement(p2, "v0", "v2", TWO_ARC_PATH)
        assert not report.holds
        assert report.witness is not None
        image = set(report.witness.image())
        assert image == {"(x,y)::v1", "y", "(y,z)::v1"}

    def test_edgeless_pair_single_arc(self):
        pair = Graph(["v0", "v1"])
        report = check_strong_replacement(pair, "v0", "v1", SINGLE_ARC)
        assert report.holds and report.homs_checked == 4

    def test_loop_rejected_by_default_regime(self):
        with pytest.raises(ValueError, match="loop"):
            check_strong_replacement(build_path(1), "v0", "v1", LOOP)

    def test_no_isolated_regime_allows_loops(self):
        report = check_strong_replacement(
            builtin_gadget("C3").carrier, "a", "d", LOOP, regime="no-isolated"
        )
        assert report.holds

    def test_replacement_graph_small_sweep(self):
        gk = build_gk(2)
        for D in enumerate_digraphs(2, False):
            if D.has_loop():
                continue
            report = check_strong_replacement(gk.graph, gk.a, gk.b, D)
            assert report.holds

    def test_replacement_graph_is_rigid(self):
        report = classify_endomorphisms(build_gk(2).graph)
        assert report.verdict is EndoVerdict.RIGID

    @pytest.mark.parametrize("k", range(2, 7))
    def test_replacement_family_is_rigid(self, k):
        # 19 to 43 vertices: arc consistency at the root pins every vertex
        report = classify_endomorphisms(build_gk(k).graph)
        assert report.verdict is EndoVerdict.RIGID
        assert (report.endo_count, report.auto_count) == (1, 1)
        assert report.witness is None

    def test_replacement_graph_over_directed_triangle(self):
        gk = build_gk(3)
        triangle = Digraph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("w", "u")])
        report = check_strong_replacement(gk.graph, gk.a, gk.b, triangle)
        assert report.holds and report.homs_checked == 3
