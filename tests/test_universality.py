import hashlib
import json
import random
import re
from collections import Counter

import pytest

from slicecat import universality
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
)
from slicecat.arrow import arrow_slice
from slicecat.gadgets import BUILTIN_GADGET_NAMES, Gadget, builtin_gadget, verify_gadget
from slicecat.homsearch import (
    EndoVerdict,
    classify_endomorphisms,
    digraph_from_mask,
    enumerate_digraph_homs,
    enumerate_digraphs,
    enumerate_graphs,
    slice_hom_count,
)
from slicecat.universality import (
    BaseVerdict,
    RetractionPlan,
    RigidPathCertificate,
    classify_cone_base,
    classify_slice_base,
    classify_slice_object,
    compare_components,
    dichotomy_sweep,
    full_embedding_check,
    full_embedding_spot_check,
    random_slice_object,
    retract_slice_to_path,
)

from conftest import (
    load_workloads,
    naive_base_verdict,
    random_connected_surjective_slice,
    random_graph,
    reference_compare_components,
    reference_retract_slice_to_path,
)

P3 = build_path(3)


def identity_slice(graph):
    return SliceObject(graph, graph, {v: v for v in graph.vertices})


def slice_over_p3(edges, colors):
    vertices = list(colors)
    carrier = Graph(vertices, edges)
    return SliceObject(carrier, P3, {v: f"v{c}" for v, c in colors.items()})


class TestClassifySliceBase:
    @pytest.mark.parametrize(
        "graph,verdict,pattern",
        [
            (build_cycle(3), BaseVerdict.UNIVERSAL, "C3"),
            (build_cycle(4), BaseVerdict.UNIVERSAL, "C4"),
            (build_cycle(7), BaseVerdict.UNIVERSAL, "P4"),
            (build_path(4), BaseVerdict.UNIVERSAL, "P4"),
            (build_star(3), BaseVerdict.UNIVERSAL, "Y"),
            (build_path(3), BaseVerdict.NOT_UNIVERSAL, None),
            (Graph([]), BaseVerdict.NOT_UNIVERSAL, None),
        ],
    )
    def test_verdicts(self, graph, verdict, pattern):
        result = classify_slice_base(graph)
        assert result.verdict is verdict
        assert result.pattern == pattern

    @pytest.mark.parametrize(
        "graph, expected",
        [
            # the first three neighbours of the hub are the leaves
            (build_star(5), {"v0": "v0", "v1": "v1", "v2": "v2", "v3": "v3"}),
            # the hub is the first vertex of degree 3, not the least vertex
            (Graph(["a", "b", "c", "d", "e"], [("a", "e"), ("e", "b"), ("e", "d"), ("c", "d")]),
             {"v0": "e", "v1": "a", "v2": "b", "v3": "d"}),
            # a triangle with a pendant: Y is tried before any cycle
            (Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]),
             {"v0": "c", "v1": "a", "v2": "b", "v3": "d"}),
        ],
        ids=["star5", "late-hub", "triangle-and-hub"],
    )
    def test_y_witness_is_pinned(self, graph, expected):
        assert classify_slice_base(graph).to_dict() == {
            "verdict": "universal", "pattern": "Y", "embedding": {"map": expected}
        }

    def test_universal_witness_revalidates(self):
        for graph in (build_cycle(3), build_cycle(6), build_star(5), build_path(9)):
            result = classify_slice_base(graph)
            emb = result.embedding
            assert emb is not None and emb.is_injective()
            assert emb.codomain == graph

    def test_decomposition_covers_everything(self):
        g = disjoint_union([build_path(3), build_path(1), build_path(0)])
        result = classify_slice_base(g)
        parts = result.decomposition
        assert sorted(v for p in parts for v in p) == sorted(g.vertices)
        covered = {
            tuple(sorted((p[i], p[i + 1]))) for p in parts for i in range(len(p) - 1)
        }
        assert covered == set(g.edges)
        assert all(len(p) <= 4 for p in parts)

    def test_matches_subgraph_oracle_exhaustively(self):
        for n in range(5):
            for g in enumerate_graphs(n):
                assert classify_slice_base(g).verdict == naive_base_verdict(g)

    def test_matches_subgraph_oracle_random(self):
        rng = random.Random(71)
        for _ in range(150):
            g = random_graph(rng, 8, edge_probability=rng.choice([0.15, 0.3, 0.5]))
            assert classify_slice_base(g).verdict == naive_base_verdict(g)


def _base_reaching(pattern: str, rng: random.Random) -> Graph:
    """A seeded base whose classification is ``pattern``: the pattern's own
    graph, a longer path or cycle for P4, or a wider star for Y, with 0-3
    short paths beside it and every id scrambled."""
    if pattern == "P4":
        core = rng.choice([build_path(rng.randint(4, 9)), build_cycle(rng.randint(5, 9))])
    elif pattern == "Y":
        core = build_star(rng.randint(3, 6))
    else:
        core = build_cycle(int(pattern[1]))  # C3 or C4
    g = disjoint_union([core] + [build_path(rng.randint(0, 3)) for _ in range(rng.randint(0, 3))])
    names = rng.sample(range(1000), g.vertex_count)
    return g.relabel({v: f"x{k}" for v, k in zip(g.vertices, names)})


def _transported_gadget(pattern: str, G: Graph, ids: str | None = None) -> Gadget:
    """The built-in gadget of ``pattern`` recoloured into G: its base read as
    the minimal graph (through the classifier's embedding of that base, or
    through v_i -> ids[i] when given), then mapped by G's embedding."""
    g = builtin_gadget(pattern)
    onto_pattern = {w: f"v{i}" for i, w in enumerate(ids)} if ids else {
        w: v for v, w in classify_slice_base(g.base).embedding.as_dict().items()
    }
    into_G = classify_slice_base(G).embedding
    colors = {x: into_G(onto_pattern[g.slice.color(x)]) for x in g.carrier.vertices}
    return Gadget(SliceObject(g.carrier, G, colors), g.a, g.b)


class TestUniversalDirectionOverTheUsersBase:
    """A universal verdict transports its pattern's verified gadget onto the
    user's base with no search: the classifier's embedding of the gadget's
    own base renames it onto the minimal graph, and G's embedding takes it
    into G.  Every built-in has an interior vertex, so a pass on the looped
    complete digraph K_n covers the whole verify sweep up to n vertices."""

    @pytest.mark.parametrize("pattern", BUILTIN_GADGET_NAMES)
    def test_recoloured_gadget_verifies_over_seeded_bases(self, pattern):
        rng = random.Random(f"transport:{pattern}")
        for i in range(10):
            G = _base_reaching(pattern, rng)
            assert classify_slice_base(G).pattern == pattern
            gadget = _transported_gadget(pattern, G)
            for n in (4, 5, 6) if i == 0 else (4,):
                report = verify_gadget(gadget, digraph_from_mask(n, (1 << n * n) - 1))
                assert report.verdict and report.hom_count == n * n, (G, n)

    def test_a_wrong_renaming_is_not_a_homomorphism(self):
        # Y's gadget base has its centre at "1"; reading "0" as the centre
        # sends the carrier edge b-c, coloured 1-2, onto two leaves of G
        G = _base_reaching("Y", random.Random(5))
        with pytest.raises(ValueError, match=r"does not preserve edge \('b', 'c'\)"):
            _transported_gadget("Y", G, ids="0123")


class TestClassifyConeBase:
    def test_odd_cycle_found(self):
        result = classify_cone_base(build_cycle(5))
        assert result.verdict is BaseVerdict.UNIVERSAL
        cycle = result.odd_cycle
        assert len(cycle) == 5 and len(cycle) % 2 == 1

    def test_path_is_bipartite(self):
        result = classify_cone_base(build_path(3))
        assert result.verdict is BaseVerdict.NOT_UNIVERSAL
        left, right = result.bipartition
        sides = {v: 0 for v in left} | {v: 1 for v in right}
        assert all(sides[u] != sides[v] for u, v in build_path(3).edges)

    def test_witness_found_in_odd_component(self):
        g = disjoint_union([build_cycle(6), build_cycle(3)])
        result = classify_cone_base(g)
        assert result.verdict is BaseVerdict.UNIVERSAL
        assert all(v.startswith("1:") for v in result.odd_cycle)

    def test_every_small_graph_keeps_its_classification(self):
        # the verdict and witness of every labeled graph on at most 6
        # vertices (33,868 graphs, 28,263 of them non-bipartite), pinned as
        # a digest: a rewrite of the search must return the same reports
        digest = hashlib.sha256()
        tally: Counter = Counter()
        for n in range(7):
            for g in enumerate_graphs(n):
                report = classify_cone_base(g).to_dict()
                tally[report["verdict"]] += 1
                digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
        assert tally == {"universal": 28263, "not-universal": 5605}
        assert digest.hexdigest() == "b92e06fb99854b053a98a8331f8420b8d3fd6483653f723faa2e09f8a63a105b"

    def test_odd_cycle_witness_is_a_real_cycle(self):
        rng = random.Random(73)
        for _ in range(120):
            g = random_graph(rng, 8, edge_probability=0.3)
            result = classify_cone_base(g)
            if result.verdict is BaseVerdict.UNIVERSAL:
                cycle = list(result.odd_cycle)
                assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
                for i, v in enumerate(cycle):
                    assert g.has_edge(v, cycle[(i + 1) % len(cycle)])
            else:
                left, right = result.bipartition
                sides = {v: 0 for v in left} | {v: 1 for v in right}
                assert all(sides[u] != sides[v] for u, v in g.edges)


class TestRetraction:
    def test_identity_path_certifies_rigid(self):
        outcome = retract_slice_to_path(identity_slice(P3))
        assert isinstance(outcome, RigidPathCertificate)

    def test_minimal_zigzag_path_certifies_rigid(self):
        x = slice_over_p3(
            [(f"u{i}", f"u{i+1}") for i in range(5)],
            {f"u{i}": c for i, c in enumerate([0, 1, 2, 1, 2, 3])},
        )
        outcome = retract_slice_to_path(x)
        assert isinstance(outcome, RigidPathCertificate)
        assert len(outcome.path_vertices) == 6  # k = 5 = 2*1 + 3
        report = classify_endomorphisms(x)
        assert report.verdict is EndoVerdict.RIGID

    def test_pendant_vertex_retracts_properly(self):
        x = slice_over_p3(
            [("a", "b"), ("b", "c"), ("c", "d"), ("b", "p")],
            {"a": 0, "b": 1, "c": 2, "d": 3, "p": 0},
        )
        outcome = retract_slice_to_path(x)
        assert isinstance(outcome, RetractionPlan)
        assert outcome.retraction("p") == "a"
        assert not outcome.retraction.is_bijective()
        outcome.validate(x)
        report = classify_endomorphisms(x)
        assert report.verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM

    def test_disconnected_carrier_rejected(self):
        x = SliceObject(
            disjoint_union([P3, P3]),
            P3,
            {f"{i}:v{j}": f"v{j}" for i in range(2) for j in range(4)},
        )
        with pytest.raises(ValueError, match="connected"):
            retract_slice_to_path(x)

    def test_non_surjective_rejected(self):
        x = SliceObject(build_path(1), P3, {"v0": "v0", "v1": "v1"})
        with pytest.raises(ValueError, match="surjective"):
            retract_slice_to_path(x)

    def test_base_of_length_four_rejected(self):
        with pytest.raises(ValueError, match="base path has length 4; only lengths 0..3 are supported"):
            retract_slice_to_path(identity_slice(build_path(4)))

    def test_short_base_section_retraction(self):
        p1 = build_path(1)
        x = SliceObject(
            Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
            p1,
            {"a": "v0", "b": "v1", "c": "v0"},
        )
        outcome = retract_slice_to_path(x)
        assert isinstance(outcome, RetractionPlan)
        outcome.validate(x)

    def test_plan_contract_on_random_instances(self):
        rng = random.Random(79)
        rigid_seen = 0
        for _ in range(120):
            x = random_connected_surjective_slice(P3, rng, max_vertices=7)
            outcome = retract_slice_to_path(x)
            if isinstance(outcome, RigidPathCertificate):
                rigid_seen += 1
                assert classify_endomorphisms(x).verdict is EndoVerdict.RIGID
            else:
                outcome.validate(x)
        assert rigid_seen > 0


class TestCompareComponents:
    def test_segment_lifts_into_full_image(self):
        x = slice_over_p3(
            [("x0", "x1"), ("x1", "x2")], {"x0": 0, "x1": 1, "x2": 2}
        )
        y = identity_slice(P3)
        y = SliceObject(P3, P3, {v: v for v in P3.vertices})
        sm = compare_components(x, y)
        assert sm.source is x and sm.target is y

    def test_equal_objects_identity_direction(self):
        y = identity_slice(P3)
        sm = compare_components(y, y)
        assert sm.map == Morphism.identity(P3)

    def test_longer_zigzag_folds_onto_shorter(self):
        # brute force: no morphism exists from the length-3 object into the
        # length-5 one, and exactly one exists the other way
        x = identity_slice(P3)
        y = slice_over_p3(
            [(f"w{i}", f"w{i+1}") for i in range(5)],
            {f"w{i}": c for i, c in enumerate([0, 1, 2, 1, 2, 3])},
        )
        assert slice_hom_count(x, y) == 0
        assert slice_hom_count(y, x) == 1
        sm = compare_components(x, y)
        assert sm.source is y and sm.target is x

    def test_base_of_length_four_rejected(self):
        x = identity_slice(build_path(4))
        with pytest.raises(ValueError, match="base path has length 4; only lengths 0..3 are supported"):
            compare_components(x, x)

    def test_containment_precondition_enforced(self):
        x = slice_over_p3([("x0", "x1")], {"x0": 0, "x1": 1})
        y = slice_over_p3([("y0", "y1")], {"y0": 2, "y1": 3})
        with pytest.raises(ValueError, match="containment"):
            compare_components(x, y)

    @pytest.mark.parametrize("y", [slice_over_p3([], {"y": 0}), slice_over_p3([], {})])
    def test_empty_carrier_is_an_error(self, y):
        # an empty image lies in every image but is no subpath to map into
        x = slice_over_p3([], {})
        with pytest.raises(ValueError, match="carrier of X is empty"):
            compare_components(x, y)


def _outcome(fn, *objects):
    """What ``fn(*objects)`` gives: its JSON and, for a slice morphism, whether
    it runs from the first argument to the last; or the exception's type and text."""
    try:
        result = fn(*objects)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, SliceMorphism):
        return result.to_dict(), result.source is objects[0], result.target is objects[-1]
    return result.to_dict()


@pytest.fixture(scope="module")
def differential_objects():
    """Seeded connected surjective slices, 1,500 over each of P1, P2 and P3,
    after the one-vertex slice over P0, grouped by base."""
    rng = random.Random(2022)
    groups = [[identity_slice(build_path(0))]]
    for length in (1, 2, 3):
        groups.append([random_connected_surjective_slice(build_path(length), rng) for _ in range(1500)])
    return groups


class TestAgainstReference:
    """The shared base check and single tail give the outcomes of the
    retraction with one branch per base length."""

    def test_retractions_match(self, differential_objects):
        kinds = Counter()
        for objects in differential_objects:
            for x in objects:
                got = _outcome(retract_slice_to_path, x)
                assert got == _outcome(reference_retract_slice_to_path, x), x.to_dict()
                kinds[got["kind"] if isinstance(got, dict) else got[0]] += 1
        assert kinds["retraction"] > 0 and kinds["rigid-path"] > 0

    def test_comparisons_match(self, differential_objects):
        for objects in differential_objects:
            for x, y in zip(objects, objects[1:]):
                got = _outcome(compare_components, x, y)
                assert got == _outcome(reference_compare_components, x, y), (x.to_dict(), y.to_dict())


class TestClassifySliceObject:
    def test_identity_rigid(self):
        assert classify_slice_object(identity_slice(P3)).verdict is EndoVerdict.RIGID

    def test_two_copies_fold(self):
        x = SliceObject(
            disjoint_union([P3, P3]),
            P3,
            {f"{i}:v{j}": f"v{j}" for i in range(2) for j in range(4)},
        )
        result = classify_slice_object(x)
        assert result.verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM
        assert result.witness is not None and not result.witness.map.is_bijective()

    def test_incomparable_rigid_components_stay_rigid(self):
        x = slice_over_p3(
            [("a0", "a1"), ("b0", "b1")],
            {"a0": 0, "a1": 1, "b0": 2, "b1": 3},
        )
        assert classify_slice_object(x).verdict is EndoVerdict.RIGID

    def test_universal_base_rejected(self):
        c3 = build_cycle(3)
        with pytest.raises(ValueError, match="universal"):
            classify_slice_object(identity_slice(c3))

    def test_equal_bases_share_one_classification(self, monkeypatch):
        # the memo is keyed by the base's value: an equal graph built anew is a hit
        expected = classify_slice_base(P3).decomposition
        calls = []
        classify = universality.classify_slice_base
        monkeypatch.setattr(universality, "classify_slice_base", lambda G: calls.append(G) or classify(G))
        first, second = build_path(3), Graph(["v3", "v2", "v1", "v0"], [("v3", "v2"), ("v1", "v2"), ("v1", "v0")])
        assert first == second and first is not second
        for base in (first, second, first):
            assert classify_slice_object(identity_slice(base)).verdict is EndoVerdict.RIGID
        assert calls == [first]
        assert universality._base_decomposition(second) == expected

    def test_universal_base_is_refused_on_every_call_and_not_kept(self, monkeypatch):
        calls = []
        classify = universality.classify_slice_base
        monkeypatch.setattr(universality, "classify_slice_base", lambda G: calls.append(G) or classify(G))
        c3 = build_cycle(3)
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="base is universal") as exc:
                classify_slice_object(identity_slice(c3))
            messages.append(str(exc.value))
        assert len(set(messages)) == 1 and len(calls) == 3
        assert universality._base_decomposition.cache_info().currsize == 0

    def test_proper_endomorphism_refuses_a_bijection(self):
        x = identity_slice(P3)
        with pytest.raises(RuntimeError, match="bijection"):
            universality._proper_endomorphism(x, Morphism.identity(P3))

    def test_empty_carrier_rigid(self):
        x = SliceObject(Graph([]), P3, {})
        assert classify_slice_object(x).verdict is EndoVerdict.RIGID

    def test_agrees_with_enumeration_on_random_instances(self):
        rng = random.Random(83)
        for _ in range(150):
            x = random_slice_object(P3, rng, max_vertices=5)
            result = classify_slice_object(x)
            report = classify_endomorphisms(x)
            assert report.verdict is not EndoVerdict.AUTOMORPHISMS_ONLY
            assert result.verdict == report.verdict

    @pytest.mark.parametrize("lie", [EndoVerdict.HAS_PROPER_ENDOMORPHISM, EndoVerdict.AUTOMORPHISMS_ONLY])
    @pytest.mark.parametrize("vertices", [12, 14])
    def test_cross_check_catches_a_wrong_enumeration(self, monkeypatch, lie, vertices):
        # the core test reports a verdict the constructive side cannot reach
        # on a rigid zigzag path of any size; the sweep reports the
        # classifier's failure as a violation
        monkeypatch.setattr(universality, "endomorphism_verdict", lambda X: lie)
        zigzag = [0] + [1, 2] * (vertices // 2 - 1) + [3]
        x = SliceObject(build_path(vertices - 1), P3, {f"v{i}": f"v{c}" for i, c in enumerate(zigzag)})
        assert x.carrier.vertex_count == vertices
        with pytest.raises(RuntimeError, match=f"core test verdict {lie.value} disagrees with enumeration"):
            classify_slice_object(x)
        report = dichotomy_sweep(P3, 1)
        first = SliceObject(Graph(["v0"]), P3, {"v0": "v0"})
        assert not report.verdict and report.instances == 1
        assert report.violation.slice_doc == first.to_dict()
        assert re.search(f"core test verdict {lie.value} disagrees with enumeration", report.violation.detail)

    def test_cross_check_counts_nothing_when_the_verdicts_agree(self, monkeypatch):
        # the full counts only word a failure; the core test alone confirms,
        # also on a one-colour fiber of 20 vertices (20^20 endomorphisms)
        def counting(X):
            raise AssertionError("the endomorphism monoid was counted")

        monkeypatch.setattr(universality, "classify_endomorphisms", counting)
        vs = [f"x{i:02d}" for i in range(20)]
        x = SliceObject(Graph(vs), build_path(0), {v: "v0" for v in vs})
        assert classify_slice_object(x).verdict is EndoVerdict.HAS_PROPER_ENDOMORPHISM
        assert dichotomy_sweep(P3, 4, samples=40, seed=2).verdict

    def test_multi_component_base(self):
        base = disjoint_union([build_path(3), build_path(2)])
        carrier = Graph(["x", "y", "z", "w"], [("x", "y"), ("z", "w")])
        x = SliceObject(
            carrier, base, {"x": "0:v0", "y": "0:v1", "z": "1:v0", "w": "1:v1"}
        )
        result = classify_slice_object(x)
        report = classify_endomorphisms(x)
        assert result.verdict == report.verdict


class TestDichotomySweep:
    @pytest.mark.parametrize("max_carrier", [0, -3])
    def test_sweep_over_no_sizes_is_an_error(self, max_carrier):
        with pytest.raises(ValueError, match="max_carrier"):
            dichotomy_sweep(P3, max_carrier, samples=5)

    def test_negative_sample_count_is_an_error(self):
        with pytest.raises(ValueError, match="samples"):
            dichotomy_sweep(P3, 2, samples=-1)

    @pytest.mark.parametrize("seed", [None, "1", 1.0, True])
    def test_seed_that_is_not_an_int_is_an_error(self, seed):
        # random.Random(None) draws from OS entropy: no report could be reproduced
        with pytest.raises(ValueError, match="seed must be an int"):
            dichotomy_sweep(P3, 2, samples=5, seed=seed)

    @pytest.mark.parametrize("samples", [0, 5])
    def test_empty_base_is_an_error(self, samples):
        # no carrier with a vertex maps to it: the sweep would pass over 0 instances
        with pytest.raises(ValueError, match="no vertices"):
            dichotomy_sweep(Graph([]), 3, samples=samples)

    @pytest.mark.parametrize("base", [P3, disjoint_union([build_path(1), build_path(3)])])
    def test_base_is_classified_once_per_sweep(self, monkeypatch, base):
        calls = []
        classify = universality.classify_slice_base

        def counting(G):
            calls.append(G)
            return classify(G)

        monkeypatch.setattr(universality, "classify_slice_base", counting)
        report = dichotomy_sweep(base, 3, samples=30, seed=4)
        assert report.verdict and report.instances > 30
        assert calls == [base]
        # the sweep fills the memo, and every instance's classifier reads it
        info = universality._base_decomposition.cache_info()
        assert info.misses == 1 and info.hits > 0

    def test_sweep_classifies_through_the_public_name(self, monkeypatch):
        exhaustive = dichotomy_sweep(P3, 3).instances
        rng = random.Random(9)
        seventh = [random_slice_object(P3, rng) for _ in range(7)][-1]
        classify = universality.classify_slice_object

        def planted(X):
            if X == seventh:
                raise RuntimeError("planted")
            return classify(X)

        monkeypatch.setattr(universality, "classify_slice_object", planted)
        report = dichotomy_sweep(P3, 3, samples=20, seed=9)
        assert not report.verdict and report.instances == exhaustive + 7
        assert report.violation.to_dict() == {
            "instance": seventh.to_dict(), "detail": "constructive classification failed: planted"
        }

    def test_universal_base_is_refused_before_any_instance(self, monkeypatch):
        def no_instances(n, directed):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(universality, "least_masks", no_instances)
        with pytest.raises(ValueError, match="base is universal; the dichotomy applies only"):
            dichotomy_sweep(build_cycle(3), 2, samples=5)

    def test_carrier_cap_is_checked_before_any_instance(self, monkeypatch):
        def no_instances(*args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(universality, "least_masks", no_instances)
        monkeypatch.setattr(universality, "_check_dichotomy_instance", no_instances)
        cap = universality.CARRIER_ENUMERATION_CAP
        assert cap == 7
        with pytest.raises(ValueError, match=r"capped at 7 vertices \(requested 8\)"):
            dichotomy_sweep(P3, cap + 1, samples=5)

    @pytest.mark.parametrize(
        "base, max_vertices, message",
        [
            (Graph([]), 6, "base has no vertices"),
            (P3, 0, "max_vertices must be at least 1, got 0"),
            (P3, -2, "max_vertices must be at least 1, got -2"),
        ],
        ids=["empty-base", "no-vertices", "negative"],
    )
    def test_random_slice_object_refuses_before_drawing(self, base, max_vertices, message):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match=message):
            random_slice_object(base, rng, max_vertices=max_vertices)
        assert rng.getstate() == state

    def test_exhaustive_small_plus_samples(self):
        report = dichotomy_sweep(P3, 3, samples=60, seed=5)
        assert report.verdict
        assert report.instances == 40 + 60

    def test_non_path_base_still_covered(self):
        base = disjoint_union([build_path(1), build_path(3)])
        report = dichotomy_sweep(base, 2, samples=40, seed=6)
        assert report.verdict

    def test_progress_counts_every_two_hundred_instances(self):
        # 346 exhaustive instances and 190 samples: the sweep crosses two
        # multiples of 200, one in each phase
        seen = []
        report = dichotomy_sweep(P3, 4, samples=190, seed=3, progress=seen.append)
        assert report.verdict and report.instances == 346 + 190
        assert seen == [200, 400]

    def test_failed_validation_is_a_violation(self, monkeypatch):
        # every instance is built by the library, so a ValueError from the
        # classifier is its fault; P3 needs 5 carrier vertices for a length-3 plan
        def planted(plan, X):
            raise ValueError("planted")

        monkeypatch.setattr(universality.RetractionPlan, "validate", planted)
        assert dichotomy_sweep(P3, 4).verdict
        report = dichotomy_sweep(P3, 5)
        assert not report.verdict
        assert report.violation.detail == "constructive classification failed: planted"
        assert SliceObject.from_dict(report.violation.slice_doc).carrier.vertex_count == 5

    def test_sample_failure_reports_its_labeled_position(self, monkeypatch):
        exhaustive = dichotomy_sweep(P3, 3).instances
        rng = random.Random(9)
        seventh = [random_slice_object(P3, rng) for _ in range(7)][-1]
        check = universality._check_dichotomy_instance

        def planted(X):
            return "planted" if X == seventh else check(X)

        monkeypatch.setattr(universality, "_check_dichotomy_instance", planted)
        report = dichotomy_sweep(P3, 3, samples=20, seed=9)
        assert not report.verdict and report.instances == exhaustive + 7
        assert report.violation.to_dict() == {"instance": seventh.to_dict(), "detail": "planted"}


class TestFullEmbedding:
    def test_single_arc_pair(self):
        report = full_embedding_check(builtin_gadget("C3"), 1)
        assert report.verdict and report.pairs_checked == 1
        assert report.digraph_homs == report.slice_homs == 1

    def test_loop_to_arc_zero_both_sides(self):
        loop = Digraph(["u"], [("u", "u")])
        arc = Digraph(["x", "y"], [("x", "y")])
        assert list(enumerate_digraph_homs(loop, arc)) == []
        g = builtin_gadget("C3")
        from slicecat.arrow import arrow_slice
        from slicecat.homsearch import enumerate_slice_homs

        assert list(enumerate_slice_homs(arrow_slice(loop, g), arrow_slice(arc, g))) == []

    def test_sweep_over_no_sizes_is_an_error(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            full_embedding_check(builtin_gadget("C3"), 0)

    def test_spot_check_of_no_pairs_is_an_error(self):
        with pytest.raises(ValueError, match="pair_count"):
            full_embedding_spot_check(builtin_gadget("C3"), 2, 0, 1)

    @pytest.mark.parametrize("pair_count", [2.5, True, "4", None])
    def test_spot_check_pair_count_that_is_not_an_int_is_an_error(self, pair_count):
        # a float would reach range(), and a bool is an int only by accident
        with pytest.raises(ValueError, match="pair_count must be an int"):
            full_embedding_spot_check(builtin_gadget("C3"), 2, pair_count, 1)

    @pytest.mark.parametrize("seed", [None, "1", 1.0, True])
    def test_spot_check_seed_that_is_not_an_int_is_an_error(self, seed):
        # random.Random(None) draws from OS entropy: no report could be reproduced
        with pytest.raises(ValueError, match="seed must be an int"):
            full_embedding_spot_check(builtin_gadget("C3"), 2, 3, seed)

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda g: full_embedding_check(g, 0), "need at least one vertex, got 0"),
            (lambda g: full_embedding_check(g, 5), r"digraph enumeration is capped at 4 vertices \(requested 5\)"),
            (lambda g: full_embedding_spot_check(g, 0, 4, 1), "need at least one vertex, got 0"),
            (lambda g: full_embedding_spot_check(g, 5, 4, 1), r"digraph enumeration is capped at 4 vertices \(requested 5\)"),
            (lambda g: full_embedding_spot_check(g, 3, 0, 1), "pair_count must be at least 1, got 0"),
        ],
        ids=["full-0", "full-5", "spot-0", "spot-5", "no-pairs"],
    )
    def test_sizes_are_checked_before_any_target_is_searched(self, monkeypatch, run, message):
        # the sweep's one search into F(K_n) must not run, nor fail first, on a bad size
        def no_search(*args):
            raise AssertionError("a target was searched")

        monkeypatch.setattr(universality, "_target_record", no_search)
        with pytest.raises(ValueError, match=message):
            run(builtin_gadget("C3"))

    def test_two_vertex_sweep(self):
        report = full_embedding_check(builtin_gadget("C3"), 2)
        assert report.verdict and report.pairs_checked == 14 * 14
        assert report.digraph_homs == report.slice_homs

    def test_spot_check_three_vertices(self):
        report = full_embedding_spot_check(builtin_gadget("C3"), 3, 25, seed=11)
        assert report.verdict and report.pairs_checked >= 20

    @pytest.mark.parametrize("name", BUILTIN_GADGET_NAMES)
    def test_spot_check_samples_the_same_pairs(self, name):
        # reference: draw over the list of built digraphs, count both
        # hom-sets through the validated public enumerators
        g = builtin_gadget(name)
        digraphs = list(enumerate_digraphs(3, True))
        for seed in range(21):
            rng = random.Random(seed)
            pairs = sorted(
                {(rng.randrange(len(digraphs)), rng.randrange(len(digraphs))) for _ in range(4)}
            )
            homs = sum(len(list(enumerate_digraph_homs(digraphs[i], digraphs[j]))) for i, j in pairs)
            slice_homs = sum(
                slice_hom_count(arrow_slice(digraphs[i], g), arrow_slice(digraphs[j], g)) for i, j in pairs
            )
            report = full_embedding_spot_check(g, 3, 4, seed)
            assert report.to_dict() == {
                "pairs_checked": len(pairs),
                "digraph_homs": homs,
                "slice_homs": slice_homs,
                "verdict": "pass",
                "violation": None,
            }

    def test_slice_hom_that_is_not_glued_is_reported(self, monkeypatch):
        # reversing each raw solution gadget -> F(D2) breaks every copy map:
        # at n = 1 no reversed leaf commutes, so the counts differ
        import slicecat.universality as universality

        engine = universality.hom_leaves_into

        def reversed_leaves(gadget_slice, rows, fibers):
            variables, leaves = engine(gadget_slice, rows, fibers)
            return variables, (leaf[::-1] for leaf in leaves)

        monkeypatch.setattr(universality, "hom_leaves_into", reversed_leaves)
        report = full_embedding_check(builtin_gadget("C3"), 1)
        assert not report.verdict and report.violation.kind == "count-mismatch"
        assert (report.digraph_homs, report.slice_homs) == (1, 0)

    def test_glued_map_that_is_not_a_slice_hom_is_reported(self, monkeypatch):
        # equal counts do not suffice: every glued map must be among the
        # slice homs found.  Swapping the images of a and b in each solution
        # gadget -> F(D2) transposes N, which keeps the counts of the first
        # 16 pairs but sends the arc v0 -> v1 to a copy that is not found.
        import slicecat.universality as universality

        engine = universality.hom_leaves_into
        g = builtin_gadget("C3")

        def swapped_leaves(gadget_slice, rows, fibers):
            variables, leaves = engine(gadget_slice, rows, fibers)
            i, j = variables.index(g.a), variables.index(g.b)

            def swap(leaf):
                leaf = list(leaf)
                leaf[i], leaf[j] = leaf[j], leaf[i]
                return leaf

            return variables, map(swap, leaves)

        monkeypatch.setattr(universality, "hom_leaves_into", swapped_leaves)
        report = full_embedding_check(g, 2)
        assert not report.verdict and report.violation.kind == "missing-image"
        assert report.digraph_homs == report.slice_homs == 17
        assert report.pairs_checked == 16

    def test_unverified_gadget_fails_embedding(self):
        # a foldable slice admits non-copy morphisms, breaking fullness
        g = builtin_gadget("C4")
        mutated = {k: v for k, v in g.slice.structure_map.mapping}
        mutated["c"] = "0"
        from slicecat.gadgets import Gadget

        bad = Gadget(SliceObject(g.carrier, g.base, mutated), g.a, g.b)
        report = full_embedding_check(bad, 1)
        assert not report.verdict
        assert report.violation is not None


def test_dichotomy_benchmark_objects_keep_their_classifications():
    # every verdict and witness of the 19,248 dichotomy benchmark objects of
    # seeds 1, 7 and 12, pinned as a digest: a rewrite of the classifier's
    # internals must return exactly the same reports
    workloads = load_workloads()
    digest = hashlib.sha256()
    tally: Counter = Counter()
    for seed in (1, 7, 12):
        for call in workloads._build_dichotomy(random.Random(f"dichotomy:{seed}")):
            report = classify_slice_object(call.args[0]).to_dict()
            tally[report["verdict"]] += 1
            digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
    assert tally == {"rigid": 1727, "proper-endomorphism": 17521}
    assert digest.hexdigest() == "1848f204d4c2984f802b058fd65493857e57a551aea85eccec76e124c02a1b2b"
