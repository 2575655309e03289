"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is exact (set equality or integer equality); the
random sweeps are seeded and deterministic.
"""

import random

import pytest

from slicecat.arrow import arrow_graph, arrow_morphism, phi, product_structure_map
from slicecat.core import build_path
from slicecat.gadgets import (
    BUILTIN_GADGET_NAMES,
    builtin_gadget,
    build_gk,
    check_strong_replacement,
    verify_gadget_exhaustive,
)
from slicecat.homsearch import (
    EndoVerdict,
    classify_endomorphisms,
    digraph_hom_count,
    digraph_masks,
    enumerate_digraph_homs,
    enumerate_digraphs,
    enumerate_graphs,
    hom_count,
)
from slicecat.universality import (
    RetractionPlan,
    RigidPathCertificate,
    classify_slice_base,
    dichotomy_sweep,
    full_embedding_check,
    full_embedding_spot_check,
    retract_slice_to_path,
)

from conftest import (
    naive_base_verdict,
    phi_is_strong,
    random_connected_surjective_slice,
    random_digraph,
    random_graph,
    structure_map_mutations,
    verify_mutated_gadget,
)

SEED = 20260808


def test_criterion_1_gadget_verification():
    """Every built-in gadget passes the exhaustive sweep up to 3 vertices."""
    n3 = sum(1 for _ in enumerate_digraphs(3, True))
    expected = 1 + 13 + n3
    for name in BUILTIN_GADGET_NAMES:
        report = verify_gadget_exhaustive(builtin_gadget(name), 3)
        assert report.verdict, f"{name}: {report.to_dict()}"
        assert report.digraphs_checked == expected
    print(
        f"ACCEPTANCE 1 gadget-verification: PASS "
        f"({expected} digraphs per gadget, N3={n3}, exact copy-map set equality)"
    )


def test_criterion_2_full_embedding():
    """Hom-set bijection for all 196 ordered pairs at size 2, sampled at 3."""
    gadget = builtin_gadget("C3")
    report = full_embedding_check(gadget, 2)
    assert report.verdict, report.to_dict()
    assert report.pairs_checked == 14 * 14 == 196
    assert report.digraph_homs == report.slice_homs
    spot = full_embedding_spot_check(gadget, 3, 110, seed=SEED)
    assert spot.verdict, spot.to_dict()
    assert spot.pairs_checked >= 100
    assert spot.digraph_homs == spot.slice_homs
    print(
        f"ACCEPTANCE 2 full-embedding: PASS (196 exhaustive pairs with "
        f"{report.digraph_homs} homs per side, {spot.pairs_checked} sampled "
        f"3-vertex pairs with {spot.digraph_homs} homs per side)"
    )


def test_criterion_1_gadget_verification_at_four_vertices():
    """The triangle gadget passes the exhaustive sweep up to 4 vertices."""
    report = verify_gadget_exhaustive(builtin_gadget("C3"), 4)
    # a passing gadget has one slice hom per arc, so its total is the arc
    # count summed over the labeled digraphs, independent of the class sweep
    arcs = sum(mask.bit_count() for n in range(1, 5) for mask in digraph_masks(n, True))
    assert report.verdict, report.to_dict()
    assert report.digraphs_checked == 1 + 13 + 469 + 63_577 == 64_060
    assert report.hom_count == arcs == 517_502
    print(f"ACCEPTANCE 1b gadget-verification at 4: PASS (64060 digraphs, {arcs} homs)")


@pytest.mark.parametrize("name", BUILTIN_GADGET_NAMES)
def test_criterion_2_full_embedding_at_three_vertices(name):
    """Hom-set bijection for all 483^2 ordered pairs up to size 3 (figures of a labeled sweep)."""
    report = full_embedding_check(builtin_gadget(name), 3)
    assert report.to_dict() == {
        "pairs_checked": 483 * 483,
        "digraph_homs": 1_030_472,
        "slice_homs": 1_030_472,
        "verdict": "pass",
        "violation": None,
    }
    print(f"ACCEPTANCE 2b full-embedding at 3, {name}: PASS (233289 exhaustive pairs, 1030472 homs per side)")


def test_criterion_3_dichotomy():
    """Rigid or proper endomorphism, never a nontrivial automorphism group."""
    report = dichotomy_sweep(build_path(3), 4, samples=500, seed=SEED)
    assert report.verdict, report.to_dict()
    assert report.instances >= 346 + 500
    print(
        f"ACCEPTANCE 3 dichotomy: PASS ({report.instances} slice objects over the "
        f"length-3 path: exhaustive connected carriers to 4 vertices plus 500 "
        f"random instances, constructive and enumerated verdicts agree)"
    )


def test_criterion_4_classifier_equivalence():
    """Structural classifier agrees with the subgraph oracle everywhere tried."""
    exhaustive = 0
    for n in range(6):
        for g in enumerate_graphs(n):
            assert classify_slice_base(g).verdict == naive_base_verdict(g), g.to_dict()
            exhaustive += 1
    rng = random.Random(SEED)
    for _ in range(1000):
        g = random_graph(rng, 9, edge_probability=rng.choice([0.1, 0.2, 0.35, 0.5]))
        assert classify_slice_base(g).verdict == naive_base_verdict(g), g.to_dict()
    print(
        f"ACCEPTANCE 4 classifier-equivalence: PASS ({exhaustive} labeled graphs "
        f"through 5 vertices exhaustively, 1000 random graphs through 9 vertices)"
    )


def test_criterion_5_retraction_contract():
    """Every retraction is an idempotent slice endomorphism onto a zigzag path."""
    rng = random.Random(SEED)
    base = build_path(3)
    plans = certificates = 0
    for _ in range(500):
        x = random_connected_surjective_slice(base, rng, max_vertices=8)
        outcome = retract_slice_to_path(x)
        if isinstance(outcome, RigidPathCertificate):
            certificates += 1
            report = classify_endomorphisms(x)
            assert report.verdict is EndoVerdict.RIGID, x.to_dict()
        else:
            assert isinstance(outcome, RetractionPlan)
            outcome.validate(x)
            assert not outcome.retraction.is_bijective()
            plans += 1
    assert plans + certificates == 500
    print(
        f"ACCEPTANCE 5 retraction-contract: PASS (500 random connected surjective "
        f"slices: {plans} proper retractions validated, {certificates} rigid "
        f"path certificates confirmed by enumeration)"
    )


def test_criterion_6_arrow_invariants():
    """Vertex formula, edge reflection, structure-map compatibility, functor laws."""
    rng = random.Random(SEED)
    identity_checks = compositions = faithful_pairs = 0
    for _ in range(500):
        d = random_digraph(rng, 4)
        gadget = builtin_gadget(rng.choice(BUILTIN_GADGET_NAMES))
        res = arrow_graph(d, gadget.carrier, gadget.a, gadget.b)
        assert res.product.vertex_count == d.vertex_count + d.arc_count * (
            gadget.carrier.vertex_count - 2
        )
        f_d = product_structure_map(res, gadget)
        for arc in d.arcs:
            ok, witness = phi_is_strong(res, arc)
            assert ok, (arc, witness)
            copy = phi(res, arc)
            assert all(
                f_d(copy(x)) == gadget.slice.color(x) for x in gadget.carrier.vertices
            )
        # functor laws on a companion digraph
        d2 = random_digraph(rng, 3)
        idm = arrow_morphism(d, d, {v: v for v in d.vertices}, gadget)
        assert all(idm(v) == v for v in idm.source.carrier.vertices)
        identity_checks += 1
        homs = []
        for i, h in enumerate(enumerate_digraph_homs(d, d2)):
            if i >= 4:
                break
            homs.append(h)
        images = set()
        for h in homs:
            images.add(arrow_morphism(d, d2, h, gadget).map.mapping)
        assert len(images) == len(homs)  # faithfulness
        faithful_pairs += 1
        if homs:
            h2 = next(enumerate_digraph_homs(d2, d2), None)
            if h2 is not None:
                h = homs[0]
                composed = {v: h2[h[v]] for v in d.vertices}
                lhs = arrow_morphism(d, d2, composed, gadget)
                rhs = arrow_morphism(d2, d2, h2, gadget).compose(
                    arrow_morphism(d, d2, h, gadget)
                )
                assert lhs.map == rhs.map
                compositions += 1
    assert compositions > 100
    print(
        f"ACCEPTANCE 6 arrow-invariants: PASS (500 instances; {identity_checks} "
        f"identity laws, {compositions} composition laws, {faithful_pairs} "
        f"faithfulness checks, all exact)"
    )


def test_criterion_7_mutation_sensitivity():
    """At least three structure-map rewrites per gadget are caught."""
    summary = []
    sweep_failures_seen = 0
    for name in BUILTIN_GADGET_NAMES:
        gadget = builtin_gadget(name)
        caught = invalid = extra = 0
        for vertex, target in structure_map_mutations(gadget):
            report = verify_mutated_gadget(gadget, vertex, target, max_n=2)
            if report.verdict:
                continue
            caught += 1
            assert report.counterexample is not None
            if report.counterexample.kind == "invalid-gadget":
                invalid += 1
            else:
                extra += 1
                assert report.counterexample.digraph is not None
                assert report.counterexample.mapping is not None
        assert caught >= 3, f"{name}: only {caught} mutations caught"
        sweep_failures_seen += extra
        summary.append(f"{name}:{caught} caught ({invalid} invalid, {extra} extra-hom)")
    assert sweep_failures_seen > 0, "no mutation ever produced a stray morphism"
    print(f"ACCEPTANCE 7 mutation-sensitivity: PASS ({'; '.join(summary)})")


def test_criterion_8_replacement_graph_reconstruction():
    """The odd-cycle replacement gk(2) is rigid, its self-maps stay inside
    one copy over every loop-free 2-vertex digraph, and gluing it along
    every arc keeps the hom counts of loop-free isolation-free digraphs:
    |Hom(D1 * gk, D2 * gk)| = |Hom(D1, D2)| for D1 on at most 2 and D2 on at
    most 3 vertices, one digraph per isomorphism class."""
    gk = build_gk(2)
    assert classify_endomorphisms(gk.graph).verdict is EndoVerdict.RIGID
    loop_free = [D for D in enumerate_digraphs(2, False) if not D.has_loop()]
    assert len(loop_free) == 4
    for D in loop_free:
        assert check_strong_replacement(gk.graph, gk.a, gk.b, D).holds, D.arcs

    def classes(max_n):
        every = (D for n in range(1, max_n + 1) for D in enumerate_digraphs(n, True, canonical=True))
        return [D for D in every if not D.has_loop()]

    sources, targets = classes(2), classes(3)
    assert (len(sources), len(targets)) == (2, 15)
    glued = {D: arrow_graph(D, gk.graph, gk.a, gk.b).product for D in targets}
    for D1 in sources:
        for D2 in targets:
            assert hom_count(glued[D1], glued[D2]) == digraph_hom_count(D1, D2), (D1.arcs, D2.arcs)
    print(
        "ACCEPTANCE 8 replacement-graph: PASS (19-vertex reconstruction is rigid; "
        "self-maps stay inside one copy over all 4 loop-free 2-vertex digraphs; "
        "plain hom counts kept on all 30 class pairs)"
    )
