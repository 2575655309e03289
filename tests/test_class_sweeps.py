"""Sweeps over isomorphism classes against the labeled sweeps they replace.

The reference sweeps below walk every labeled digraph in ascending arc-mask
order, or every labeled connected carrier in ascending edge-mask order and
every hom into the base, one check per digraph or instance, as the sweeps
did before they checked one member per class.  Reduced and labeled sweeps
must agree on every report field: verdict, counterexample or violation,
``digraphs_checked``, ``pairs_checked``, ``instances`` and the hom totals.
"""

import contextlib
import io
import json
import random
from itertools import permutations
from math import factorial

import pytest

from slicecat import arrow, gadgets, universality
from slicecat.arrow import arrow_graph, arrow_slice, product_layout, product_rows
from slicecat.cli import main
from slicecat.core import Digraph, Graph, SliceObject, build_path, disjoint_union
from slicecat.gadgets import (
    BUILTIN_GADGET_NAMES,
    Gadget,
    GadgetCounterexample,
    GadgetReport,
    ReplacementReport,
    builtin_gadget,
    check_strong_replacement,
    check_strong_replacement_exhaustive,
    verify_gadget_exhaustive,
)
from slicecat.homsearch import (
    class_sweep,
    digraph_from_mask,
    digraph_hom_count,
    digraph_masks,
    enumerate_digraphs,
    enumerate_graphs,
    enumerate_homs,
    graph_from_mask,
    labeled_digraph_classes,
    least_masks,
    slice_hom_count,
    slice_pattern,
)
from slicecat.universality import (
    DichotomyReport,
    DichotomyViolation,
    EmbeddingReport,
    EmbeddingViolation,
    dichotomy_sweep,
    full_embedding_check,
    full_embedding_spot_check,
    random_slice_object,
)

from conftest import digraph_classes, gadget_building_mutants, named_target_record, reference_embedding_pair


BUILTINS = {name: builtin_gadget(name) for name in BUILTIN_GADGET_NAMES}
MUTANTS = {f"{name}:{vertex}->{target}": g for (name, vertex, target), g in gadget_building_mutants().items()}
GADGETS = {**BUILTINS, **MUTANTS}
# a and b alone over P0: its copy on an arc is just the arc's two ends
NO_INTERIOR = Gadget(SliceObject(Graph(["a", "b"], []), build_path(0), {"a": "v0", "b": "v0"}), "a", "b")


def _mask(D: Digraph) -> int:
    """The arc mask of a digraph on v0..v(n-1), as ``digraph_masks`` numbers it."""
    n = D.vertex_count
    return sum(1 << (n * int(u[1:]) + int(v[1:])) for u, v in D.arcs)


def _plan(gadget) -> tuple:
    """The gadget's search pattern and copy layout, which ``_embedding_sweep``
    builds once per sweep for its target records."""
    pattern = slice_pattern(gadget.slice)
    return pattern, product_layout(gadget, pattern[0])


def _is_exact(record) -> bool:
    """Whether a target record reads as exact: every arc of D2 glued and N
    1 on exactly those arcs."""
    return record.glued == record.arcs and record.weights == dict.fromkeys(record.arcs, 1)


def _edge_mask(G: Graph) -> int:
    """The edge mask of a graph on v0..v(n-1), as ``enumerate_graphs`` numbers it."""
    n = G.vertex_count
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(1 << pairs.index((int(u[1:]), int(v[1:]))) for u, v in G.edges)


# ---------------------------------------------------------------------------
# labeled reference sweeps


def labeled_verify(gadget, max_n) -> GadgetReport:
    checked = 0
    total_homs = 0
    for n in range(1, max_n + 1):
        for D in enumerate_digraphs(n, True):
            report = gadgets.verify_gadget(gadget, D)
            checked += 1
            total_homs += report.hom_count or 0
            if not report.verdict:
                return GadgetReport(checked, max_n, False, report.counterexample, report.hom_count)
    return GadgetReport(checked, max_n, True, hom_count=total_homs)


def labeled_embed(gadget, max_n) -> EmbeddingReport:
    keys = [(n, mask) for n in range(1, max_n + 1) for mask in digraph_masks(n, True)]
    plan = _plan(gadget)
    records = [universality._target_record(*plan, *key) for key in keys]
    checked = total_d = total_s = 0
    for first in keys:
        for second in records:
            nd, ns, violation = universality._check_embedding_pair(gadget, first, second)
            checked += 1
            total_d += nd
            total_s += ns
            if violation is not None:
                return EmbeddingReport(checked, total_d, total_s, False, violation)
    return EmbeddingReport(checked, total_d, total_s, True)


def labeled_spot(gadget, n, pair_count, seed) -> EmbeddingReport:
    # the spot check's draw, each distinct pair checked against its own target's record
    masks = digraph_masks(n, True)
    rng = random.Random(seed)
    chosen = sorted({(rng.randrange(len(masks)), rng.randrange(len(masks))) for _ in range(pair_count)})
    plan = _plan(gadget)
    checked = total_d = total_s = 0
    for i, j in chosen:
        record = universality._target_record(*plan, n, masks[j])
        nd, ns, violation = universality._check_embedding_pair(gadget, (n, masks[i]), record)
        checked += 1
        total_d += nd
        total_s += ns
        if violation is not None:
            return EmbeddingReport(checked, total_d, total_s, False, violation)
    return EmbeddingReport(checked, total_d, total_s, True)


def labeled_strong(H, a, b, max_n, regime) -> dict:
    checked = 0
    for n in range(1, max_n + 1):
        for D in enumerate_digraphs(n, False):
            if regime == "irreflexive" and D.has_loop():
                continue
            if regime == "no-isolated" and D.isolated_vertices():
                continue
            checked += 1
            report = check_strong_replacement(H, a, b, D, regime=regime)
            if not report.holds:
                return dict(report.to_dict(), digraphs_checked=checked, digraph=D.to_dict())
    return {"holds": True, "digraphs_checked": checked, "witness": None}


def labeled_dichotomy(base, max_carrier, samples=0, seed=0, progress=None) -> DichotomyReport:
    """Every labeled connected carrier, every hom into the base, then the
    seeded samples: one check per instance."""
    universality._base_decomposition(base)  # a universal base is refused before any instance

    def objects():
        for n in range(1, max_carrier + 1):
            for carrier in enumerate_graphs(n):
                if carrier.is_connected():
                    for hom in enumerate_homs(carrier, base):
                        yield SliceObject(carrier, base, hom)
        rng = random.Random(seed)
        for _ in range(samples):
            yield random_slice_object(base, rng)

    instances = 0
    for X in objects():
        instances += 1
        if progress and instances % 200 == 0:
            progress(instances)
        problem = universality._check_dichotomy_instance(X)
        if problem is not None:
            return DichotomyReport(instances, False, DichotomyViolation(X.to_dict(), problem))
    return DichotomyReport(instances, True)


def library_strong(H, a, b, max_n, regime) -> dict:
    """The library sweep's result in the CLI's payload form."""
    checked, report, D = check_strong_replacement_exhaustive(H, a, b, max_n, regime=regime)
    if D is None:
        assert report.holds and report.witness is None
        return {"holds": True, "digraphs_checked": checked, "witness": None}
    return dict(report.to_dict(), digraphs_checked=checked, digraph=D.to_dict())


def cli_strong(tmp_path, H, a, b, max_n, regime) -> dict:
    path = tmp_path / "h.json"
    path.write_text(json.dumps(H.to_dict()), encoding="utf-8")
    out = io.StringIO()
    argv = ["strong-replacement", "--graph", str(path), "--a", a, "--b", b,
            "--max-size", str(max_n), "--regime", regime]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    payload = json.loads(out.getvalue())
    assert code == (0 if payload["holds"] else 1)
    return payload


# ---------------------------------------------------------------------------
# reduced sweeps equal labeled sweeps


def test_the_mutants_are_the_twelve_gadget_building_rewrites():
    assert len(MUTANTS) == 12


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_verify_matches_labeled_sweep(name):
    gadget = GADGETS[name]
    for max_n in (1, 2, 3):
        assert verify_gadget_exhaustive(gadget, max_n).to_dict() == labeled_verify(gadget, max_n).to_dict()


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_embed_matches_labeled_sweep(name):
    gadget = GADGETS[name]
    for max_n in (1, 2):
        assert full_embedding_check(gadget, max_n).to_dict() == labeled_embed(gadget, max_n).to_dict()
    for n in (1, 2, 3):
        for seed in range(6):
            got = full_embedding_spot_check(gadget, n, 4, seed)
            assert got.to_dict() == labeled_spot(gadget, n, 4, seed).to_dict(), (n, seed)


def _complete_mask(n: int) -> int:
    """The arc mask of K_n, every arc and every loop on n vertices."""
    return (1 << n * n) - 1


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_complete_target_is_exact_iff_every_target_is(name):
    # the sweep builds every record from D2's arcs when F(K_n) reads as exact
    gadget = GADGETS[name]
    plan = _plan(gadget)
    exact = [
        (n, _is_exact(universality._target_record(*plan, n, mask)))
        for n in (1, 2, 3)
        for mask in digraph_masks(n, True)
    ]
    for n in (1, 2, 3):
        complete = universality._target_record(*plan, n, _complete_mask(n))
        assert _is_exact(complete) == all(e for size, e in exact if size <= n), n
        assert _is_exact(complete) == (name in BUILTINS), n


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_one_layout_per_sweep_when_the_complete_target_is_exact(monkeypatch, name):
    # a built-in lays out F(K_n) alone; a mutant lays out F(K_n) and then each
    # distinct target it checks a pair into, as the per-target sweep did
    gadget = GADGETS[name]
    layouts, targets = [], set()
    real_rows, real_pair = arrow.product_rows, universality._check_embedding_pair

    def rows(*args):
        layouts.append(args[0])
        return real_rows(*args)

    def pair(gadget, source, target):
        targets.add((target.n, target.mask))
        return real_pair(gadget, source, target)

    monkeypatch.setattr(arrow, "product_rows", rows)
    monkeypatch.setattr(universality, "_check_embedding_pair", pair)
    sweeps = [(full_embedding_check, (gadget, max_n)) for max_n in (1, 2)]
    sweeps += [(full_embedding_spot_check, (gadget, 3, 4, seed)) for seed in range(4)]
    for sweep, args in sweeps:
        layouts.clear()
        targets.clear()
        sweep(*args)
        assert targets
        assert len(layouts) == (1 if name in BUILTINS else 1 + len(targets)), args


def test_a_gadget_with_no_interior_vertex_searches_every_target():
    # F(K_n) reads as exact, yet F(D2) of a single arc has four slice homs from
    # the gadget and one copy: the sweeps must fail as the per-target reference does
    plan = _plan(NO_INTERIOR)
    assert _is_exact(universality._target_record(*plan, 2, _complete_mask(2)))
    full = full_embedding_check(NO_INTERIOR, 2)
    assert not full.verdict and full.violation.kind == "count-mismatch"
    assert full.to_dict() == labeled_embed(NO_INTERIOR, 2).to_dict()
    spot = full_embedding_spot_check(NO_INTERIOR, 3, 4, 7)
    assert not spot.verdict
    assert spot.to_dict() == labeled_spot(NO_INTERIOR, 3, 4, 7).to_dict()


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_pair_counts_match_the_product_to_product_count(name):
    # the pair check counts through the gluing; the check it replaced searched
    # the slice homs between the two built products, counted here directly
    gadget = GADGETS[name]
    keys = [(n, mask) for n in (1, 2) for mask in digraph_masks(n, True)]
    digraphs = [digraph_from_mask(*key) for key in keys]
    products = [arrow_slice(D, gadget) for D in digraphs]
    plan = _plan(gadget)
    records = [universality._target_record(*plan, *key) for key in keys]
    for key, D1, F1 in zip(keys, digraphs, products):
        for D2, F2, record in zip(digraphs, products, records):
            nd, ns, _ = universality._check_embedding_pair(gadget, key, record)
            assert (nd, ns) == (digraph_hom_count(D1, D2), slice_hom_count(F1, F2)), (D1, D2)


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_pair_check_matches_the_two_search_reference(name):
    # one search into S ∪ D2 against a search into D2 and one into S; the
    # mutants' hosts have arcs and vertices outside D2
    gadget = GADGETS[name]
    small = [(n, mask) for n in (1, 2) for mask in digraph_masks(n, True)]
    rng = random.Random(name)
    three = [(3, mask) for mask in digraph_masks(3, True)]
    pairs = [(x, y) for x in small for y in small] + [(rng.choice(three), rng.choice(three)) for _ in range(40)]
    targets = dict.fromkeys(key for _, key in pairs)
    plan = _plan(gadget)
    records = {key: universality._target_record(*plan, *key) for key in targets}
    references = {key: named_target_record(gadget, digraph_from_mask(*key)) for key in targets}
    for source, target in pairs:
        record, (D2, glued, support, weights) = records[target], references[target]
        cases = [(record, (D2, glued, support, weights))]
        if glued:
            # with one glued arc taken out, the first digraph hom through it is reported
            lost = min(glued)
            cases.append((record._replace(glued=glued - {lost}), (D2, glued - {lost}, support, weights)))
        for got_record, reference in cases:
            got = universality._check_embedding_pair(gadget, source, got_record)
            expected = reference_embedding_pair(gadget, digraph_from_mask(*source), reference)
            assert _pair_doc(got) == _pair_doc(expected), (source, target)


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_records_of_builtins_are_exact_and_of_mutants_are_not(name):
    # an exact record's host is D2's own n rows; a tallied one has F(D2)'s
    gadget = GADGETS[name]
    plan = _plan(gadget)
    keys = [(n, mask) for n in (1, 2, 3) for mask in digraph_masks(n, True)]
    assert len(keys) == 1 + 13 + 469
    for n, mask in keys:
        record = universality._target_record(*plan, n, mask)
        if name in BUILTINS:
            assert _is_exact(record) and len(record.out) == len(record.inn) == n, (n, mask)
        else:
            assert not _is_exact(record) and len(record.out) > n, (n, mask)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_planted_extra_n_entry_takes_the_full_path(name):
    # one more N entry, off D2's arcs, on an exact record, with its arc in the
    # host as the tally would put it there: the pair check reads the record
    # as not exact and must equal the two-search reference, which counts
    # the extra slice homs
    gadget = GADGETS[name]
    plan = _plan(gadget)
    keys = [(n, mask) for n in (1, 2) for mask in digraph_masks(n, True)]
    kinds = set()
    for target in keys[1:]:
        record = universality._target_record(*plan, *target)
        D2, glued, support, weights = named_target_record(gadget, digraph_from_mask(*target))
        assert _is_exact(record) and support.vertices == D2.vertices
        off = [(1 << i, 1 << j) for i in range(2) for j in range(2) if (1 << i, 1 << j) not in record.arcs]
        if not off:
            continue
        p, q = off[0]
        out, inn = list(record.out), list(record.inn)
        out[p.bit_length() - 1] |= q
        inn[q.bit_length() - 1] |= p
        planted = record._replace(weights={**record.weights, (p, q): 1}, out=out, inn=inn)
        names = D2.vertices
        extra = (names[p.bit_length() - 1], names[q.bit_length() - 1])
        reference = (D2, glued, Digraph(names, [*support.arcs, extra]), {**weights, (p, q): 1})
        for source in keys:
            got = universality._check_embedding_pair(gadget, source, planted)
            expected = reference_embedding_pair(gadget, digraph_from_mask(*source), reference)
            assert _pair_doc(got) == _pair_doc(expected), (source, target)
            kinds.add(got[2] and got[2].kind)
    assert "count-mismatch" in kinds


def _pair_doc(result) -> tuple:
    """A pair check's counts and its violation as a document, or None."""
    nd, ns, violation = result
    return nd, ns, violation and violation.to_dict()


def _n_by_ids(weights, ids) -> dict:
    """N on pairs of bits, each renamed to a product id by ``ids``."""
    return {(ids[p], ids[q]): count for (p, q), count in weights.items()}


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_target_record_matches_the_named_reference(name):
    # the record searches F(D) laid out by index, the reference the named
    # product; the copy maps of both layouts translate indices to product ids
    gadget = GADGETS[name]
    pattern, layout = _plan(gadget)
    for D in (D for n in (1, 2, 3) for D in enumerate_digraphs(n, True)):
        n, mask = D.vertex_count, _mask(D)
        record, reference = universality._target_record(pattern, layout, n, mask), named_target_record(gadget, D)
        res = arrow_graph(D, gadget.carrier, gadget.a, gadget.b)
        arcs = [(k // n, k % n) for k in range(n * n) if mask >> k & 1]
        # each copy comes as a raw leaf: per pattern variable, its image's bit
        product_id = {
            bit: ids[w]
            for leaf, ids in zip(product_rows(n, arcs, layout)[2], res.copies.values())
            for w, bit in zip(pattern[0], leaf)
        }
        support_id = {1 << k: w for k, w in enumerate(reference[2].vertices)}
        assert record.glued == reference[1], D
        assert _n_by_ids(record.weights, product_id) == _n_by_ids(reference[3], support_id), D
        assert record.arcs == {(1 << u, 1 << v) for u, v in arcs}, D
        # the host's rows hold exactly the arcs of S and of D, read from both ends
        host = set(record.weights) | record.arcs
        assert {(1 << i, q & -q) for i, row in enumerate(record.out) for q in _bits(row)} == host, D
        assert {(p & -p, 1 << j) for j, row in enumerate(record.inn) for p in _bits(row)} == host, D


def _bits(mask: int) -> list[int]:
    """The singleton bitsets of ``mask``."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("regime", ["irreflexive", "no-isolated"])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_strong_replacement_matches_labeled_sweep(tmp_path, name, regime):
    # a rewrite changes only the structure map, so the mutants share these carriers
    gadget = BUILTINS[name]
    H, a, b = gadget.carrier, gadget.a, gadget.b
    assert cli_strong(tmp_path, H, a, b, 3, regime) == labeled_strong(H, a, b, 3, regime)
    assert library_strong(H, a, b, 3, regime) == labeled_strong(H, a, b, 3, regime)


def test_passing_strong_replacement_matches_labeled_sweep(tmp_path):
    # an edge glued by its ends stays in one copy; it cannot be glued along a loop
    H = build_path(1)
    expected = labeled_strong(H, "v0", "v1", 3, "irreflexive")
    assert expected == {"holds": True, "digraphs_checked": 1 + 4 + 64, "witness": None}
    assert cli_strong(tmp_path, H, "v0", "v1", 3, "irreflexive") == expected
    assert library_strong(H, "v0", "v1", 3, "irreflexive") == expected
    # a pass counts the homomorphisms of every labeled digraph
    _, report, _ = check_strong_replacement_exhaustive(H, "v0", "v1", 3)
    assert report.homs_checked == sum(
        check_strong_replacement(H, "v0", "v1", D).homs_checked
        for n in (1, 2, 3)
        for D in enumerate_digraphs(n, False)
        if not D.has_loop()
    )


DICHOTOMY_BASES = {
    "P3": build_path(3),
    "P1+P3": disjoint_union([build_path(1), build_path(3)]),
    "P2": build_path(2),
}


@pytest.mark.parametrize("max_carrier", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(DICHOTOMY_BASES))
def test_dichotomy_matches_labeled_sweep(name, max_carrier):
    base = DICHOTOMY_BASES[name]
    seen, expected_seen = [], []
    reduced = dichotomy_sweep(base, max_carrier, samples=250, seed=max_carrier, progress=seen.append)
    labeled = labeled_dichotomy(base, max_carrier, 250, max_carrier, expected_seen.append)
    assert reduced.to_dict() == labeled.to_dict()
    assert seen == expected_seen


def test_dichotomy_counts_labeled_instances():
    P3 = build_path(3)
    assert dichotomy_sweep(P3, 5).instances == 5_416
    assert dichotomy_sweep(P3, 6).instances == 130_762


# ---------------------------------------------------------------------------
# failures inside a class: the labeled prefix is recounted


def _late_class(n: int, min_index: int) -> int:
    """A least mask of an isolation-free class on n vertices, not the size's
    first mask, that an earlier class has a member above: a sweep that
    added up whole orbits before it would overcount."""
    classes = digraph_classes(n, True)
    for k, (mask, _) in enumerate(classes):
        if k >= min_index and any(max(orbit) > mask for _, orbit in classes[:k]):
            return mask
    raise AssertionError("no such class")


def test_verify_fails_inside_a_size_like_the_labeled_sweep(monkeypatch):
    target = _late_class(3, 60)
    orbit = next(o for m, o in digraph_classes(3, True) if m == target)
    real = gadgets.verify_gadget

    def liar(gadget, D):
        report = real(gadget, D)
        if D.vertex_count == 3 and _mask(D) in orbit:
            ce = GadgetCounterexample(digraph=D, kind="extra-hom", mapping={"a": "a"})
            return GadgetReport(1, 3, False, ce, hom_count=report.hom_count)
        return report

    monkeypatch.setattr(gadgets, "verify_gadget", liar)
    seen = []
    reduced = verify_gadget_exhaustive(builtin_gadget("C3"), 3, progress=seen.append)
    labeled = labeled_verify(builtin_gadget("C3"), 3)
    assert reduced.to_dict() == labeled.to_dict()
    assert not reduced.verdict and _mask(reduced.counterexample.digraph) == target
    # 1 + 13 digraphs on fewer vertices, then the labeled masks up to the target
    assert reduced.digraphs_checked == 14 + sum(1 for m in digraph_masks(3, True) if m <= target)
    assert seen and max(seen) <= reduced.digraphs_checked


def test_embed_fails_inside_a_size_like_the_labeled_sweep(monkeypatch):
    classes = dict(digraph_classes(2, True))
    first, second = _late_class(2, 2), _late_class(2, 1)
    real = universality._check_embedding_pair

    def liar(gadget, source, target):
        nd, ns, violation = real(gadget, source, target)
        (n1, m1), (n2, m2) = source, (target.n, target.mask)
        if n1 == n2 == 2 and m1 in classes[first] and m2 in classes[second]:
            D1, D2 = digraph_from_mask(n1, m1), digraph_from_mask(n2, m2)
            violation = EmbeddingViolation(D1, D2, "missing-image", "planted")
        return nd, ns, violation

    monkeypatch.setattr(universality, "_check_embedding_pair", liar)
    seen = []
    for name in ("C3", "P4"):
        reduced = full_embedding_check(builtin_gadget(name), 2, progress=seen.append)
        labeled = labeled_embed(builtin_gadget(name), 2)
        assert reduced.to_dict() == labeled.to_dict()
        assert not reduced.verdict
        assert (_mask(reduced.violation.D1), _mask(reduced.violation.D2)) == (first, second)
        assert 14 < reduced.pairs_checked < 14 * 14
        assert seen and max(seen) <= reduced.pairs_checked


def test_strong_replacement_fails_inside_a_size_like_the_labeled_sweep(monkeypatch):
    # the edge passes the irreflexive sweep; plant a failure in a late loop-free class
    loops = 1 | 1 << 4 | 1 << 8
    classes = [(mask, orbit) for mask, orbit in digraph_classes(3, False) if not mask & loops]
    target, orbit = next(
        (mask, orbit) for k, (mask, orbit) in enumerate(classes)
        if k >= 8 and any(max(o) > mask for _, o in classes[:k])
    )
    real = gadgets.check_strong_replacement

    def liar(H, a, b, D, *, regime):
        report = real(H, a, b, D, regime=regime)
        if D.vertex_count == 3 and _mask(D) in orbit:
            return ReplacementReport(False, report.homs_checked)
        return report

    monkeypatch.setattr(gadgets, "check_strong_replacement", liar)
    checked, report, D = check_strong_replacement_exhaustive(build_path(1), "v0", "v1", 3)
    assert not report.holds and _mask(D) == target
    # 1 + 4 loop-free digraphs on fewer vertices, then the labeled ones up to the target
    assert checked == 5 + sum(1 for m in digraph_masks(3, False) if m <= target and not m & loops)


def _late_carrier_class(n: int, base: Graph, min_index: int) -> tuple[int, set[int]]:
    """The least edge mask and the orbit of a connected carrier class on n
    vertices, at least the ``min_index``-th, that maps onto ``base`` and that
    an earlier connected class has a labeled member above."""
    least = least_masks(n, False)
    orbits: dict[int, set[int]] = {}
    for mask, m in enumerate(least):
        orbits.setdefault(m, set()).add(mask)
    connected = [m for m in orbits if graph_from_mask(n, m).is_connected()]
    for k in range(min_index, len(connected)):
        homs = enumerate_homs(graph_from_mask(n, connected[k]), base)
        onto = any(set(h.as_dict().values()) == set(base.vertices) for h in homs)
        if onto and any(max(orbits[m]) > connected[k] for m in connected[:k]):
            return connected[k], orbits[connected[k]]
    raise AssertionError("no such class")


def test_dichotomy_fails_inside_a_size_like_the_labeled_sweep(monkeypatch):
    P3 = build_path(3)
    target, orbit = _late_carrier_class(5, P3, 4)
    real = universality._check_dichotomy_instance

    def liar(X):
        # invariant under relabeling: the carrier's class and a surjective structure map
        carrier = X.carrier
        if carrier.vertex_count == 5 and _edge_mask(carrier) in orbit and len(set(X.image())) == 4:
            return "planted"
        return real(X)

    monkeypatch.setattr(universality, "_check_dichotomy_instance", liar)
    reduced = dichotomy_sweep(P3, 5, samples=10, seed=1)
    labeled = labeled_dichotomy(P3, 5, 10, 1)
    assert reduced.to_dict() == labeled.to_dict()
    assert not reduced.verdict and reduced.violation.detail == "planted"
    carrier = SliceObject.from_dict(reduced.violation.slice_doc).carrier
    assert _edge_mask(carrier) == target
    # every instance on at most 4 vertices, those of the labeled carriers
    # before the target, then the target's homs up to its first onto P3
    before = [graph_from_mask(5, m) for m in range(target)]
    prefix = sum(len(list(enumerate_homs(G, P3))) for G in before if G.is_connected())
    onto = [len(set(h.as_dict().values())) == 4 for h in enumerate_homs(carrier, P3)]
    assert onto.index(True) > 0
    assert reduced.instances == dichotomy_sweep(P3, 4).instances + prefix + onto.index(True) + 1


def test_progress_reports_labeled_units():
    seen = []
    verify_gadget_exhaustive(builtin_gadget("C3"), 3, progress=seen.append)
    assert seen == [100, 200, 300, 400]  # of 483 labeled digraphs in 1 + 8 + 94 classes
    seen = []
    full_embedding_check(builtin_gadget("C3"), 2, progress=seen.append)
    assert seen == [50, 100, 150]  # of 196 labeled pairs


# ---------------------------------------------------------------------------
# digraph classes: the orbits read from least_masks, and the canonical enumeration


def _brute_force_least_masks(n: int, require_no_isolated: bool) -> list[int]:
    """The least mask of every class, by relabeling every mask under every permutation."""
    perms = list(permutations(range(n)))
    out = []
    for mask in digraph_masks(n, require_no_isolated):
        arcs = [divmod(k, n) for k in range(n * n) if mask >> k & 1]
        if all(sum(1 << (n * p[i] + p[j]) for i, j in arcs) >= mask for p in perms):
            out.append(mask)
    return out


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 13), (3, 469), (4, 63_577)])
def test_orbits_partition_the_labeled_digraphs(n, labeled):
    classes = digraph_classes(n, True)
    assert sum(len(orbit) for _, orbit in classes) == labeled
    assert set().union(*(orbit for _, orbit in classes)) == set(digraph_masks(n, True))
    assert all(mask == min(orbit) for mask, orbit in classes)
    assert [mask for mask, _ in classes] == sorted(mask for mask, _ in classes)


@pytest.mark.parametrize("require_no_isolated", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_size_is_n_factorial_over_automorphisms(n, require_no_isolated):
    perms = list(permutations(range(n)))
    for mask, orbit in digraph_classes(n, require_no_isolated):
        arcs = {divmod(k, n) for k in range(n * n) if mask >> k & 1}
        automorphisms = sum(1 for p in perms if {(p[i], p[j]) for i, j in arcs} == arcs)
        assert len(orbit) == factorial(n) // automorphisms


@pytest.mark.parametrize("require_no_isolated", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_least_masks_match_the_brute_force_filter(n, require_no_isolated):
    canonical = [_mask(D) for D in enumerate_digraphs(n, require_no_isolated, canonical=True)]
    assert canonical == _brute_force_least_masks(n, require_no_isolated)


def test_classes_respect_the_cap():
    for n in (0, 5):
        with pytest.raises(ValueError):
            next(enumerate_digraphs(n, True, canonical=True))
        with pytest.raises(ValueError):
            next(labeled_digraph_classes(n, True))


# classes without an isolated vertex: A000595(n) - A000595(n - 1), since
# dropping one isolated vertex leaves any digraph on n - 1 vertices
WITHOUT_ISOLATED = {1: 1, 2: 8, 3: 94, 4: 2_940}


@pytest.mark.parametrize("n, classes", [(1, 2), (2, 10), (3, 104), (4, 3_044)])
def test_class_counts_are_oeis_a000595(n, classes):
    assert sum(1 for _ in enumerate_digraphs(n, False, canonical=True)) == classes
    assert sum(1 for _ in enumerate_digraphs(n, True, canonical=True)) == WITHOUT_ISOLATED[n]


# ---------------------------------------------------------------------------
# least_masks over graphs


def _edges(n: int, mask: int) -> list[tuple[int, int]]:
    """The vertex pairs i < j of the set bits of an edge mask, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [pairs[k] for k in range(len(pairs)) if mask >> k & 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graph_classes_match_the_brute_force(n):
    least = least_masks(n, False)
    assert len(least) == 2 ** (n * (n - 1) // 2)
    pairs = _edges(n, len(least) - 1)
    perms = list(permutations(range(n)))
    for mask, m in enumerate(least):
        edges = {frozenset(e) for e in _edges(n, mask)}
        relabeled = [{frozenset(p[x] for x in e) for e in edges} for p in perms]
        orbit = {sum(1 << pairs.index(tuple(sorted(e))) for e in es) for es in relabeled}
        assert m == min(orbit)
        if m == mask:  # the class, once: its orbit has n!/|Aut| masks, and each maps to it
            assert len(orbit) == factorial(n) // relabeled.count(edges)
            assert {k for k, x in enumerate(least) if x == m} == orbit


@pytest.mark.parametrize(
    "n, classes, connected", [(1, 1, 1), (2, 2, 1), (3, 4, 2), (4, 11, 6), (5, 34, 21), (6, 156, 112)]
)
def test_graph_class_counts_are_oeis_a000088_and_a001349(n, classes, connected):
    least = set(least_masks(n, False))
    assert len(least) == classes
    assert sum(graph_from_mask(n, m).is_connected() for m in least) == connected


def test_graph_masks_number_edges_lexicographically():
    for n in range(6):
        expected = [Graph([f"v{i}" for i in range(n)], [(f"v{i}", f"v{j}") for i, j in _edges(n, mask)])
                    for mask in range(2 ** (n * (n - 1) // 2))]
        assert [graph_from_mask(n, mask) for mask in range(len(expected))] == expected
        assert list(enumerate_graphs(n)) == expected
    assert graph_from_mask(4, 0b100000).edges == (("v2", "v3"),)
    assert graph_from_mask(4, 0b000100).edges == (("v0", "v3"),)


# ---------------------------------------------------------------------------
# class_sweep


def test_class_sweep_checks_each_key_once_and_reports_every_multiple():
    calls = []

    def check(key):
        calls.append(key)
        return (key, 10 * key), None

    seen = []
    totals, failure = class_sweep([3, 1, 3, 250, 1], check, (0, 0), seen.append, 100)
    assert calls == [3, 1, 250]
    assert totals == [258, 2580] and failure is None
    # one item may cross several multiples; each is reported once
    assert seen == [100, 200]


def test_class_sweep_stops_at_the_first_failing_item():
    def check(key):
        return (1, key), ("bad", key) if key == 2 else None

    seen = []
    totals, failure = class_sweep([1, 1, 2, 1, 2, 3], check, (0, 0), seen.append)
    assert totals == [3, 4] and failure == ("bad", 2)
    assert seen == [1, 2, 3]
    assert class_sweep([], check, (0, 0)) == ([0, 0], None)


# ---------------------------------------------------------------------------
# labeled_digraph_classes


@pytest.mark.parametrize("require_no_isolated", [True, False])
def test_labeled_walk_matches_the_brute_force(require_no_isolated):
    # one key per labeled digraph, in sweep order: its size and the least of its relabelings
    expected = []
    for n in (1, 2, 3):
        for mask in digraph_masks(n, require_no_isolated):
            arcs = [divmod(k, n) for k in range(n * n) if mask >> k & 1]
            expected.append((n, min(sum(1 << (n * p[i] + p[j]) for i, j in arcs) for p in permutations(range(n)))))
    assert list(labeled_digraph_classes(3, require_no_isolated)) == expected
