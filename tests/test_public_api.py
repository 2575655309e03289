"""The public API, pinned: a name entering or leaving ``slicecat.__all__``,
or a parameter entering the raw search, shows up as a one-line diff here."""

import inspect

import slicecat
from slicecat import homsearch

PUBLIC_NAMES = [
    "ArrowResult",
    "BUILTIN_GADGET_NAMES",
    "BaseClassification",
    "BaseVerdict",
    "ConeClassification",
    "DichotomyResult",
    "Digraph",
    "EmbeddingReport",
    "EndoReport",
    "EndoVerdict",
    "Gadget",
    "GadgetReport",
    "Graph",
    "Morphism",
    "ReplacementGadget",
    "RetractionPlan",
    "RigidPathCertificate",
    "SliceMorphism",
    "SliceObject",
    "arrow",
    "arrow_graph",
    "arrow_morphism",
    "arrow_slice",
    "build_cycle",
    "build_gk",
    "build_path",
    "build_star",
    "builtin_gadget",
    "check_strong_replacement",
    "check_strong_replacement_exhaustive",
    "classify_cone_base",
    "classify_endomorphisms",
    "classify_slice_base",
    "classify_slice_object",
    "compare_components",
    "core",
    "dichotomy_sweep",
    "digraph_hom_count",
    "disjoint_union",
    "endomorphism_verdict",
    "enumerate_digraph_homs",
    "enumerate_digraphs",
    "enumerate_graphs",
    "enumerate_homs",
    "enumerate_slice_homs",
    "full_embedding_check",
    "full_embedding_spot_check",
    "gadgets",
    "hom_count",
    "homsearch",
    "is_homomorphism",
    "phi",
    "product_slice",
    "product_structure_map",
    "random_slice_object",
    "retract_slice_to_path",
    "slice_hom_count",
    "universality",
    "verify_gadget",
    "verify_gadget_exhaustive",
]


def test_public_names_are_pinned():
    assert sorted(slicecat.__all__) == PUBLIC_NAMES


def test_hom_leaves_takes_two_objects_and_a_limit():
    parameters = inspect.signature(homsearch.hom_leaves).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("A", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("B", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("limit", inspect.Parameter.KEYWORD_ONLY, None),
    ]
