"""Slice categories of graphs: constructions, search, and classification.

The package decides when the slice category of graphs over a base graph is
algebraically universal, builds the gadget-gluing products that witness
universality, verifies the gadget property exhaustively at desk scale, and
constructs the rigid-or-proper-endomorphism dichotomy over unions of short
paths.
"""

from .core import (
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
)
from .homsearch import (
    EndoReport,
    EndoVerdict,
    classify_endomorphisms,
    digraph_hom_count,
    endomorphism_verdict,
    enumerate_digraph_homs,
    enumerate_digraphs,
    enumerate_graphs,
    enumerate_homs,
    enumerate_slice_homs,
    hom_count,
    slice_hom_count,
)
from .arrow import (
    ArrowResult,
    arrow_graph,
    arrow_morphism,
    arrow_slice,
    phi,
    product_slice,
    product_structure_map,
)
from .gadgets import (
    BUILTIN_GADGET_NAMES,
    Gadget,
    GadgetReport,
    ReplacementGadget,
    build_gk,
    builtin_gadget,
    check_strong_replacement,
    check_strong_replacement_exhaustive,
    verify_gadget,
    verify_gadget_exhaustive,
)
from .universality import (
    BaseClassification,
    BaseVerdict,
    ConeClassification,
    DichotomyResult,
    EmbeddingReport,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
