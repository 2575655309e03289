"""Command-line surface for reproduction runs and sweeps.

Every command prints a single JSON document on standard output; progress for
long sweeps goes to standard error.  Exit codes: 0 for success or a passing
verdict, 1 for a negative verdict or a counterexample (the payload then
carries the machine-readable witness), 2 for usage or input errors, 3 for
an internal fault (a JSON ``error`` naming the exception).  A negative verdict
is an answer, not a failure: ``classify`` on a non-universal base prints its
decomposition and exits 1 so shell pipelines can branch, and exit 1 never
comes without a verdict payload.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Iterator, Optional

from . import arrow
from .core import Digraph, Graph, Morphism, SliceObject, check_int
from .gadgets import (
    BUILTIN_GADGET_NAMES,
    Gadget,
    builtin_gadget,
    check_strong_replacement,
    check_strong_replacement_exhaustive,
    verify_gadget,
    verify_gadget_exhaustive,
)
from .homsearch import (
    classify_endomorphisms,
    enumerate_digraphs,
    enumerate_homs,
    enumerate_slice_homs,
    hom_count,
    slice_hom_count,
)
from .universality import (
    BaseVerdict,
    classify_cone_base,
    classify_slice_base,
    dichotomy_sweep,
    full_embedding_check,
    retract_slice_to_path,
)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _progress(label: str):
    def cb(done: int) -> None:
        print(f"{label}: {done} checked", file=sys.stderr)

    return cb


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(
    path: str, cls: type[Graph] | type[Digraph] = Graph, *, slices: bool = False
) -> Graph | Digraph | SliceObject:
    """A ``cls`` read from a JSON document or an edge list; with ``slices``, a
    JSON document with a ``"carrier"`` key is read as a slice object."""
    text = _read_text(path)
    if path.endswith(".json") or text.lstrip().startswith("{"):
        data = json.loads(text)
        if slices and isinstance(data, dict) and "carrier" in data:
            return SliceObject.from_dict(data)
        return cls.from_dict(data)
    return cls.from_edgelist(text)


def _load_slice(path: str) -> SliceObject:
    return SliceObject.from_dict(json.loads(_read_text(path)))


def _load_gadget(name_or_path: str) -> Gadget:
    if name_or_path.upper() in BUILTIN_GADGET_NAMES:
        return builtin_gadget(name_or_path)
    try:
        text = _read_text(name_or_path)
    except OSError as exc:
        raise ValueError(
            f"{name_or_path!r} is neither a built-in gadget ({', '.join(BUILTIN_GADGET_NAMES)}) "
            f"nor a readable file: {exc.strerror or exc}"
        ) from exc
    return Gadget.from_dict(json.loads(text))


def cmd_classify(args) -> int:
    result = args.classifier(_load_graph(args.graph))
    _emit(result.to_dict())
    return 0 if result.verdict is BaseVerdict.UNIVERSAL else 1


def cmd_arrow(args) -> int:
    D = _load_graph(args.digraph, Digraph)
    gadget = _load_gadget(args.gadget)
    isolated = D.isolated_vertices()
    if isolated:
        print(f"note: digraph has isolated vertices {list(isolated)}", file=sys.stderr)
    product = arrow.arrow_slice(D, gadget)
    if args.format == "edgelist":
        sys.stdout.write(product.carrier.to_edgelist())
    else:
        _emit(product.to_dict())
    return 0


def cmd_phi(args) -> int:
    D = _load_graph(args.digraph, Digraph)
    gadget = _load_gadget(args.gadget)
    res = arrow.arrow_graph(D, gadget.carrier, gadget.a, gadget.b)
    morphism = arrow.phi(res, (args.arc[0], args.arc[1]))
    _emit({"arc": list(args.arc), "map": {k: v for k, v in morphism.mapping}})
    return 0


def cmd_verify_gadget(args) -> int:
    gadget = _load_gadget(args.gadget)
    if args.digraph:
        report = verify_gadget(gadget, _load_graph(args.digraph, Digraph))
    else:
        report = verify_gadget_exhaustive(gadget, args.max_size, progress=_progress("verify-gadget"))
    _emit(report.to_dict())
    return 0 if report.verdict else 1


def cmd_strong_replacement(args) -> int:
    H = _load_graph(args.graph)
    if args.digraph:
        report = check_strong_replacement(H, args.a, args.b, _load_graph(args.digraph, Digraph), regime=args.regime)
        _emit(dict(report.to_dict(), digraphs_checked=1))
        return 0 if report.holds else 1
    checked, report, D = check_strong_replacement_exhaustive(H, args.a, args.b, args.max_size, regime=args.regime)
    if D is None:
        _emit({"holds": True, "digraphs_checked": checked, "witness": None})
        return 0
    _emit(dict(report.to_dict(), digraphs_checked=checked, digraph=D.to_dict()))
    return 1


def cmd_homs(args) -> int:
    if args.max_solutions is not None:  # --mode count never hands the limit to a search
        check_int(args.max_solutions, "limit", 1)
    A = _load_graph(args.source, slices=True)
    B = _load_graph(args.target, slices=True)
    if isinstance(A, SliceObject) != isinstance(B, SliceObject):
        raise ValueError("source and target must both be graphs or both slice objects")
    limit = 1 if args.mode == "exists" else args.max_solutions
    if args.mode == "count":
        count = slice_hom_count(A, B) if isinstance(A, SliceObject) else hom_count(A, B)
        _emit({"mode": "count", "count": count if limit is None else min(count, limit)})
        return 0
    if isinstance(A, SliceObject):
        homs: Iterator[Morphism] = (sm.map for sm in enumerate_slice_homs(A, B, limit))
    else:
        homs = enumerate_homs(A, B, limit=limit)
    if args.mode == "exists":
        exists = next(homs, None) is not None
        _emit({"mode": "exists", "exists": exists})
        return 0 if exists else 1
    maps = [m.as_dict() for m in homs]
    _emit({"mode": "list", "count": len(maps), "homs": maps})
    return 0


def cmd_endos(args) -> int:
    _emit(classify_endomorphisms(_load_graph(args.object, slices=True)).to_dict())
    return 0


def cmd_retract(args) -> int:
    outcome = retract_slice_to_path(_load_slice(args.slice))
    _emit(outcome.to_dict())
    return 0


def cmd_dichotomy(args) -> int:
    report = dichotomy_sweep(
        _load_graph(args.base), args.max_carrier, samples=args.samples, seed=args.seed, progress=_progress("dichotomy")
    )
    _emit(report.to_dict())
    return 0 if report.verdict else 1


def cmd_embed_check(args) -> int:
    gadget = _load_gadget(args.gadget)
    report = full_embedding_check(gadget, args.max_size, progress=_progress("embed-check"))
    _emit(report.to_dict())
    return 0 if report.verdict else 1


def cmd_enumerate_digraphs(args) -> int:
    digraphs = list(
        enumerate_digraphs(args.size, not args.all, canonical=args.canonical)
    )
    _emit({"count": len(digraphs), "digraphs": [D.to_dict() for D in digraphs]})
    return 0


def cmd_gadget(args) -> int:
    gadget = builtin_gadget(args.name)
    if args.format == "edgelist":
        sys.stdout.write(gadget.carrier.to_edgelist())
    else:
        _emit(gadget.to_dict())
    return 0


def _positive_int(text: str) -> int:
    if int(text) < 1:  # a sweep over no sizes would pass vacuously
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicecat",
        description="Slice categories of graphs: gadget constructions, "
        "homomorphism search, and universality classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide whether the slice category over a graph is universal")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_classify, classifier=classify_slice_base)

    p = sub.add_parser("cone-classify", help="decide universality of the graphs mapping into a base")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_classify, classifier=classify_cone_base)

    p = sub.add_parser("arrow", help="glue a gadget along every arc of a digraph")
    p.add_argument("digraph")
    p.add_argument("--gadget", required=True, help="built-in name (C3, C4, P4, Y) or gadget file")
    p.add_argument("--format", choices=["json", "edgelist"], default="json")
    p.set_defaults(fn=cmd_arrow)

    p = sub.add_parser("phi", help="print the copy map of one arc")
    p.add_argument("digraph")
    p.add_argument("--gadget", required=True)
    p.add_argument("--arc", nargs=2, metavar=("U", "V"), required=True)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("verify-gadget", help="check that slice morphisms into products are exactly the copy maps")
    p.add_argument("--gadget", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-size", type=_positive_int, help="sweep all isolated-point-free digraphs up to this size")
    group.add_argument("--digraph", help="check one digraph file")
    p.set_defaults(fn=cmd_verify_gadget)

    p = sub.add_parser("strong-replacement", help="check self-maps into products stay inside one copy")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-size", type=_positive_int)
    group.add_argument("--digraph")
    p.add_argument("--regime", choices=["irreflexive", "no-isolated"], default="irreflexive")
    p.set_defaults(fn=cmd_strong_replacement)

    p = sub.add_parser("homs", help="enumerate homomorphisms (plain graphs or slice objects)")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--mode", choices=["exists", "count", "list"], default="count")
    p.add_argument("--max-solutions", type=int, default=None)
    p.set_defaults(fn=cmd_homs)

    p = sub.add_parser("endos", help="classify the endomorphism monoid of a slice object or graph")
    p.add_argument("object")
    p.set_defaults(fn=cmd_endos)

    p = sub.add_parser("retract", help="retract a connected surjective slice onto a path")
    p.add_argument("slice")
    p.set_defaults(fn=cmd_retract)

    p = sub.add_parser("dichotomy", help="sweep slice objects over a non-universal base")
    p.add_argument("base")
    p.add_argument("--max-carrier", type=_positive_int, required=True)
    p.add_argument("--samples", type=_non_negative_int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_dichotomy)

    p = sub.add_parser("embed-check", help="verify hom-set bijections between glued products")
    p.add_argument("--gadget", required=True)
    p.add_argument("--max-size", type=_positive_int, required=True)
    p.set_defaults(fn=cmd_embed_check)

    p = sub.add_parser("enumerate-digraphs", help="list labeled digraphs of one size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--all", action="store_true", help="include digraphs with isolated vertices")
    p.add_argument("--canonical", action="store_true", help="one representative per isomorphism class")
    p.set_defaults(fn=cmd_enumerate_digraphs)

    p = sub.add_parser("gadget", help="print a built-in gadget")
    p.add_argument("name", choices=[n for n in BUILTIN_GADGET_NAMES] + [n.lower() for n in BUILTIN_GADGET_NAMES])
    p.add_argument("--format", choices=["json", "edgelist"], default="json")
    p.set_defaults(fn=cmd_gadget)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc)})
        return 2
    except Exception as exc:  # an internal fault must not look like exit 1
        traceback.print_exc(file=sys.stderr)
        _emit({"error": f"internal error: {type(exc).__name__}: {exc}"})
        return 3


if __name__ == "__main__":
    sys.exit(main())
