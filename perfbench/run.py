"""slicecat benchmark: one workload, one seed, one process, jobs=1.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's call list runs in whole passes until the
calls have taken ``--seconds`` seconds.  Every output is checked against an
oracle that does not use the search engine, and the end-to-end metrics are
printed.  With ``--trace 1`` the call list runs exactly once with every
public slicecat function wrapped in spans, then once more unwrapped, and the
per-layer metrics are printed; one pass each keeps every count exactly
repeatable for a seed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it start with ``#`` and say what was measured.

End-to-end times are scaled to a reference machine speed.  On a shared
virtual machine the same code runs up to half again as long from one moment
to the next, so the run also times ``reference_work``, a fixed search written
here and independent of slicecat, between calls every PROBE_EVERY_S seconds.
Each call's time is multiplied by REFERENCE_S over the mean of the reference
times taken just before and just after it: what it would read on a machine
where ``reference_work`` takes exactly REFERENCE_S.  Each set-up time is
scaled the same way by the reference times taken just before and just after
its process.  The unscaled figures are printed on a ``#`` line.

The benchmark imports slicecat from ``src/`` next to this directory and exits
with status 2, printing no result, when it is not there.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"
WORKLOAD_NAMES = ("verify", "embed", "endos", "dichotomy")
SETUP_REPEATS = 5  # fresh processes whose set-up times give setup_s, as their median
CLI_REPEATS = 3
SHOWN_FAILURES = 5
PROBE_EVERY_S = 0.1
REFERENCE_S = 0.003  # nominal seconds of one reference_work()


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: measure one cold set-up and print its seconds
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# reference_work(): the maps of a 4-vertex path into a 9-vertex circulant
# graph that keep edges on edges, found by plain backtracking
_REF_HOST = {i: frozenset({(i + 1) % 9, (i - 1) % 9, (i + 3) % 9, (i - 3) % 9}) for i in range(9)}
_REF_PATTERN = {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2,)}


def reference_work() -> int:
    """Fixed search-like work, independent of slicecat, that gauges machine speed."""
    assign: dict[int, int] = {}

    def extend(v: int):
        if v == len(_REF_PATTERN):
            yield tuple(sorted(assign.items()))
            return
        for c in _REF_HOST:
            if all(assign[u] in _REF_HOST[c] for u in _REF_PATTERN[v] if u in assign):
                assign[v] = c
                yield from extend(v + 1)
                del assign[v]

    return len(set(extend(0)))


class SpeedProbe:
    """Times ``reference_work`` between calls, at most every PROBE_EVERY_S seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def poll(self, force: bool = False) -> int:
        """Take a sample if one is due; return the index of the latest sample."""
        start = time.perf_counter()
        if force or start >= self._next:
            reference_work()
            end = time.perf_counter()
            self.samples.append(end - start)
            self._next = end + PROBE_EVERY_S
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor to reference speed for a call between samples ``before`` and ``before + 1``."""
        return 2 * REFERENCE_S / (self.samples[before] + self.samples[before + 1])

    def run_scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


class Runner:
    """Runs calls, checks their outputs and keeps the tallies."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.probe = SpeedProbe()
        self.raw_latencies: list[float] = []
        self.latencies: list[float] = []  # scaled to reference speed
        self.rates: list[float] = []  # units per scaled second, one per pass
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _fail(self, call, message: str) -> None:
        self.failed += 1
        if len(self.messages) < SHOWN_FAILURES:
            self.messages.append(f"{call.kind} {call.fn}: {message}")

    def run_pass(self, calls) -> tuple[float, float]:
        """Run every call once; return the pass's summed call time, unscaled and scaled."""
        from workloads import Mismatch

        self.probe.poll(force=True)
        units = 0
        raw = []
        before = []  # the probe sample taken last before each call
        for call in calls:
            before.append(self.probe.poll())
            fn = getattr(self.sc, call.fn)
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = fn(*call.args, **call.kwargs)
            except Exception:
                raw.append(time.perf_counter() - start)
                self._fail(call, traceback.format_exc().strip().splitlines()[-1])
                continue
            raw.append(time.perf_counter() - start)
            try:
                units += call.check(result, call.expected, call)
            except Mismatch as exc:
                self._fail(call, str(exc))
        self.probe.poll(force=True)
        scaled = [x * self.probe.scale(i) for x, i in zip(raw, before)]
        self.units += units
        self.raw_latencies += raw
        self.latencies += scaled
        self.rates.append(units / sum(scaled))
        return sum(raw), sum(scaled)


def tail_rank(pass_length: int) -> float:
    """The highest percentile with at least ten calls of one pass beyond it.

    It is fixed by the workload's pass length, so a faster program that runs
    more passes is measured at the same percentile.
    """
    return max(0.5, 1.0 - 10.0 / pass_length)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cold_setups(args, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_REPEATS fresh processes, run one after another.

    Returns them unscaled and scaled by the reference times taken just
    before and just after each process.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe.poll(force=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        probe.poll(force=True)
        scaled.append(raw[-1] * probe.scale(before))
    return raw, scaled


def _cli_cold_start() -> float:
    """Median wall time of ``python -m slicecat.cli gadget c3`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "slicecat.cli", "gadget", "c3"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or json.loads(proc.stdout).get("a") != "a":
            raise RuntimeError(f"slicecat gadget c3 failed: {proc.stderr.strip()}")
    return statistics.median(times)


def measure(args, workload, calls, runner: Runner) -> dict:
    """End-to-end metrics over whole passes of ``calls``."""
    setups, scaled_setups = _cold_setups(args, runner.probe)
    busy = 0.0
    while busy < args.seconds:
        busy += runner.run_pass(calls)[0]
    q = tail_rank(len(calls))
    scale = runner.probe.run_scale()
    raw = {
        "setup_s": statistics.median(setups),
        "checked_per_s": runner.units / busy,
        "call_p50_ms": statistics.median(runner.raw_latencies) * 1e3,
        "call_tail_ms": nearest_rank(runner.raw_latencies, q) * 1e3,
    }
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "checked_per_s": (statistics.median(runner.rates), "1/s"),
        "call_p50_ms": (statistics.median(runner.latencies) * 1e3, "ms"),
        "call_tail_ms": (nearest_rank(runner.latencies, q) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(runner.latencies)
    print(
        f"# {args.workload} seed {args.seed}: {len(runner.rates)} passes of {len(calls)} calls, "
        f"{n} calls in {busy:.3f} s, {runner.units} {workload.unit} checked; "
        f"failed_ratio {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted}); "
        f"call_tail_ms is p{100 * q:.4g} (nearest rank) of {n} calls; "
        f"set-ups {', '.join(f'{x:.4f}' for x in setups)} s"
    )
    print(
        f"# times scaled to reference speed by {scale:.4f} over the run "
        f"({len(runner.probe.samples)} probes, mean "
        f"{statistics.fmean(runner.probe.samples) * 1e3:.3f} ms vs {REFERENCE_S * 1e3:g} ms); "
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    )
    return metrics


def trace(args, tracer, calls, runner: Runner) -> dict:
    """Per-layer metrics from one traced pass; tracing overhead from an untraced one."""
    with tracer.span("bench.pass"):
        traced_busy, traced_scaled = runner.run_pass(calls)
    tracer.uninstall()
    untraced_busy, untraced_scaled = runner.run_pass(calls)
    cli_s = _cli_cold_start()
    trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(trace_file)
    overhead = traced_scaled / untraced_scaled
    print(
        f"# {args.workload} seed {args.seed}: one traced and one untraced pass of {len(calls)} "
        f"calls; {len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}; calls took "
        f"{traced_busy:.3f} s traced and {untraced_busy:.3f} s untraced; failed_ratio "
        f"{runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})"
    )
    values = _layer_values(tracer, overhead, cli_s)
    return {name: (value, _unit(name)) for name, value in values.items()}


def _layer_values(tracer, overhead: float, cli_s: float) -> dict:
    from tracing import Summary

    s = Summary(tracer.spans)
    search = ("homsearch.enumerate_homs", "homsearch.enumerate_slice_homs")
    validations = ("core.Morphism", "core.SliceMorphism", "core.SliceObject")
    endo = "homsearch.classify_endomorphisms"
    digraph_homs = "homsearch.enumerate_digraph_homs"
    search_calls = s.calls(search)
    solutions = s.yields(search)
    endo_calls = s.calls(endo)
    morph = s.calls("core.Morphism")
    slice_morph = s.calls("core.SliceMorphism")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "homsearch.search.calls": search_calls,
        "homsearch.search.solutions": solutions,
        "homsearch.search.self_s": s.self_s(search),
        "homsearch.search.solutions_per_call": ratio(solutions, search_calls),
        "homsearch.endo.calls": endo_calls,
        "homsearch.endo.solutions_per_verdict": ratio(s.yields(search, parent=endo), endo_calls),
        "homsearch.digraph_homs.calls": s.calls(digraph_homs),
        "homsearch.digraph_homs.solutions": s.yields(digraph_homs),
        "homsearch.digraph_homs.busy_s": s.busy_s(digraph_homs),
        "homsearch.enum_digraphs.count": s.yields("homsearch.enumerate_digraphs"),
        "homsearch.enum_digraphs.busy_s": s.busy_s("homsearch.enumerate_digraphs"),
        "core.morphism.validations": morph,
        "core.slice_morphism.validations": slice_morph,
        "core.slice_object.validations": s.calls("core.SliceObject"),
        "core.validate_s": s.busy_s(validations),
        "core.validations_per_solution": ratio(morph + slice_morph, solutions),
        "core.graph.builds": s.calls("core.Graph"),
        "core.graph.build_s": s.busy_s("core.Graph"),
        "arrow.products": s.calls("arrow.ArrowResult"),
        "arrow.product_vertices": tracer.counts.get("arrow.product_vertices", 0),
        "arrow.build_s": s.busy_s(("arrow.ArrowResult", "arrow.product_structure_map")),
        "arrow.phi_s": s.busy_s("arrow.phi"),
        "gadgets.verify.calls": s.calls("gadgets.verify_gadget"),
        "gadgets.verify.self_s": s.self_s("gadgets.verify_gadget"),
        "universality.classify.calls": s.calls("universality.classify_slice_object"),
        "universality.classify.self_s": s.self_s("universality.classify_slice_object"),
        "universality.retract.busy_s": s.busy_s("universality.retract_slice_to_path"),
        "universality.base_classify.busy_s": s.busy_s("universality.classify_slice_base"),
        "universality.embed.self_s": s.self_s(
            ("universality.full_embedding_spot_check", "universality.full_embedding_check")
        ),
        "cli.cold_start_s": cli_s,
        "trace.overhead_ratio": overhead,
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_call", "_per_verdict", "_per_solution", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "slicecat" / "__init__.py").is_file():
        print(f"slicecat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import slicecat as sc

    if Path(sc.__file__).resolve().parent != (SRC / "slicecat").resolve():
        print(f"imported slicecat from {sc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        calls = workload.build(random.Random(f"{args.workload}:{args.seed}"))
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0

    for call in calls:
        call.expected = workload.expect(call)
    # the benchmark's own inputs stay alive for the whole run; keep them out
    # of the collector's full passes so that input size does not add GC time
    gc.collect()
    gc.freeze()
    runner = Runner(sc)
    if tracer is None:
        metrics = measure(args, workload, calls, runner)
    else:
        metrics = trace(args, tracer, calls, runner)

    for message in runner.messages:
        print(f"# FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
