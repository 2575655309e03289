"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

1. A deliberately wrong oracle expectation is counted as a failed call, on
   every workload, so the checks can fail.
2. Two traced runs with one seed report identical per-layer counts.
3. The workload and metric names and units match BENCHMARK.json, and
   predictions.json cites only metrics and workloads that exist.
4. Without ``src/`` next to it, the benchmark exits non-zero and prints no
   result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CALLS_PER_CHECK = 12

# how to break each workload's expectation
WRONG = {
    "verify": lambda e: {**e, "hom_count": e["hom_count"] + 1},
    "embed": lambda e: {**e, "max_pairs": 0},
    "endos": lambda e: {**e, "endo_count": e["endo_count"] + 1},
    "dichotomy": lambda e: "rigid" if e != "rigid" else "proper-endomorphism",
}


def _run(name: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", name, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_wrong_oracle_fails(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    calls = workload.build(random.Random(f"{name}:0"))[:CALLS_PER_CHECK]
    for call in calls:
        call.expected = workload.expect(call)
    honest = run.Runner(workloads.sc)
    honest.run_pass(calls)
    assert honest.failed == 0, f"{name}: correct expectations failed: {honest.messages}"
    broken = calls[::3]
    for call in broken:
        call.expected = WRONG[name](call.expected)
    runner = run.Runner(workloads.sc)
    runner.run_pass(calls)
    assert runner.failed == len(broken), (
        f"{name}: {runner.failed} failures for {len(broken)} wrong expectations"
    )


def check_traced_counts_repeat(name: str) -> None:
    first, second = (_result(_run(name, "--seed", "3", "--trace", "1")) for _ in range(2))
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(first["metrics"]) == names, f"{name}: per-layer names differ from BENCHMARK.json"
    for metric in SPEC["per_layer"]:
        if metric["unit"] == "s" or metric["name"] == "trace.overhead_ratio":
            continue
        a = first["metrics"][metric["name"]]["value"]
        b = second["metrics"][metric["name"]]["value"]
        assert a == b, f"{name}: {metric['name']} was {a} then {b}"
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]


def check_end_to_end_names() -> None:
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == names, names
    result = _result(_run("verify", "--seed", "3", "--seconds", "0.5", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert got == want, f"end-to-end metrics {got} differ from BENCHMARK.json {want}"


def check_predictions_cite_real_names() -> None:
    predictions = json.loads((HERE / "predictions.json").read_text())
    layers = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(predictions["workloads"]) == names
    for group in predictions["layers"]:
        assert set(group["metrics"]) <= layers, group["metrics"]
        for key in ("moves", "unchanged"):
            for target in group.get(key, []):
                assert target["metric"] in e2e and target["workload"] in names, target


def check_fails_without_sources() -> None:
    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without slicecat sources"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    checks = [(f"wrong oracle fails: {n}", check_wrong_oracle_fails, (n,)) for n in names]
    checks += [
        ("end-to-end names", check_end_to_end_names, ()),
        ("predictions cite real names", check_predictions_cite_real_names, ()),
        ("fails without sources", check_fails_without_sources, ()),
    ]
    checks += [(f"traced counts repeat: {n}", check_traced_counts_repeat, (n,)) for n in names]
    failures = 0
    for label, fn, fn_args in checks:
        try:
            fn(*fn_args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
