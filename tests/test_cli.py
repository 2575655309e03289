import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slicecat import cli, gadgets, universality
from slicecat.cli import main
from slicecat.core import build_cycle, build_path
from slicecat.gadgets import builtin_gadget


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    return write(tmp_path / "c3.json", build_cycle(3).to_dict())


@pytest.fixture
def p3_file(tmp_path):
    return write(tmp_path / "p3.json", build_path(3).to_dict())


@pytest.fixture
def arc_file(tmp_path):
    return write(tmp_path / "arc.json", {"vertices": ["u", "v"], "arcs": [["u", "v"]]})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_universal_exits_zero(self, capsys, c3_file):
        code, out = run(capsys, ["classify", c3_file])
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "universal" and payload["pattern"] == "C3"

    def test_not_universal_exits_one(self, capsys, p3_file):
        code, out = run(capsys, ["classify", p3_file])
        payload = json.loads(out)
        assert code == 1
        assert payload["verdict"] == "not-universal"
        assert payload["decomposition"] == [["v0", "v1", "v2", "v3"]]

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out = run(capsys, ["classify", str(bad)])
        assert code == 2
        assert "error" in json.loads(out)

    def test_edgelist_input(self, capsys, tmp_path):
        f = tmp_path / "graph.txt"
        f.write_text("a b\nb c\nc a\n", encoding="utf-8")
        code, out = run(capsys, ["classify", str(f)])
        assert code == 0 and json.loads(out)["pattern"] == "C3"

    def test_byte_identical_reruns(self, capsys, c3_file):
        _, first = run(capsys, ["classify", c3_file])
        _, second = run(capsys, ["classify", c3_file])
        assert first == second


class TestConeClassify:
    def test_odd_cycle(self, capsys, c3_file):
        code, out = run(capsys, ["cone-classify", c3_file])
        assert code == 0 and json.loads(out)["odd_cycle"] == ["v0", "v1", "v2"]

    def test_bipartite(self, capsys, p3_file):
        code, out = run(capsys, ["cone-classify", p3_file])
        assert code == 1 and "bipartition" in json.loads(out)


class TestArrowAndPhi:
    def test_arrow_single_arc(self, capsys, arc_file):
        code, out = run(capsys, ["arrow", arc_file, "--gadget", "c3"])
        payload = json.loads(out)
        assert code == 0
        assert sorted(payload["carrier"]["vertices"]) == [
            "(u,v)::b",
            "(u,v)::c",
            "u",
            "v",
        ]
        assert payload["map"]["u"] == "0" and payload["map"]["(u,v)::b"] == "1"

    def test_arrow_loop(self, capsys, tmp_path):
        f = write(tmp_path / "loop.json", {"vertices": ["u"], "arcs": [["u", "u"]]})
        code, out = run(capsys, ["arrow", f, "--gadget", "c3"])
        payload = json.loads(out)
        assert code == 0
        assert len(payload["carrier"]["vertices"]) == 3
        assert len(payload["carrier"]["edges"]) == 3

    def test_arrow_invalid_gadget_file_exits_two(self, capsys, tmp_path, arc_file):
        g = builtin_gadget("C3").to_dict()
        g["map"]["d"] = "1"  # no longer identifies the distinguished pair
        bad = write(tmp_path / "bad_gadget.json", g)
        code, out = run(capsys, ["arrow", arc_file, "--gadget", bad])
        assert code == 2 and "error" in json.loads(out)

    def test_arrow_edgelist_format(self, capsys, arc_file):
        code, out = run(capsys, ["arrow", arc_file, "--gadget", "c3", "--format", "edgelist"])
        assert code == 0
        assert "(u,v)::b (u,v)::c" in out

    def test_arrow_edgelist_of_unwritable_ids_exits_two(self, capsys, tmp_path):
        spaced = write(tmp_path / "spaced.json", {"vertices": ["a b", "c"], "arcs": [["a b", "c"]]})
        code, out = run(capsys, ["arrow", spaced, "--gadget", "c3", "--format", "edgelist"])
        assert code == 2 and "edge list" in json.loads(out)["error"]

    def test_phi(self, capsys, arc_file):
        code, out = run(capsys, ["phi", arc_file, "--gadget", "c3", "--arc", "u", "v"])
        payload = json.loads(out)
        assert code == 0
        assert payload["map"] == {
            "a": "u",
            "b": "(u,v)::b",
            "c": "(u,v)::c",
            "d": "v",
        }


class TestVerifyGadget:
    def test_sweep_passes(self, capsys):
        code, out = run(capsys, ["verify-gadget", "--gadget", "p4", "--max-size", "2"])
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "pass" and payload["digraphs_checked"] == 14

    def test_mutated_gadget_fails_with_counterexample(self, capsys, tmp_path):
        g = builtin_gadget("C4").to_dict()
        g["map"]["c"] = "0"  # valid homomorphism, but the gadget folds
        bad = write(tmp_path / "mutated.json", g)
        code, out = run(capsys, ["verify-gadget", "--gadget", bad, "--max-size", "2"])
        payload = json.loads(out)
        assert code == 1
        assert payload["verdict"] == "fail"
        assert payload["counterexample"]["kind"] == "extra-hom"

    def test_over_cap_exits_two(self, capsys):
        code, out = run(capsys, ["verify-gadget", "--gadget", "c3", "--max-size", "9"])
        assert code == 2
        assert "capped" in json.loads(out)["error"]

    def test_single_digraph(self, capsys, arc_file):
        code, out = run(capsys, ["verify-gadget", "--gadget", "c3", "--digraph", arc_file])
        assert code == 0 and json.loads(out)["hom_count"] == 1

    def test_colliding_ids_exit_two(self, capsys):
        clash = str(Path(__file__).parent / "golden/inputs/digraph_clash.json")
        code, out = run(capsys, ["verify-gadget", "--gadget", "c3", "--digraph", clash])
        assert code == 2
        assert json.loads(out) == {"error": "interior id '(a,b,c)::b' collides with another product vertex id"}


class TestStrongReplacement:
    def test_midpoint_gadget_fails(self, capsys, tmp_path):
        f = write(tmp_path / "p2.json", build_path(2).to_dict())
        code, out = run(
            capsys,
            ["strong-replacement", "--graph", f, "--a", "v0", "--b", "v2", "--max-size", "3"],
        )
        payload = json.loads(out)
        assert code == 1 and not payload["holds"]
        assert payload["witness"] is not None

    def test_edge_gadget_holds(self, capsys, tmp_path):
        f = write(tmp_path / "k2.json", build_path(1).to_dict())
        code, out = run(
            capsys,
            ["strong-replacement", "--graph", f, "--a", "v0", "--b", "v1", "--max-size", "2"],
        )
        payload = json.loads(out)
        assert code == 0 and payload["holds"]

    def test_over_cap_exits_two_before_sweeping(self, capsys, tmp_path, monkeypatch):
        checked = []
        monkeypatch.setattr(gadgets, "check_strong_replacement", lambda *args, **kwargs: checked.append(args))
        f = write(tmp_path / "k2.json", build_path(1).to_dict())
        code, out = run(
            capsys,
            ["strong-replacement", "--graph", f, "--a", "v0", "--b", "v1", "--max-size", "5"],
        )
        assert code == 2 and "capped" in json.loads(out)["error"]
        assert checked == []


class TestHoms:
    def test_plain_count(self, capsys, tmp_path):
        k2 = write(tmp_path / "k2.json", build_path(1).to_dict())
        code, out = run(capsys, ["homs", k2, k2, "--mode", "count"])
        assert code == 0 and json.loads(out)["count"] == 2

    def test_exists_false_exits_one(self, capsys, tmp_path, c3_file):
        k2 = write(tmp_path / "k2.json", build_path(1).to_dict())
        code, out = run(capsys, ["homs", c3_file, k2, "--mode", "exists"])
        assert code == 1 and json.loads(out)["exists"] is False

    def test_slice_endos_of_identity_triangle(self, capsys, tmp_path):
        c3 = build_cycle(3)
        doc = {
            "carrier": c3.to_dict(),
            "base": c3.to_dict(),
            "map": {v: v for v in c3.vertices},
        }
        f = write(tmp_path / "slice.json", doc)
        code, out = run(capsys, ["homs", f, f, "--mode", "count"])
        assert code == 0 and json.loads(out)["count"] == 1

    def test_mixed_inputs_exit_two(self, capsys, tmp_path, c3_file):
        doc = {
            "carrier": build_path(1).to_dict(),
            "base": build_path(1).to_dict(),
            "map": {"v0": "v0", "v1": "v1"},
        }
        f = write(tmp_path / "slice.json", doc)
        for argv in (["homs", f, c3_file], ["homs", c3_file, f]):
            code, out = run(capsys, argv)
            assert code == 2
            assert json.loads(out) == {"error": "source and target must both be graphs or both slice objects"}

    @pytest.mark.parametrize("mode", ["count", "exists", "list"])
    def test_slices_over_different_bases_exit_two(self, capsys, tmp_path, mode):
        k2, identity = build_path(1).to_dict(), {"v0": "v0", "v1": "v1"}
        over_k2 = write(tmp_path / "k2.json", {"carrier": k2, "base": k2, "map": identity})
        over_c3 = write(tmp_path / "c3.json", {"carrier": k2, "base": build_cycle(3).to_dict(), "map": identity})
        code, out = run(capsys, ["homs", over_k2, over_c3, "--mode", mode])
        assert code == 2
        assert json.loads(out) == {"error": "slice objects live over different bases"}

    def test_list_mode(self, capsys, tmp_path):
        k2 = write(tmp_path / "k2.json", build_path(1).to_dict())
        code, out = run(capsys, ["homs", k2, k2, "--mode", "list"])
        payload = json.loads(out)
        assert code == 0 and len(payload["homs"]) == 2

    @pytest.mark.parametrize("mode", ["count", "exists", "list"])
    def test_max_solutions_below_one_exits_two(self, capsys, tmp_path, c3_file, mode):
        k2 = write(tmp_path / "k2.json", build_path(1).to_dict())
        for limit in ("0", "-5"):
            code, out = run(capsys, ["homs", k2, c3_file, "--mode", mode, "--max-solutions", limit])
            assert code == 2 and "limit" in json.loads(out)["error"]


class TestEndosRetractDichotomy:
    def test_endos_on_slice(self, capsys, tmp_path, p3_file):
        p3 = build_path(3)
        doc = {
            "carrier": p3.to_dict(),
            "base": p3.to_dict(),
            "map": {v: v for v in p3.vertices},
        }
        f = write(tmp_path / "slice.json", doc)
        code, out = run(capsys, ["endos", f])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "rigid"

    def test_endos_on_plain_graph(self, capsys, tmp_path):
        f = write(tmp_path / "c4.json", build_cycle(4).to_dict())
        code, out = run(capsys, ["endos", f])
        assert code == 0 and json.loads(out)["verdict"] == "proper-endomorphism"

    def test_retract_identity_path(self, capsys, tmp_path):
        p3 = build_path(3)
        doc = {
            "carrier": p3.to_dict(),
            "base": p3.to_dict(),
            "map": {v: v for v in p3.vertices},
        }
        f = write(tmp_path / "slice.json", doc)
        code, out = run(capsys, ["retract", f])
        payload = json.loads(out)
        assert code == 0 and payload["kind"] == "rigid-path"

    def test_dichotomy_small(self, capsys, p3_file):
        code, out = run(capsys, ["dichotomy", p3_file, "--max-carrier", "2", "--samples", "10"])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "pass"

    def test_dichotomy_classifier_fault_exits_one(self, capsys, monkeypatch, p3_file):
        # a ValueError inside the classifier is a violation, not a malformed input
        def planted(plan, X):
            raise ValueError("planted")

        monkeypatch.setattr(universality.RetractionPlan, "validate", planted)
        code, out = run(capsys, ["dichotomy", p3_file, "--max-carrier", "5"])
        payload = json.loads(out)
        assert code == 1 and payload["verdict"] == "fail"
        assert payload == universality.dichotomy_sweep(build_path(3), 5).to_dict()
        assert payload["violation"]["detail"] == "constructive classification failed: planted"

    def test_dichotomy_over_cap_exits_two(self, capsys, p3_file):
        code, out = run(capsys, ["dichotomy", p3_file, "--max-carrier", "8"])
        assert code == 2
        assert json.loads(out) == {"error": "carrier enumeration is capped at 7 vertices (requested 8)"}

    @pytest.mark.parametrize("samples", ["0", "5"])
    def test_dichotomy_over_an_empty_base_exits_two(self, capsys, tmp_path, samples):
        base = write(tmp_path / "empty.json", {"vertices": [], "edges": []})
        code, out = run(capsys, ["dichotomy", base, "--max-carrier", "3", "--samples", samples])
        assert code == 2
        assert json.loads(out) == {"error": "base has no vertices, so the sweep would pass vacuously"}


class TestEmbedAndEnumerate:
    def test_embed_check(self, capsys):
        code, out = run(capsys, ["embed-check", "--gadget", "c3", "--max-size", "2"])
        payload = json.loads(out)
        assert code == 0
        assert payload["pairs_checked"] == 196
        assert payload["digraph_homs"] == payload["slice_homs"]

    def test_unknown_gadget_names_the_built_ins(self, capsys, tmp_path):
        missing = str(tmp_path / "zz")
        code, out = run(capsys, ["embed-check", "--gadget", missing, "--max-size", "1"])
        assert code == 2
        assert json.loads(out) == {
            "error": f"{missing!r} is neither a built-in gadget (C3, C4, P4, Y) "
            "nor a readable file: No such file or directory"
        }

    def test_enumerate_digraphs(self, capsys):
        code, out = run(capsys, ["enumerate-digraphs", "--size", "2"])
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 13

    def test_enumerate_all(self, capsys):
        code, out = run(capsys, ["enumerate-digraphs", "--size", "2", "--all"])
        assert code == 0 and json.loads(out)["count"] == 16

    def test_gadget_print(self, capsys):
        code, out = run(capsys, ["gadget", "y"])
        payload = json.loads(out)
        assert code == 0
        assert payload["a"] == "a" and payload["b"] == "g"
        assert payload["map"]["e"] == "3"

    def test_usage_error_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["a", "b", "v0", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "b", "v0"]), inner, max_size=3),
    max_leaves=6,
)
GRAPH_LIKE = st.fixed_dictionaries({"vertices": JSON_VALUES, "edges": JSON_VALUES})
SLICE_LIKE = st.fixed_dictionaries(
    {"carrier": GRAPH_LIKE | st.just(build_path(1).to_dict()), "base": GRAPH_LIKE | st.just(build_path(1).to_dict()), "map": JSON_VALUES}
)
DOCUMENTS = JSON_VALUES | GRAPH_LIKE | SLICE_LIKE | st.sampled_from(
    [build_path(1).to_dict(), build_path(3).to_dict(), build_cycle(3).to_dict()]
)
COMMANDS = [
    ["classify", "{doc}"],
    ["cone-classify", "{doc}"],
    ["endos", "{doc}"],
    ["retract", "{doc}"],
    ["homs", "{doc}", "{doc}", "--mode", "exists"],
    ["arrow", "{doc}", "--gadget", "c3"],
    ["verify-gadget", "--gadget", "{doc}", "--max-size", "1"],
    ["strong-replacement", "--graph", "{doc}", "--a", "a", "--b", "b", "--max-size", "1"],
    ["dichotomy", "{doc}", "--max-carrier", "2"],
]
VERDICT_KEYS = ("verdict", "holds", "exists")


def run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestExitCodes:
    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": 5, "edges": []},
            {"vertices": ["a", "b"], "edges": [5]},
            {"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
            {"vertices": [["a"]], "edges": []},
            {"vertices": [True], "edges": []},
            [1, 2],
            7,
            None,
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "endos"])
    def test_malformed_graph_documents_exit_two(self, capsys, tmp_path, doc, command):
        code, out = run(capsys, [command, write(tmp_path / "bad.json", doc)])
        assert code == 2 and "error" in json.loads(out)

    def test_malformed_slice_map_exits_two(self, capsys, tmp_path):
        doc = {"carrier": build_path(1).to_dict(), "base": build_path(1).to_dict(), "map": ["v0"]}
        code, out = run(capsys, ["endos", write(tmp_path / "bad.json", doc)])
        assert code == 2 and "error" in json.loads(out)

    def test_internal_fault_exits_three(self, capsys, monkeypatch, c3_file):
        def broken(graph):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli, "classify_slice_base", broken)
        code, out = run(capsys, ["classify", c3_file])
        assert code == 3
        assert json.loads(out) == {"error": "internal error: RuntimeError: invariant violated"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-gadget", "--gadget", "c3", "--max-size", "0"],
            ["embed-check", "--gadget", "c3", "--max-size", "-1"],
            ["strong-replacement", "--graph", "g.json", "--a", "x", "--b", "y", "--max-size", "0"],
            ["dichotomy", "base.json", "--max-carrier", "0"],
        ],
    )
    def test_sizes_below_one_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-gadget", "--gadget", "c3", "--max-size", "0"],
            ["strong-replacement", "--graph", "g.json", "--a", "a.json", "--b", "b.json", "--max-size", "0"],
            ["dichotomy", "base.json", "--max-carrier", "0"],
            ["embed-check", "--gadget", "c3", "--max-size", "-4"],
            ["dichotomy", "base.json", "--max-carrier", "2", "--samples", "-1"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv):
        # rejected while parsing: no input is read
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_count_mode_matches_list_mode(self, capsys, tmp_path, c3_file):
        p2 = write(tmp_path / "p2.json", build_path(2).to_dict())
        _, listed = run(capsys, ["homs", p2, c3_file, "--mode", "list"])
        _, counted = run(capsys, ["homs", p2, c3_file, "--mode", "count"])
        assert json.loads(counted)["count"] == json.loads(listed)["count"] == 12

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(COMMANDS), DOCUMENTS)
    def test_exit_one_only_with_a_verdict(self, command, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "doc.json")
            write(Path(path), doc)
            code, out = run_quiet([path if a == "{doc}" else a for a in command])
        # malformed input is exit 2; no input may reach an internal fault
        assert code in (0, 1, 2)
        payload = json.loads(out)
        if code == 1:
            assert "error" not in payload
            assert any(key in payload for key in VERDICT_KEYS)
        if code == 2:
            assert set(payload) == {"error"}
