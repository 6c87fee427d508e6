import contextlib
import errno
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cimset.cli
import cimset.limits
import cimset.verify
from cimset.cli import main
from cimset.graphs import (FamilySpec, NodeOrdering, diagnosis_family, family_to_json,
                           graph_to_json, ParentMap)

FIX = str(Path(__file__).resolve().parent.parent / "fixtures")


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def diag21(tmp_path):
    spec = diagnosis_family(2, 1)
    fam = _write_json(tmp_path / "family.json", family_to_json(spec))
    g = ParentMap(spec.ordering, (0, 0, 0b01))
    graph = _write_json(tmp_path / "graph.json", graph_to_json(g))
    return spec, fam, graph


def test_imset_text(diag21, capsys):
    _, fam, graph = diag21
    assert main(["imset", "--family", fam, "--graph", graph]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["b1 a1 1", "b1 a2 0", "b1 a1,a2 0"]


def test_imset_json_and_full(diag21, capsys):
    _, fam, graph = diag21
    assert main(["imset", "--family", fam, "--graph", graph, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coordinates"][0] == {"child": "b1", "subset": ["a1"], "value": 1}
    assert main(["imset", "--family", fam, "--graph", graph, "--full"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # ambient sets of size >= 2 over 3 nodes: a1,a2 / a1,b1 / a2,b1 / a1,a2,b1
    assert lines == ["a1,a2 0", "a1,b1 1", "a2,b1 0", "a1,a2,b1 0"]


def test_imset_full_json(diag21, capsys):
    _, fam, graph = diag21
    assert main(["imset", "--family", fam, "--graph", graph, "--full", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"graph": {"ordering": ["a1", "a2", "b1"], "parents": [[], [], ["a1"]]},
                   "full_vector": [0, 1, 0, 0]}


def test_facets_text(diag21, capsys):
    _, fam, _ = diag21
    assert main(["facets", "--family", fam]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    assert out[0] == "b1 s={}: 1 - x[a1] - x[a2] + x[a1,a2] >= 0"
    assert out[-1] == "b1 s={a1,a2}: + x[a1,a2] >= 0"


def test_facets_limit_and_child(diag21, tmp_path, capsys):
    _, fam, _ = diag21
    assert main(["facets", "--family", fam, "--child", "b1", "--limit", "2"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert "row limit" in captured.err
    assert main(["facets", "--family", fam, "--child", "zz"]) == 1
    capsys.readouterr()
    point = _write_json(tmp_path / "point.json", family_to_json(
        FamilySpec(NodeOrdering(("a", "b")), (0, 0b01), (0, 0b01))))
    assert main(["facets", "--family", point]) == 1
    assert "family is a single point; no facets to print" in capsys.readouterr().err


def test_facets_json(diag21, capsys):
    _, fam, _ = diag21
    assert main(["facets", "--family", fam, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["child"] == "b1"
    assert doc[0]["rows"][0]["s"] == []
    assert {"subset": [], "coef": 1} in doc[0]["rows"][0]["terms"]


def test_facets_json_builds_one_system_per_child(tmp_path, capsys, monkeypatch):
    o = NodeOrdering(("a", "b", "c", "d"))
    spec = FamilySpec(o, (0, 0, 0, 0b001), (0, 0, 0b011, 0b111))
    fam = _write_json(tmp_path / "family.json", family_to_json(spec))
    built = []
    build = cimset.cli.facet_system_for_child
    monkeypatch.setattr(cimset.cli, "facet_system_for_child",
                        lambda spec, i: built.append(i) or build(spec, i))
    assert main(["facets", "--family", fam, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(d["child"], d["fixed"], len(d["rows"])) for d in doc] == [
        ("c", [], 4), ("d", ["a"], 4)]
    assert built == [2, 3]


def test_neighbors(diag21, capsys):
    _, fam, graph = diag21
    assert main(["neighbors", "--family", fam, "--graph", graph]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert "3 neighbors" in captured.err
    assert main(["neighbors", "--family", fam, "--graph", graph, "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_neighbors_json(diag21, capsys):
    _, fam, graph = diag21
    assert main(["neighbors", "--family", fam, "--graph", graph, "--format", "json"]) == 0
    captured = capsys.readouterr()
    # b1's other three parent sets, one graph JSON object a line
    assert sorted(tuple(json.loads(line)["parents"][2]) for line in captured.out.splitlines()) == [
        (), ("a1", "a2"), ("a2",)]
    assert "3 neighbors" in captured.err


def test_neighbors_count_only_is_closed_form(tmp_path, capsys):
    # 2**25 - 1 neighbors: over the limit for listing, but counting builds no list
    spec = diagnosis_family(25, 1)
    fam = _write_json(tmp_path / "family.json", family_to_json(spec))
    graph = _write_json(tmp_path / "graph.json",
                        graph_to_json(ParentMap(spec.ordering, (0,) * 26)))
    assert main(["neighbors", "--family", fam, "--graph", graph, "--count-only"]) == 0
    assert capsys.readouterr().out == f"{(1 << 25) - 1}\n"
    assert main(["neighbors", "--family", fam, "--graph", graph]) == 1
    assert "over the limit" in capsys.readouterr().err
    outsider = _write_json(tmp_path / "outsider.json",
                           graph_to_json(ParentMap(spec.ordering, (0, 1) + (0,) * 24)))
    assert main(["neighbors", "--family", fam, "--graph", outsider, "--count-only"]) == 1
    assert "not a member of the family" in capsys.readouterr().err


def test_enumerate(diag21, capsys):
    _, fam, _ = diag21
    assert main(["enumerate", "--family", fam, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4
    assert "4 graphs" in captured.err
    assert main(["enumerate", "--family", fam, "--limit", "2"]) == 1
    assert "enumeration limit" in capsys.readouterr().err


# sha256 of stdout of `cimset enumerate --format json`, recorded while the
# CLI encoded each member with json.dumps(graph_to_json(g)): the texts that
# graphs.family_graph_texts joins must print the same bytes
_PINNED_ENUMERATE = {
    "diag_2_2": ("d5e7eb75b5d9f7389652314e80978013cd12a0742a34414c5aa7adddcb3999c5", 16),
    "p21_family": ("68709c2ab31a0a010b01f2aab04dbbe70c9a4f14bf0ae88430740a0f4bbd493e", 4),
    "escaped_names": ("c9e2f16e389552bbe48bf324c523fede1746d57386618656a2608c99fd381a11", 8),
}


@pytest.mark.parametrize("fixture", sorted(_PINNED_ENUMERATE))
def test_enumerate_json_writes_the_pinned_bytes(fixture, capsys):
    digest, count = _PINNED_ENUMERATE[fixture]
    assert main(["enumerate", "--family", f"{FIX}/{fixture}.json", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == f"{count} graphs\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_limit_is_refused_before_any_member(capsys, monkeypatch, fmt):
    # as the parent's text listing refused it: exit 1, nothing on stdout
    monkeypatch.delenv("CIMSET_ENUM_LIMIT", raising=False)
    argv = ["enumerate", "--family", f"{FIX}/diag_2_2.json", "--limit", "3", "--format", fmt]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cimset: family has 16 members, over the enumeration limit 3\n"


def test_verify_all_pass(diag21, tmp_path, capsys):
    _, fam, _ = diag21
    certs = tmp_path / "certs.jsonl"
    assert main(["verify", "--family", fam, "--certificates", str(certs)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["product", "dimension",
                                               "adjacency", "facets"]
    assert all("PASS" in ln for ln in lines)
    assert "family: 4 vertices" in captured.err
    recorded = [json.loads(ln) for ln in certs.read_text().splitlines()]
    assert all(c["verified"] for c in recorded)
    kinds = {c["kind"] for c in recorded}
    assert "facet" in kinds and {"adjacency", "non-adjacency"} & kinds


# sha256 of stdout and of the --certificates file of `cimset verify --checks
# all` on two fixtures, recorded before the oracle summed facet rows over a
# vertex's ones and walked only a pair's face: its speed-ups must write the
# same bytes
_PINNED_VERIFY = {
    "diag_2_2": ("e86920f5da12842f4935c1beaa3bd0338e0f580ae9c3717188ceb2ca3d2ff542",
                 "6eae5b64ddf281b7983c46ae2329b52cdabec4346b280ab4c29e4a6d991653f9"),
    "diag_3_1": ("321dcd5b7570f019a2a6986f9a2d66cce4a20785bdde35ad6d5d54ebec297504",
                 "9be7ead999557d10ec1bccb61be94a9e1e2bd918c42ee6b2e42c4cd835201d73"),
    "p21_family": ("81dcb6146b8cd69e439cc5d21955f50f23c41b048d9ce4751923169808ff0f33",
                   "cf923ed94b141605db43d77b4e349f7324d23bb6b95bdeecbcceea0f8388bbe2"),
    # 120 pairs over --limit 40: the sampled pairs
    "diag_2_2 --limit 40 --seed 7": (
        "1cc62a2e7a7b93ad0670debef9660270ff60eab45ea0960a286f8d6776feafc8",
        "df45f7b2b7a2be06363c70130e45743929f4c7f72a6883deb1eb014b67b63c31"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_VERIFY))
def test_verify_writes_the_pinned_bytes(case, tmp_path, capsys):
    fixture, *options = case.split()
    certs = tmp_path / "certs.jsonl"
    assert main(["verify", "--family", f"{FIX}/{fixture}.json", "--checks", "all",
                 "--certificates", str(certs), *options]) == 0
    out = capsys.readouterr().out
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(certs.read_bytes()).hexdigest())
    assert digests == _PINNED_VERIFY[case]


def test_verify_certificate_lines_are_json_text_on_names_that_need_escaping(tmp_path, capsys):
    # a quote, a backslash, a non-ASCII letter and a tab in the node names:
    # 28 pairs of 8 members, then the 8 rows of one 3-block
    certs = tmp_path / "certs.jsonl"
    assert main(["verify", "--family", f"{FIX}/escaped_names.json",
                 "--certificates", str(certs)]) == 0
    capsys.readouterr()
    with open(certs, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    assert len(lines) == 36
    assert all(json.dumps(json.loads(line)) + "\n" == line for line in lines)
    assert all(json.loads(line)["verified"] is True for line in lines)


# a family whose one free child c has the floor {a}: facets names its rows by
# the free set {b} and its fixed parents by the floor
_FLOOR_FAMILY = {"ordering": ["a", "b", "c"], "floor": [[], [], ["a"]],
                 "ceiling": [[], [], ["a", "b"]], "max_parents": None}
_CI_GRAPH = {"ordering": ["a1", "a2", "b1", "b2"], "parents": [[], [], ["a1"], ["a1", "a2"]]}

# sha256 of stdout of `cimset facets` and of `cimset imset --full` on
# diag_2_2 with _CI_GRAPH, recorded while FacetSystem still carried its rows'
# names and the CLI still sliced the full vector's labels itself: naming
# rows from the family and labelling from imsets must print the same bytes
_PINNED_RENDERS = {
    "facets p21_family text": "4c8d54f4e2eb167ff1bb5616fcc287c3705fca0f1e01f7cde20cc6f304bb3c0f",
    "facets p21_family json": "4956cae9a060a27379c29e8018da780c633eb38bb15f411e415e3da29659d5bf",
    "facets diag_3_1 text": "b08611b3c94a42f608b434640965cee1394cdac085d4c45d3867379040be850a",
    "facets diag_3_1 json": "33430f76d60c737a094342db1de71efeb72ff6798cdaced7c138767e95c0c5a5",
    "facets floor text": "e3fcade5c3f14de17ef9d7b586674af29910c75052878bbd5e9605c6fb95d940",
    "facets floor json": "a235cdb11e750d8a54223acedf9f134dc5d130f93d22e4597061c88e2b4a3e3c",
    "imset-full diag_2_2 text": "1d0f28b7cef116c7518e24772b8e4b1a5e28935e139a8ef224f6b322d3b649c8",
    "imset-full diag_2_2 json": "2167bd1aaffd69b2414c0b1c7183172a9ef8395bbb2c52b2f74777dd2dd099a6",
}


@pytest.mark.parametrize("case", sorted(_PINNED_RENDERS))
def test_renderers_write_the_pinned_bytes(case, tmp_path, capsys):
    command, fixture, fmt = case.split()
    family = (_write_json(tmp_path / "floor.json", _FLOOR_FAMILY) if fixture == "floor"
              else f"{FIX}/{fixture}.json")
    argv = ["facets", "--family", family]
    if command == "imset-full":
        argv = ["imset", "--family", family, "--full",
                "--graph", _write_json(tmp_path / "graph.json", _CI_GRAPH)]
    assert main(argv + ["--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _PINNED_RENDERS[case]


def test_verify_json_format(diag21, capsys):
    _, fam, _ = diag21
    assert main(["verify", "--family", fam, "--checks", "product,dimension",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in doc["checks"]] == ["product", "dimension"]
    assert all(c["pass"] for c in doc["checks"])


def test_verify_exit_2_on_falsified_claim(diag21, capsys, monkeypatch):
    _, fam, _ = diag21
    # force the closed-form adjacency rule to disagree with the oracle
    monkeypatch.setattr(cimset.verify, "_one_child_apart", lambda *a, **k: False)
    assert main(["verify", "--family", fam, "--checks", "adjacency"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_check_and_size_guard(diag21, tmp_path, capsys):
    _, fam, _ = diag21
    assert main(["verify", "--family", fam, "--checks", "nonsense"]) == 1
    assert "unknown checks" in capsys.readouterr().err
    big = _write_json(tmp_path / "big.json",
                      family_to_json(diagnosis_family(4, 4)))
    assert main(["verify", "--family", big]) == 1
    assert "refuses families over" in capsys.readouterr().err


def test_learn_from_scores(capsys):
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--method", "all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"]["graph"]["parents"][3] == ["a1", "a3"]
    assert doc["k2-forward"]["graph"]["parents"][3] == ["a2", "a3"]
    assert doc["exact"]["score"] == 12
    assert doc["k2-forward"]["score"] == 7


def test_learn_json_graphs_are_name_lists(capsys):
    # json writes a tuple as a list, so a ParentMap must never reach the encoder
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--method", "all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["exact", "k2-backward", "k2-forward"]
    for result in doc.values():
        graph = result["graph"]
        assert sorted(graph) == ["ordering", "parents"]
        assert graph["ordering"] == ["a1", "a2", "a3", "b1"]
        assert len(graph["parents"]) == 4
        assert all(isinstance(name, str) for ps in graph["parents"] for name in ps)


def test_learn_writes_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["parents"][3] == ["a1", "a3"]
    assert "wrote exact graph" in capsys.readouterr().err


def test_learn_from_csv(capsys):
    assert main(["learn", "--data", f"{FIX}/binary_demo.csv",
                 "--family", f"{FIX}/diag_2_2.json",
                 "--criterion", "bic", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"]["graph"]["parents"][2] == ["a1", "a2"]
    assert doc["exact"]["graph"]["parents"][3] == ["a1"]


def test_learn_max_parents(capsys):
    assert main(["learn", "--data", f"{FIX}/binary_demo.csv",
                 "--family", f"{FIX}/diag_2_2.json", "--max-parents", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["exact"]["graph"]["parents"][2]) <= 1


def test_learn_flag_validation(capsys):
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--data", f"{FIX}/binary_demo.csv"]) == 1
    assert "not both" in capsys.readouterr().err
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--max-parents", "2"]) == 1
    assert "--max-parents applies only with --data" in capsys.readouterr().err
    assert main(["learn", "--data", f"{FIX}/binary_demo.csv", "--family",
                 f"{FIX}/diag_2_2.json", "--max-parents", "-1"]) == 1
    assert "max_parents must be nonnegative" in capsys.readouterr().err
    assert main(["learn", "--data", f"{FIX}/binary_demo.csv"]) == 1
    assert "--data requires --family" in capsys.readouterr().err
    assert main(["learn"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["learn", "compare-k2"])
def test_criterion_applies_only_with_data(command, capsys):
    assert main([command, "--scores", f"{FIX}/example_k2_forward.json",
                 "--criterion", "aic"]) == 1
    assert "--criterion applies only with --data" in capsys.readouterr().err
    # with --data and no --criterion the score is bic
    outs = []
    for extra in ([], ["--criterion", "bic"]):
        assert main([command, "--data", f"{FIX}/binary_demo.csv",
                     "--family", f"{FIX}/diag_2_2.json", "--format", "json", *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_scores_with_a_family(tmp_path, capsys):
    table = json.loads(Path(f"{FIX}/example_k2_forward.json").read_text())
    same = _write_json(tmp_path / "same.json", table["family"])
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--family", same]) == 0
    capsys.readouterr()
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--family", f"{FIX}/diag_2_2.json"]) == 1
    assert "score table and --family describe different families" in capsys.readouterr().err


def test_learn_rational_gate(capsys):
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--rational"]) == 0
    capsys.readouterr()
    assert main(["learn", "--data", f"{FIX}/binary_demo.csv",
                 "--family", f"{FIX}/diag_2_2.json", "--rational"]) == 1
    assert "exact score table" in capsys.readouterr().err


def test_compare_k2_rational_gate(capsys):
    assert main(["compare-k2", "--scores", f"{FIX}/diag_2_2_rational.json", "--rational"]) == 0
    capsys.readouterr()
    assert main(["compare-k2", "--data", f"{FIX}/binary_demo.csv",
                 "--family", f"{FIX}/diag_2_2.json", "--rational"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "exact score table" in captured.err


def test_compare_k2(capsys):
    assert main(["compare-k2", "--scores", f"{FIX}/example_k2_forward.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gaps"]["k2-forward"] == 5
    assert doc["structural_hamming"]["k2-forward"] == 2
    assert doc["agreement"]["k2-forward"] == [True, True, True, False]
    assert main(["compare-k2", "--scores", f"{FIX}/example_k2_backward.json",
                 "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "gap k2-backward: 1" in text


def test_threads_flag_accepted(capsys):
    assert main(["learn", "--scores", f"{FIX}/example_k2_forward.json",
                 "--threads", "8"]) == 0
    capsys.readouterr()


def test_bad_arguments_exit_1(capsys):
    assert main(["imset", "--family", "nope.json"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "facets", "enumerate"])
def test_negative_limit_refused(diag21, command, capsys):
    _, fam, _ = diag21
    assert main([command, "--family", fam, "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --limit: must be at least 0, got -1" in captured.err
    assert main([command, "--family", fam, "--limit", "many"]) == 1
    assert "argument --limit: invalid int value: 'many'" in capsys.readouterr().err


def test_missing_file_message(diag21, capsys):
    _, fam, _ = diag21
    assert main(["imset", "--family", fam, "--graph", "/does/not/exist.json"]) == 1
    assert "cannot read graph file" in capsys.readouterr().err


def _one_refusal_line(err):
    return err.startswith("cimset: ") and err.count("\n") == 1 and err.endswith("\n")


def _refused(capsys, argv):
    """The stderr of main(argv), which must exit 1 with one line starting `cimset: `."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert _one_refusal_line(err), err
    return err


@pytest.mark.parametrize("command", ["learn", "compare-k2"])
@pytest.mark.parametrize("scores", [1, 2.5, None, True, "a1", {"child": "a1", "score": 0}])
def test_scores_must_be_a_list(tmp_path, command, scores, capsys):
    table = json.loads(Path(FIX, "example_k2_forward.json").read_text())
    path = _write_json(tmp_path / "table.json", dict(table, scores=scores))
    assert "'scores' must be a list of entries" in _refused(capsys, [command, "--scores", path])


def test_unwritable_certificates_file_is_refused(tmp_path, capsys):
    certs = tmp_path / "missing" / "certs.jsonl"
    err = _refused(capsys, ["verify", "--family", f"{FIX}/diag_2_2.json",
                            "--certificates", str(certs)])
    assert f"cannot write certificates file {certs}" in err


def test_unwritable_graph_file_is_refused(tmp_path, capsys):
    out = tmp_path / "missing" / "graph.json"
    err = _refused(capsys, ["learn", "--scores", f"{FIX}/example_k2_forward.json",
                            "--out", str(out)])
    assert f"cannot write graph file {out}" in err


# diag_2_2 widened to 66 nodes, the last of which may take the node at
# position 64 as a parent
_WIDE_MASKS = {"ordering": [f"v{i}" for i in range(66)], "floor": [[]] * 66,
               "ceiling": [[]] * 65 + [["v64"]]}


# each refusal says what it changes in a verify that wrote certificates
# before: arguments it adds, keys of diag_2_2's family file, a limit or an
# environment variable
@pytest.mark.parametrize("refusal, message", [
    ({"argv": ["--checks", "nonsense"], "ADJACENCY_CLOUD_MAX": 15}, "unknown checks: nonsense"),
    ({"argv": ["--checks", "product"], "ADJACENCY_CLOUD_MAX": 15},
     "over the limit ADJACENCY_CLOUD_MAX = 15"),
    ({"family": {"max_parents": 1}}, "coordinate geometry for capped families is unsupported"),
    ({"family": _WIDE_MASKS}, "node position 64, so its masks need 65 bits, "
                              "over the limit MASK_BITS = 63"),
    ({"CIMSET_ENUM_LIMIT": "10"}, "family has 16 members, over the enumeration limit 10"),
])
def test_refused_verify_keeps_the_certificates_file(tmp_path, capsys, monkeypatch,
                                                    refusal, message):
    monkeypatch.delenv("CIMSET_ENUM_LIMIT", raising=False)
    certs = tmp_path / "certs.jsonl"
    argv = ["verify", "--family", f"{FIX}/diag_2_2.json", "--certificates", str(certs)]
    assert main(argv) == 0
    kept = certs.read_bytes()
    assert len(kept.splitlines()) == 128
    capsys.readouterr()
    if "ADJACENCY_CLOUD_MAX" in refusal:
        monkeypatch.setattr(cimset.limits, "ADJACENCY_CLOUD_MAX", refusal["ADJACENCY_CLOUD_MAX"])
    if "CIMSET_ENUM_LIMIT" in refusal:
        monkeypatch.setenv("CIMSET_ENUM_LIMIT", refusal["CIMSET_ENUM_LIMIT"])
    extra = list(refusal.get("argv", []))
    if "family" in refusal:
        family = json.loads(Path(FIX, "diag_2_2.json").read_text())
        extra += ["--family", _write_json(tmp_path / "family.json",
                                          dict(family, **refusal["family"]))]
    assert message in _refused(capsys, argv + extra)
    assert certs.read_bytes() == kept


@pytest.mark.parametrize("argv, knob", [
    # verify's --limit counts pairs, so it does not raise the enumeration limit
    (["verify", "--family", f"{FIX}/diag_2_2.json", "--limit", "100000"], True),
    # an explicit --limit is the limit: the variable does not raise it
    (["enumerate", "--family", f"{FIX}/diag_2_2.json", "--limit", "3"], False),
])
def test_enumeration_refusal_names_only_the_knob_that_raises_it(capsys, monkeypatch, argv, knob):
    monkeypatch.setenv("CIMSET_ENUM_LIMIT", "10")
    err = _refused(capsys, argv)
    assert "16 members, over the enumeration limit" in err
    assert ("CIMSET_ENUM_LIMIT" in err) == knob and "--limit" not in err


def test_verify_that_writes_no_certificate_leaves_an_empty_file(tmp_path, capsys):
    certs = tmp_path / "certs.jsonl"
    certs.write_text("keep me\n")
    argv = ["verify", "--family", f"{FIX}/diag_2_2.json", "--checks", "product"]
    assert main(argv + ["--certificates", str(certs)]) == 0
    assert certs.read_bytes() == b""
    capsys.readouterr()
    # an unwritable path is still refused when nothing is written to it
    missing = tmp_path / "missing" / "certs.jsonl"
    err = _refused(capsys, argv + ["--certificates", str(missing)])
    assert f"cannot write certificates file {missing}" in err


class _FullDisk(io.StringIO):
    """A file on a full disk: its `write` or its `close` raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self._failing = failing

    def _full(self):
        return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self._failing == "write":
            raise self._full()
        return super().write(text)

    def close(self):
        super().close()
        if self._failing == "close":
            raise self._full()


def _full_disk_for_writes(monkeypatch, failing):
    """Make cimset.cli open every file it writes on a full disk."""
    real = open

    def fake_open(path, mode="r", *args, **kwargs):
        return _FullDisk(failing) if "w" in mode else real(path, mode, *args, **kwargs)

    monkeypatch.setattr(cimset.cli, "open", fake_open, raising=False)


@pytest.mark.parametrize("failing", ["write", "close"])
def test_certificates_write_failure_is_refused(tmp_path, capsys, monkeypatch, failing):
    _full_disk_for_writes(monkeypatch, failing)
    certs = tmp_path / "certs.jsonl"
    err = _refused(capsys, ["verify", "--family", f"{FIX}/diag_2_2.json",
                            "--certificates", str(certs)])
    assert err == f"cimset: cannot write certificates file {certs}: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("failing", ["write", "close"])
def test_graph_write_failure_is_refused(tmp_path, capsys, monkeypatch, failing):
    _full_disk_for_writes(monkeypatch, failing)
    out = tmp_path / "graph.json"
    err = _refused(capsys, ["learn", "--scores", f"{FIX}/example_k2_forward.json",
                            "--out", str(out)])
    assert err == f"cimset: cannot write graph file {out}: {os.strerror(errno.ENOSPC)}\n"


def test_parser_is_built_once_per_process():
    assert cimset.cli.build_parser() is cimset.cli.build_parser()


def _outcome(capsys, argv):
    """main(argv)'s exit code, stdout and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_keeps_no_options_between_calls(tmp_path, capsys):
    certs = tmp_path / "certs.jsonl"
    full = ["verify", "--family", f"{FIX}/diag_2_2.json", "--certificates", str(certs)]
    first = _outcome(capsys, full)
    assert len(certs.read_text().splitlines()) == 128
    assert _outcome(capsys, full[:3] + ["--limit", "5"] + full[3:])[0] == 0
    assert len(certs.read_text().splitlines()) == 13
    assert _outcome(capsys, full) == first
    assert len(certs.read_text().splitlines()) == 128


def test_refused_argv_leaves_the_shared_parser_unchanged(capsys):
    argv = ["learn", "--scores", f"{FIX}/example_k2_forward.json", "--method", "all"]
    first = _outcome(capsys, argv)
    assert first[0] == 0
    assert "argument --method: invalid choice: 'x'" in _refused(capsys, ["learn", "--method", "x"])
    assert _outcome(capsys, argv) == first


def test_help_twice_gives_the_same_text(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert all(name in texts[0] for name in ("imset", "verify", "compare-k2", "enumerate"))


def test_missing_data_file_is_refused(tmp_path, capsys):
    data = tmp_path / "missing.csv"
    err = _refused(capsys, ["learn", "--data", str(data), "--family", f"{FIX}/diag_2_2.json"])
    assert f"cannot read data file {data}" in err


def test_data_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"a1,a2,b1,b2\n\xff,0,0,0\n")
    err = _refused(capsys, ["learn", "--data", str(data), "--family", f"{FIX}/diag_2_2.json"])
    assert f"{data}: not UTF-8 text" in err


def test_data_file_with_an_oversized_field_is_refused(tmp_path, capsys):
    # a quote left open swallows the rest of the file into one field
    data = tmp_path / "open_quote.csv"
    data.write_text('a1,a2,b1,b2\n"' + "0,0,0,0\n" * 20000)
    err = _refused(capsys, ["learn", "--data", str(data), "--family", f"{FIX}/diag_2_2.json"])
    assert f"{data}: not a readable CSV (field larger than field limit" in err


def test_json_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    family = tmp_path / "latin1.json"
    family.write_bytes(b'{"ordering": ["\xff"]}')
    assert f"{family}: not UTF-8 text" in _refused(capsys, ["enumerate", "--family", str(family)])


# The fixture inputs the fuzz property mutates, one file per name
_FUZZ_INPUTS = {
    "family": Path(FIX, "diag_2_2.json").read_bytes(),
    "graph": json.dumps({"ordering": ["a1", "a2", "b1", "b2"],
                         "parents": [[], [], ["a1"], ["a1", "a2"]]}).encode(),
    "scores": Path(FIX, "diag_2_2_rational.json").read_bytes(),
    "data": Path(FIX, "diag_2_2_duplicated.csv").read_bytes(),
}
# the seven subcommands, each reading the inputs named in braces
_FUZZ_ARGVS = [
    ["imset", "--family", "{family}", "--graph", "{graph}", "--full"],
    ["facets", "--family", "{family}"],
    ["neighbors", "--family", "{family}", "--graph", "{graph}"],
    ["verify", "--family", "{family}", "--certificates", "{certificates}"],
    ["learn", "--data", "{data}", "--family", "{family}", "--method", "all", "--out", "{out}"],
    ["learn", "--scores", "{scores}", "--rational"],
    ["compare-k2", "--scores", "{scores}"],
    ["compare-k2", "--data", "{data}", "--family", "{family}", "--criterion", "ll"],
    ["enumerate", "--family", "{family}"],
]
# bytes that JSON and CSV give meaning to, or any byte at all
_FUZZ_BYTES = st.one_of(st.sampled_from(b'0123456789-./"[]{},:\n ab'), st.integers(0, 255))
_FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                                 st.integers(0, 1 << 16), _FUZZ_BYTES), min_size=1, max_size=4)


def _mutate(raw, edits):
    buf = bytearray(raw)
    for op, at, byte in edits:
        if op == "insert" or not buf:
            buf.insert(at % (len(buf) + 1), byte)
        elif op == "replace":
            buf[at % len(buf)] = byte
        else:
            del buf[at % len(buf)]
    return bytes(buf)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_FUZZ_ARGVS), st.data())
def test_mutated_inputs_exit_0_1_or_2_and_refuse_in_one_line(argv, data):
    names = [name for name in _FUZZ_INPUTS if f"{{{name}}}" in argv]
    target = data.draw(st.sampled_from(names))
    edits = data.draw(_FUZZ_EDITS)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as where:
        paths = {"certificates": f"{where}/certs.jsonl", "out": f"{where}/graph.json"}
        for name in names:
            paths[name] = f"{where}/{name}"
            raw = _FUZZ_INPUTS[name]
            Path(paths[name]).write_bytes(_mutate(raw, edits) if name == target else raw)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.format(**paths) for a in argv])
    assert code in (0, 1, 2)
    if code == 1:
        assert _one_refusal_line(err.getvalue()), err.getvalue()
