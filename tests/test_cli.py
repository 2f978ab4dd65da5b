"""Command-line interface: output schemas, exit codes, guards."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from uberhom import cli, complexes, errors, graphs, mvss, uber


CIRCLE = {"vertex_count": 3, "facets": [[0, 1], [0, 2], [1, 2]]}
CAPPED_SQUARE = {
    "vertex_count": 5,
    "facets": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]],
}


@pytest.fixture()
def circle_path(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(CIRCLE))
    return str(path)


@pytest.fixture()
def capped_square_path(tmp_path):
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(CAPPED_SQUARE))
    return str(path)


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors surface as SystemExit
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == cli.EXIT_OK
    return json.loads(out)


# --------------------------------------------------------------------------
# generate


def test_generate_families_are_deterministic(capsys):
    first = run(capsys, ["generate", "random", "6", "0.5", "--seed", "11"])
    second = run(capsys, ["generate", "random", "6", "0.5", "--seed", "11"])
    assert first == second
    assert first[0] == cli.EXIT_OK


def test_generate_goldens(capsys):
    assert run_json(capsys, ["generate", "cycle", "5"]) == {
        "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]],
        "vertex_count": 5,
    }
    assert run_json(capsys, ["generate", "simplex_boundary", "1"]) == {
        "facets": [[0], [1]],
        "vertex_count": 2,
    }
    assert run_json(capsys, ["generate", "path", "3"]) == {
        "edges": [[0, 1], [1, 2]],
        "vertex_count": 3,
    }
    assert run_json(capsys, ["generate", "complete", "3"]) == {
        "edges": [[0, 1], [0, 2], [1, 2]],
        "vertex_count": 3,
    }


def test_generate_flag_closes_triangles(capsys):
    doc = run_json(capsys, ["generate", "random", "5", "0.5", "--seed", "3", "--flag"])
    assert doc == {"facets": [[2, 4], [0, 1, 3], [1, 3, 4]], "vertex_count": 5}


def test_generate_suspension_of_circle_is_a_two_sphere(capsys, tmp_path, circle_path):
    doc = run_json(capsys, ["generate", "suspension_of", circle_path])
    assert doc["vertex_count"] == 5
    assert len(doc["facets"]) == 6
    # feeding the generated complex back in shows sphere homology
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps(doc))
    hom = run_json(capsys, ["homology", str(sphere), "--coeff", "q"])
    nonzero = [g for g in hom["groups"] if g["rank"]]
    assert [(g["degree"], g["rank"]) for g in nonzero] == [(0, 1), (2, 1)]


def test_generate_rejects_unknown_family(capsys):
    code, _, err = run(capsys, ["generate", "dodecahedron", "5"])
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("p", ["nan", "inf", "-0.5", "1.5"])
def test_generate_refuses_an_edge_probability_outside_the_unit_interval(capsys, monkeypatch, p):
    monkeypatch.setattr(graphs, "random_connected_graph", _refuse)
    code, out, err = run(capsys, ["generate", "random", "3", p])
    assert code == cli.EXIT_INPUT
    assert out == "" and f"edge probability in [0, 1], got {p}" in err


def test_generate_reports_an_exhausted_sampler_as_an_input_error(capsys):
    # with edge probability 0 no draw on five vertices is connected
    code, out, err = run(capsys, ["generate", "random", "5", "0"])
    assert code == cli.EXIT_INPUT
    assert out == "" and "no connected graph found" in err


@pytest.mark.parametrize("m", [0, 1, 5, 31, 32, 100, 1000, 1447])
def test_generate_bounds_the_samplers_retries_by_the_guard(capsys, monkeypatch, m):
    # every retry flips a coin per vertex pair, so the retries together
    # must stay inside the guard that one draw is checked against
    calls = []

    def spy(m, edge_probability, seed, max_attempts=2000):
        calls.append(max_attempts)
        raise RuntimeError("no connected graph found")

    monkeypatch.setattr(graphs, "random_connected_graph", spy)
    code, _, _ = run(capsys, ["generate", "random", str(m), "0.5"])
    assert code == cli.EXIT_INPUT
    (attempts,) = calls
    assert attempts >= 1
    assert attempts * (m + m * (m - 1) // 2) <= errors.MAX_SIMPLICES
    if m <= 31:
        assert attempts == 2000


def _refuse(*args, **kwargs):
    raise AssertionError("the family was built")


@pytest.mark.parametrize(
    "argv, module, builder",
    [
        (["path", "1048576"], graphs, "path_graph"),
        (["cycle", "1048576"], graphs, "cycle_graph"),
        (["complete", "1449"], graphs, "complete_graph"),
        (["grid", "1000", "1000"], graphs, "grid_graph"),
        (["simplex_boundary", "24"], complexes, "boundary_of_simplex"),
        (["simplex_boundary", "1000000000"], complexes, "boundary_of_simplex"),
        (["random", "1449", "0.5"], graphs, "random_connected_graph"),
        (["random", "21", "1", "--flag"], complexes, "flag_complex"),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, list) else None,
)
def test_generate_exits_on_the_guard_before_building(capsys, monkeypatch, argv, module, builder):
    monkeypatch.setattr(module, builder, _refuse)
    code, out, err = run(capsys, ["generate", *argv])
    assert code == cli.EXIT_GUARD
    assert out == "" and "simplices exceeds the guard" in err


@pytest.mark.parametrize("family, builder", [("cone_of", "cone"), ("suspension_of", "suspension")])
def test_generate_guards_cones_and_suspensions_of_inputs(capsys, monkeypatch, circle_path, family, builder):
    # the circle passes a guard of 12 (3 vertices and 3 edges of 2**2 - 1
    # faces each), and its cone (4 vertices, 13 simplices) does not
    monkeypatch.setattr(errors, "MAX_SIMPLICES", 12)
    monkeypatch.setattr(complexes, builder, _refuse)
    code, out, err = run(capsys, ["generate", family, circle_path])
    assert code == cli.EXIT_GUARD
    assert out == "" and "simplices exceeds the guard" in err


# --------------------------------------------------------------------------
# analysis commands: JSON schemas


def test_homology_json_golden(capsys, circle_path):
    doc = run_json(capsys, ["homology", circle_path])
    assert doc == {
        "coefficients": "Z",
        "reduced": False,
        "groups": [
            {"degree": 0, "group": "Z", "rank": 1, "torsion": []},
            {"degree": 1, "group": "Z", "rank": 1, "torsion": []},
        ],
    }


def test_homology_reduced_flag(capsys, circle_path):
    doc = run_json(capsys, ["homology", circle_path, "--reduced"])
    assert doc["reduced"] is True
    nonzero = [g for g in doc["groups"] if g["group"] != "0"]
    assert nonzero == [{"degree": 1, "group": "Z", "rank": 1, "torsion": []}]


def test_homology_table_format(capsys, circle_path):
    code, out, _ = run(capsys, ["homology", circle_path, "--format", "table"])
    assert code == cli.EXIT_OK
    assert out == "H_0 = Z\nH_1 = Z\n"


def test_uber_json_golden(capsys, circle_path):
    doc = run_json(capsys, ["uber", circle_path])
    assert doc == {
        "coefficients": "F2",
        "entries": [
            {"dim": 3, "i": 0, "j": 0, "k": 1},
            {"dim": 1, "i": 0, "j": 1, "k": 0},
            {"dim": 3, "i": 1, "j": 2, "k": 1},
            {"dim": 1, "i": 1, "j": 3, "k": 0},
        ],
    }


def test_bold_json_golden(capsys, circle_path):
    doc = run_json(capsys, ["bold", circle_path])
    assert doc == {
        "coefficients": "Z",
        "euler_characteristic": -1,
        "groups": [{"degree": 1, "group": "Z", "rank": 1, "torsion": []}],
    }


@pytest.mark.parametrize("coeff", ["z", "q", "z2"])
def test_bold_takes_the_euler_characteristic_from_its_own_table(
    capsys, monkeypatch, tmp_path, coeff
):
    def recompute(*args, **kwargs):
        raise AssertionError("bold must not compute bold homology a second time")

    monkeypatch.setattr(uber, "euler_characteristic_bold", recompute)
    for G in (graphs.cycle_graph(3), graphs.grid_graph(3, 2)):
        path = tmp_path / "graph.json"
        path.write_text(graphs.graph_to_json(G))
        doc = run_json(capsys, ["bold", str(path), "--coeff", coeff])
        assert doc["euler_characteristic"] == graphs.connected_domination_polynomial(G)(-1)


def test_domination_json_golden(capsys, circle_path):
    doc = run_json(capsys, ["domination", circle_path])
    assert doc == {
        "at_minus_one": -1,
        "coefficients": [0, 3, 3, 1],
        "polynomial": "3t + 3t^2 + t^3",
        "vertex_count": 3,
    }


def test_domination_prune_matches_plain(capsys, circle_path):
    assert run_json(capsys, ["domination", circle_path]) == run_json(
        capsys, ["domination", circle_path, "--prune"]
    )


def test_domination_prune_matches_plain_at_17_vertices(capsys, tmp_path):
    path = tmp_path / "random-17.json"
    path.write_text(graphs.graph_to_json(graphs.random_connected_graph(17, 0.3, 1)))
    plain = run_json(capsys, ["domination", str(path), "--max-vertices", "17"])
    pruned = run_json(capsys, ["domination", str(path), "--prune", "--max-vertices", "17"])
    assert plain["coefficients"] == pruned["coefficients"]
    assert sum(plain["coefficients"]) > 0


def test_mvss_json_golden(capsys, circle_path):
    doc = run_json(capsys, ["mvss", circle_path, "--coeff", "q"])
    assert doc["augmented"] is True
    assert doc["converged_at"] == 3
    assert doc["abutment"] == {}
    assert [p["page"] for p in doc["pages"]] == [1, 2, 3]
    assert doc["pages"][1] == {
        "cells": [{"dim": 1, "p": -1, "q": 1}, {"dim": 1, "p": 1, "q": 0}],
        "differentials": [{"from": [1, 0], "rank": 1, "to": [-1, 1]}],
        "page": 2,
    }
    assert doc["pages"][2] == {"cells": [], "differentials": [], "page": 3}


def test_mvss_unaugmented_abuts_to_homology(capsys, circle_path):
    doc = run_json(capsys, ["mvss", circle_path, "--coeff", "q", "--unaugmented"])
    assert doc["augmented"] is False
    assert doc["converged_at"] == 2
    assert doc["abutment"] == {"0": 1, "1": 1}


def test_command_output_is_canonical_json(capsys, circle_path):
    for argv in (
        ["homology", circle_path],
        ["uber", circle_path],
        ["bold", circle_path],
        ["domination", circle_path],
        ["mvss", circle_path, "--coeff", "z2"],
    ):
        _, out, _ = run(capsys, argv)
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# input handling


def test_reads_complex_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CIRCLE)))
    doc = run_json(capsys, ["homology", "-"])
    assert doc["groups"][1]["group"] == "Z"


def test_edges_input_is_accepted(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertex_count": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    doc = run_json(capsys, ["bold", str(path)])
    assert doc["groups"] == []
    assert doc["euler_characteristic"] == 0


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, ["homology", "/nonexistent/thing.json"])
    assert code == cli.EXIT_INPUT
    assert "error:" in err


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "doc",
    [{"vertex_count": 30, "facets": [list(range(30))]}, {"vertex_count": 10**9, "facets": []}],
    ids=["big-facet", "many-vertices"],
)
def test_oversized_json_complex_exits_on_the_guard(capsys, monkeypatch, tmp_path, doc):
    def refuse(*args):
        raise AssertionError("the closure was enumerated")

    monkeypatch.setattr(complexes, "build_complex", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_GUARD
    assert out == "" and "simplices exceeds the guard" in err


def test_labels_that_do_not_match_the_vertex_count_are_an_input_error(capsys, tmp_path):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({**CIRCLE, "labels": ["a", "b"]}))
    code, out, err = run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "labels must match vertex_count" in err


def test_labels_given_as_a_string_are_an_input_error(capsys, tmp_path):
    # "abc" has the vertex count's length, but it is not a list of labels
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({**CIRCLE, "labels": "abc"}))
    code, out, err = run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "invalid complex document" in err and "JSON array" in err


@pytest.mark.parametrize(
    "labels, message",
    [
        (["a", None, "c"], "not a JSON string or number"),
        (["a", [1], "c"], "not a JSON string or number"),
        (["a", {"a": 2}, "c"], "not a JSON string or number"),
        (["a", True, "c"], "not a JSON string or number"),
        (["a", "a", "c"], "labels must be distinct"),
        (["a", 1, "1"], "labels must be distinct"),
    ],
    ids=["null", "array", "object", "bool", "repeated", "repeated-as-text"],
)
def test_labels_that_are_not_distinct_strings_or_numbers_are_an_input_error(capsys, tmp_path, labels, message):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({**CIRCLE, "labels": labels}))
    code, out, err = run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "invalid complex document" in err and message in err


# int() would read 3.9 as 3 and "3" as 3; a JSON integer is the only count
@pytest.mark.parametrize("count", [3.9, 3.0, "3", True], ids=["float", "integral-float", "string", "bool"])
def test_a_complex_vertex_count_that_is_not_a_json_integer_is_an_input_error(capsys, tmp_path, count):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**CIRCLE, "vertex_count": count}))
    code, out, err = run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "'vertex_count' must be a JSON integer" in err


@pytest.mark.parametrize("count", [2.9, 2.0, "2", True], ids=["float", "integral-float", "string", "bool"])
def test_a_graph_vertex_count_that_is_not_a_json_integer_is_an_input_error(capsys, tmp_path, count):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertex_count": count, "edges": [[0, 1]]}))
    code, out, err = run(capsys, ["domination", str(path)])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "'vertex_count' must be a JSON integer" in err


# a float or a bool is not a vertex id, in a facet or in an edge: 1.0 used to
# crash every cube and page command and true was read as vertex 1
@pytest.mark.parametrize("vertex", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("kind", ["facets", "edges"])
@pytest.mark.parametrize(
    "command",
    [["homology"], ["bold"], ["uber"], ["mvss"], ["domination"], ["verify", "--theorem", "identification"]],
    ids=lambda c: c[0],
)
def test_a_vertex_id_that_is_not_a_json_integer_is_an_input_error(capsys, tmp_path, vertex, kind, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"vertex_count": 3, kind: [[0, vertex], [1, 2]]}))
    code, out, err = run(capsys, [command[0], str(path), *command[1:]])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and f"vertex id {vertex!r}" in err


# half the ids are JSON ints, so most documents are nearly valid
_JSON_ID = st.one_of(
    st.integers(-1, 5),
    st.one_of(
        st.integers(-1, 5).map(float),
        st.floats(-1, 5, allow_nan=False),
        st.booleans(),
        st.text(alphabet="01a", max_size=2),
        st.none(),
    ),
)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["facets", "edges"]),
    count=st.one_of(st.integers(0, 5), _JSON_ID),
    items=st.lists(st.lists(_JSON_ID, max_size=3), max_size=4),
)
def test_loaders_never_crash_a_command(tmp_path_factory, kind, count, items):
    # whatever ids and counts a small document mixes, every command exits
    # with success, an input error or the size guard, and raises nothing
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps({"vertex_count": count, kind: items}))
    for command in (["homology"], ["bold"], ["uber"], ["mvss", "--coeff", "z2"], ["domination"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command[0], str(path), *command[1:]])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_GUARD), (command, count, items)


def test_unknown_coefficients_are_rejected_by_the_parser(capsys, circle_path):
    code, _, _ = run(capsys, ["homology", circle_path, "--coeff", "z4"])
    assert code == 2


def test_oversized_json_graph_exits_on_the_guard(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(graphs, "Graph", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertex_count": 10**9, "edges": []}))
    code, out, err = run(capsys, ["domination", str(path)])
    assert code == cli.EXIT_GUARD
    assert out == "" and "simplices exceeds the guard" in err


def test_characteristics_from_2_to_the_64_are_rejected_by_the_parser(capsys, circle_path):
    code, _, err = run(capsys, ["homology", circle_path, "--coeff", "p:18446744073709551629"])
    assert code == 2
    assert "below 2**64" in err


def test_integer_coefficients_are_refused_where_fields_are_needed(
    capsys, circle_path
):
    code, _, err = run(capsys, ["mvss", circle_path, "--coeff", "z"])
    assert code == cli.EXIT_INPUT
    assert "field coefficients" in err


# --------------------------------------------------------------------------
# size guards


def test_exponential_commands_respect_the_guard_flag(capsys, circle_path):
    for argv in (
        ["uber", circle_path, "--max-vertices", "2"],
        ["bold", circle_path, "--max-vertices", "2"],
        ["mvss", circle_path, "--coeff", "q", "--max-vertices", "2"],
        ["verify", "--theorem", "identification", circle_path, "--max-vertices", "2"],
    ):
        code, _, err = run(capsys, argv)
        assert code == cli.EXIT_GUARD


def test_guard_default_comes_from_the_environment(capsys, monkeypatch, circle_path):
    monkeypatch.setenv("UBERHOM_MAX_VERTICES", "2")
    code, _, _ = run(capsys, ["uber", circle_path])
    assert code == cli.EXIT_GUARD
    monkeypatch.setenv("UBERHOM_MAX_VERTICES", "10")
    code, _, _ = run(capsys, ["uber", circle_path])
    assert code == cli.EXIT_OK


def test_homology_takes_no_guard_option(capsys, circle_path):
    # homology has no exponential step, so there is no guard to set
    code, out, err = run(capsys, ["homology", circle_path, "--max-vertices", "1"])
    assert code == 2 and out == "" and "--max-vertices" in err


def test_a_bad_guard_in_the_environment_leaves_homology_alone(capsys, monkeypatch, circle_path):
    expected = run_json(capsys, ["homology", circle_path])
    monkeypatch.setenv("UBERHOM_MAX_VERTICES", "abc")
    assert run_json(capsys, ["homology", circle_path]) == expected
    code, _, err = run(capsys, ["uber", circle_path])
    assert code == cli.EXIT_INPUT and "UBERHOM_MAX_VERTICES" in err


# --------------------------------------------------------------------------
# verify


def test_verify_single_input_passes(capsys, circle_path):
    doc = run_json(capsys, ["verify", "--theorem", "identification", circle_path])
    assert doc["ok"] is True
    assert doc["results"][0]["status"] == "PASS"
    assert doc["results"][0]["detail"]["table"] == {"1,0": [1, 1], "3,1": [1, 1]}


def test_verify_euler_on_circle(capsys, circle_path):
    doc = run_json(capsys, ["verify", "--theorem", "euler", circle_path])
    assert doc["ok"] is True
    detail = doc["results"][0]["detail"]
    assert detail["euler_characteristic_minus_one"] == -1
    assert detail["signed_domination_at_minus_one"] == -1


def test_verify_euler_skips_when_hypotheses_fail(capsys, capped_square_path):
    # the capped square's anti-star cover is not 1-Leray; both sides are
    # still reported, and they genuinely differ
    doc = run_json(capsys, ["verify", "--theorem", "euler", capped_square_path])
    assert doc["ok"] is True
    result = doc["results"][0]
    assert result["status"] == "SKIP"
    assert result["detail"]["signed_domination_at_minus_one"] == 1
    assert result["detail"]["euler_characteristic_minus_one"] == 0


def test_verify_table_format(capsys, circle_path):
    code, out, _ = run(
        capsys, ["verify", "--theorem", "identification", circle_path, "--format", "table"]
    )
    assert code == cli.EXIT_OK
    assert out == "PASS  input\nall checks passed\n"


def test_verify_skip_table_shows_both_sides(capsys, capped_square_path):
    code, out, _ = run(
        capsys, ["verify", "--theorem", "euler", capped_square_path, "--format", "table"]
    )
    assert code == cli.EXIT_OK
    assert out.splitlines() == [
        "SKIP  input (anti-star cover is not 1-Leray)",
        "      signed domination value 1 vs reduced euler characteristic 0",
        "all checks passed",
    ]


@pytest.mark.parametrize(
    "theorem, doc, reason",
    [
        ("trianglefree", {"vertex_count": 1, "edges": []}, "graph has fewer than three vertices"),
        ("trianglefree", {"vertex_count": 2, "edges": [[0, 1]]}, "graph has fewer than three vertices"),
        ("cone", {"vertex_count": 0, "facets": []}, "complex is empty"),
    ],
    ids=["trianglefree-K1", "trianglefree-K2", "cone-empty"],
)
def test_verify_skips_inputs_outside_the_statement(capsys, tmp_path, theorem, doc, reason):
    # inputs that a statement does not cover are skipped, not failed: K2's
    # bold homology is Z at level 1, outside the triangle-free statement
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    result = run_json(capsys, ["verify", "--theorem", theorem, str(path)])
    assert result["ok"] is True
    assert [(r["status"], r["detail"]) for r in result["results"]] == [("SKIP", {"reason": reason})]


_PAGE_CORPUS = [
    "triangle-boundary",
    "tetrahedron-boundary",
    "cone-of-square",
    "glued-triangles",
    "path-4",
    "cycle-5",
    "random-6-seed-1",
    "random-7-seed-2",
]
_CORPUS_PASSES = {
    "identification": _PAGE_CORPUS,
    "abutment": _PAGE_CORPUS,
    "euler": [f"flag-of-chordal-seed-{seed}" for seed in range(1, 6)],
    "cone": ["triangle-boundary", "cycle-4", "cycle-5", "path-4"],
    "suspension": ["triangle-boundary", "full-triangle", "path-3"],
    "trianglefree": ["cycle-4", "cycle-5", "cycle-6", "grid-3x2"],
    "categorification": ["complete-3", "complete-4", "cycle-5", "wheel-4", "grid-3x2", "random-6-seed-3"],
}


@pytest.mark.parametrize(
    "theorem, coeff",
    [(theorem, coeff) for theorem in _CORPUS_PASSES for coeff in ("z2", "q", "p:3")]
    + [("euler", "z"), ("categorification", "z")],
)
def test_verify_passes_every_theorem_on_its_corpus(capsys, theorem, coeff):
    doc = run_json(capsys, ["verify", "--theorem", theorem, "--coeff", coeff])
    assert doc["ok"] is True
    verdicts = [(r["name"], r["status"], r["detail"].get("reason")) for r in doc["results"]]
    expected = [(name, "PASS", None) for name in _CORPUS_PASSES[theorem]]
    if theorem == "euler":
        expected.append(("cone-of-square", "SKIP", "anti-star cover is not 1-Leray"))
    assert verdicts == expected


def test_verify_skips_corpus_inputs_over_the_guard_and_refuses_a_single_one(capsys, circle_path):
    doc = run_json(capsys, ["verify", "--theorem", "identification", "--max-vertices", "5"])
    assert doc["ok"] is True
    statuses = {r["name"]: r["status"] for r in doc["results"]}
    assert statuses == {name: "SKIP" if name.startswith("random-") else "PASS" for name in _PAGE_CORPUS}
    for r in doc["results"]:
        if r["status"] == "SKIP":
            assert r["detail"]["reason"].startswith("size guard: ")
    code, out, err = run(capsys, ["verify", "--theorem", "identification", circle_path, "--max-vertices", "2"])
    assert code == cli.EXIT_GUARD
    assert out == "" and "size guard exceeded" in err


@pytest.mark.parametrize("theorem", sorted(cli._CHECKS))
def test_verify_exits_on_the_guard_before_building(capsys, monkeypatch, tmp_path, theorem):
    # a connected, triangle-free non-simplex, so every check reaches its guard
    path = tmp_path / "path.json"
    path.write_text(graphs.graph_to_json(graphs.path_graph(6)))
    monkeypatch.setattr(complexes, "anti_star_cover", _refuse)
    monkeypatch.setattr(mvss, "double_complex", _refuse)
    code, out, err = run(capsys, ["verify", "--theorem", theorem, str(path), "--max-vertices", "5"])
    assert code == cli.EXIT_GUARD
    assert out == "" and "size guard exceeded" in err


def test_verify_has_no_jobs_option(capsys):
    code, out, _ = run(capsys, ["verify", "--theorem", "cone", "--jobs", "2"])
    assert code == 2 and out == ""


def test_the_one_pass_leray_check_agrees_with_the_anti_star_cover():
    # the former route: every anti-star's induced subcomplexes, one anti-star at a time
    inputs = [X for _, X in cli._corpus("euler")]
    inputs += [cli._capped_square_complex(), complexes.boundary_of_simplex(4)]
    inputs += [complexes.complex_from_graph(graphs.cycle_graph(n)) for n in range(4, 8)]
    for m in range(3, 8):
        for seed in range(1, 6):
            inputs.append(complexes.random_connected_complex(m, seed))
            inputs.append(complexes.flag_complex(graphs.random_connected_graph(m, 0.5, seed)))
    verdicts = []
    for X in inputs:
        if X.is_standard_simplex():
            continue
        reference = all(complexes.is_d_leray(e, 1) for e in complexes.anti_star_cover(X).elements)
        assert cli._cover_is_one_leray(X) == reference, X
        verdicts.append(reference)
    assert verdicts.count(True) and verdicts.count(False)


def test_verify_needs_field_coefficients_for_homological_checks(capsys, circle_path):
    code, _, err = run(
        capsys, ["verify", "--theorem", "identification", circle_path, "--coeff", "z"]
    )
    assert code == cli.EXIT_INPUT
    assert "field coefficients" in err


def test_verify_unknown_theorem_is_a_parser_error(capsys, circle_path):
    code, _, _ = run(capsys, ["verify", "--theorem", "pythagoras", circle_path])
    assert code == 2
