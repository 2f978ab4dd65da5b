"""Command-line interface: output schemas, exit codes, guards."""

from __future__ import annotations

import io
import json

import pytest

from uberhom import cli, complexes, graphs, uber


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


def test_unknown_coefficients_are_rejected_by_the_parser(capsys, circle_path):
    code, _, _ = run(capsys, ["homology", circle_path, "--coeff", "z4"])
    assert code == 2


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


def test_verify_corpus_run_with_workers(capsys):
    doc = run_json(capsys, ["verify", "--theorem", "cone", "--jobs", "2"])
    assert doc["ok"] is True
    assert len(doc["results"]) >= 4
    assert all(r["status"] in ("PASS", "SKIP") for r in doc["results"])


def test_verify_starts_no_more_workers_than_inputs_or_cpus(capsys, monkeypatch):
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    doc = run_json(capsys, ["verify", "--theorem", "cone", "--jobs", "64"])
    assert recorded == [len(doc["results"])] == [4]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    run_json(capsys, ["verify", "--theorem", "cone", "--jobs", "64"])
    assert recorded == [4]


def test_verify_needs_field_coefficients_for_homological_checks(capsys, circle_path):
    code, _, err = run(
        capsys, ["verify", "--theorem", "identification", circle_path, "--coeff", "z"]
    )
    assert code == cli.EXIT_INPUT
    assert "field coefficients" in err


def test_verify_unknown_theorem_is_a_parser_error(capsys, circle_path):
    code, _, _ = run(capsys, ["verify", "--theorem", "pythagoras", circle_path])
    assert code == 2
