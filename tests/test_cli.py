import json
import pathlib
import shlex

import pytest

import oigraph
from oigraph import graph as graph_module
from oigraph.cli import main
from oigraph.gf import GF
from oigraph.geometry import space_make
from oigraph.graph import build_graph, graph_from_json
from oigraph.verify import STATUS_FAIL, STATUS_PASS, CheckRecord, VerifyReport


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands():
    """(argv, shown output) of each `$ oigraph ...` line of the README's
    "Command line" block that shows output."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```console\n", 1)[1].split("```", 1)[0]
    cases = []
    for line in block.splitlines():
        if line.startswith("$ oigraph "):
            cases.append([shlex.split(line.removeprefix("$ oigraph "), comments=True), ""])
        elif line:
            cases[-1][1] += line + "\n"
    return [(argv, shown) for argv, shown in cases if shown]


def test_readme_command_line_block(capsys):
    cases = readme_commands()
    assert [argv[0] for argv, _ in cases] == ["build", "classify", "diameter"]
    for argv, shown in cases:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, shown), argv


def test_pyproject_version_is_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == oigraph.__version__


def test_build_counts_line(capsys):
    code, out, err = run(capsys, "build", "--nu", "2", "--delta", "0", "--field", "3")
    assert code == 0
    assert out == "Oi(4, 3): 210 vertices, 873 edges, 24 loops\n"


def test_build_json_artifact_round_trip(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, out, _ = run(
        capsys, "build", "--nu", "1", "--delta", "1", "--disc", "z", "--field", "3",
        "--out", str(path),
    )
    assert code == 0
    assert out == "Oi(3, 3)[z]: 26 vertices, 37 edges, 4 loops\n"
    g = graph_from_json(path.read_text())
    assert g == build_graph(space_make(1, 1, GF(3), "z"))


def test_build_json_stdout_keeps_counts_on_stderr(capsys):
    code, out, err = run(
        capsys, "build", "--nu", "1", "--delta", "0", "--field", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4
    assert "4 vertices" in err


def test_build_dot_deterministic(capsys):
    args = ("build", "--nu", "1", "--delta", "0", "--field", "3", "--format", "dot")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "// generated by oigraph" in first
    _, bare, _ = run(capsys, *args, "--no-header")
    assert "//" not in bare


def test_build_even_characteristic_usage_error(capsys):
    code, _, err = run(capsys, "build", "--nu", "1", "--delta", "0", "--field", "2")
    assert code == 2
    assert "odd prime power" in err


def test_build_budget_exit(capsys):
    code, _, err = run(
        capsys, "build", "--nu", "2", "--delta", "0", "--field", "3", "--budget", "100"
    )
    assert code == 3
    assert "budget" in err


def test_build_bytes_budget_exit(capsys, monkeypatch):
    # Oi(5,7): within the vertex budget, over the byte ceiling; the budget
    # check must come before any vertex is enumerated
    def rref_bases(*args):
        raise AssertionError("vertices enumerated past the byte budget")

    monkeypatch.setattr(graph_module, "rref_bases", rref_bases)
    code, _, err = run(capsys, "build", "--nu", "2", "--delta", "1", "--field", "7")
    assert code == 3
    assert "bytes" in err


def test_build_point_table_bytes_exit(capsys, monkeypatch):
    # Oi(2,101): 102 * 13 = 1326 bytes of rows, but the vector-code table
    # of the points takes 4 * 101^2 = 40804 bytes and the uint8 field
    # tables 2 * 101^2 + 3 * 101 = 20705, all in the one sum
    monkeypatch.setattr(graph_module, "MAX_ADJACENCY_BYTES", 1326 + 40804 + 20705 - 1)
    code, _, err = run(capsys, "build", "--nu", "1", "--field", "101")
    assert code == 3
    assert "62835 bytes" in err
    monkeypatch.setattr(graph_module, "MAX_ADJACENCY_BYTES", 1326 + 40804 + 20705)
    assert run(capsys, "build", "--nu", "1", "--field", "101")[0] == 0


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("OIGRAPH_BUDGET", "50")
    code, _, _ = run(capsys, "build", "--nu", "2", "--delta", "0", "--field", "3")
    assert code == 3


def test_classify_dim1_rows(capsys):
    code, out, _ = run(
        capsys, "classify", "--nu", "2", "--delta", "0", "--field", "3", "--dim", "1"
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 3
    assert sum(r["count"] for r in rows) == 40


def test_classify_csv(capsys):
    code, out, _ = run(
        capsys, "classify", "--nu", "2", "--delta", "0", "--field", "3", "--dim", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# oigraph classify")
    assert lines[1] == "dim,type,count"
    assert len(lines) == 5


def test_classify_dim_out_of_range_usage_error(capsys):
    for dim in ("0", "4", "9"):
        code, out, err = run(
            capsys, "classify", "--nu", "2", "--delta", "0", "--field", "3", "--dim", dim
        )
        assert code == 2 and out == ""
        assert "out of range 1..3" in err


def test_classify_deterministic(capsys):
    args = ("classify", "--nu", "1", "--delta", "1", "--field", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--nu", "1", "--delta", "1", "--field", "3")
    assert code == 0
    payload = json.loads(out)
    assert sum(o["size"] for o in payload["orbits"]) == 26
    assert len(payload["orbits"]) == 6


def test_diameter_infinite(capsys):
    code, out, _ = run(capsys, "diameter", "--nu", "1", "--delta", "0", "--field", "3")
    assert code == 0
    assert json.loads(out) == {"space": "Oi(2, 3)", "diameter": "infinite"}


def test_diameter_finite(capsys):
    code, out, _ = run(capsys, "diameter", "--nu", "2", "--delta", "0", "--field", "3")
    assert code == 0
    assert json.loads(out)["diameter"] == 4


def test_aut_formula(capsys):
    code, out, _ = run(
        capsys, "aut", "--method", "formula", "--nu", "1", "--delta", "0", "--field", "9"
    )
    assert code == 0
    assert json.loads(out) == {"order": 768}


def test_aut_formula_uncovered(capsys):
    code, _, err = run(
        capsys, "aut", "--method", "formula", "--nu", "1", "--delta", "1", "--field", "3"
    )
    assert code == 2
    assert "uncovered" in err


def test_aut_formula_rejects_what_build_rejects(capsys):
    bad = (
        ("--nu", "2", "--delta", "0", "--disc", "z", "--field", "3"),
        ("--nu", "1", "--delta", "0", "--field", "9", "--modulus", "0,0,1"),
    )
    for flags in bad:
        for method in ("formula", "generated"):
            code, out, err = run(capsys, "aut", "--method", method, *flags)
            assert code == 2 and out == "", (method, flags)
            assert err.startswith("oigraph: ")


def test_aut_formula_large_fields(capsys):
    # no q x q table is built: GF(3^10)'s would need 14 GB
    orders = {
        "59049": 211955791254504362998336800000,
        "1000003": 1000018000133000516001108001248000576,
    }
    for field, order in orders.items():
        code, out, _ = run(
            capsys, "aut", "--method", "formula", "--nu", "2", "--delta", "0", "--field", field
        )
        assert code == 0
        assert json.loads(out) == {"order": order}


def test_aut_generated(capsys):
    code, out, _ = run(capsys, "aut", "--nu", "2", "--delta", "0", "--field", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 576
    assert set(payload) == {"order", "base", "transversal-sizes"}
    prod = 1
    for s in payload["transversal-sizes"]:
        prod *= s
    assert prod == 576
    assert len(payload["base"]) == len(payload["transversal-sizes"])


def test_aut_search(capsys):
    code, out, _ = run(
        capsys, "aut", "--method", "search", "--nu", "1", "--delta", "0", "--field", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 16
    assert set(payload) == {"order", "generators", "node-count", "runtime"}
    assert all(sorted(gen) == list(range(6)) for gen in payload["generators"])


def test_aut_search_prints_vertex_automorphisms(capsys):
    # The search runs on the points; the printed generators are their lifts.
    code, out, _ = run(capsys, "aut", "--method", "search", "--nu", "2", "--delta", "0", "--field", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["order"], payload["node-count"]) == (1152, 18)
    g = build_graph(space_make(2, 0, GF(3)))
    assert payload["generators"]
    assert all(g.is_automorphism(gen) for gen in payload["generators"])


def test_aut_search_oi53_at_the_default_budget(capsys):
    # 2662 vertices, above the default search budget of 2000, but the search
    # runs on the 121 points
    code, out, _ = run(capsys, "aut", "--method", "search", "--nu", "2", "--delta", "1", "--field", "3")
    assert code == 0
    assert json.loads(out)["order"] == 51840


def test_aut_budget_help_names_both_units(capsys):
    # aut --method search passes --budget to the build (vertices) and to the
    # search (points)
    code, out, _ = run(capsys, "aut", "--help")
    assert code == 0
    assert "vertex budget, and aut --method search's point budget" in " ".join(out.split())


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def _stub_report(ok):
    status = STATUS_PASS if ok else STATUS_FAIL
    rec = CheckRecord("stub", "derived oracle", 1, 1 if ok else 2, status, 0.1)
    return VerifyReport(suite="core", records=[rec])


def test_verify_exit_codes(capsys, monkeypatch):
    import oigraph.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: _stub_report(True))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "0 failed" in out

    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: _stub_report(False))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "expected 1, computed 2" in out


def test_verify_json_format(capsys, monkeypatch):
    import oigraph.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: _stub_report(True))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "core"
    assert payload["checks"][0]["name"] == "stub"


def test_verify_forwards_flags(capsys, monkeypatch):
    import oigraph.cli as cli_mod

    seen = {}

    def fake(suite, budget=None):
        seen.update(suite=suite, budget=budget)
        return _stub_report(True)

    monkeypatch.setattr(cli_mod, "run_suite", fake)
    code, _, _ = run(capsys, "verify", "--suite", "extended", "--budget", "5000")
    assert code == 0
    assert seen == {"suite": "extended", "budget": 5000}
