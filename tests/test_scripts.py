"""Smoke tests: the scripts in scripts/ run end to end from the repo root,
and the README's library example runs and prints what it says."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_type_census_script():
    lines = run_script("type_census.py", "1", "1", "9", "z")
    assert lines[0] == "Oi(3, 9)[z]: 182 vertices, 541 edges, 10 loops"
    assert "dim 1: 91 vertices (gaussian binomial 91)" in lines
    assert "  type (1, 0, 0, ''): 10  (10 loops)" in lines
    assert "  type (2, 2, 1, ''): 45" in lines


def test_order_survey_script():
    lines = run_script("order_survey.py", "300")
    rows = {line[:14].strip(): line.split()[-5:] for line in lines[2:] if "skipped" not in line}
    assert rows["Oi(2, 9)"] == ["10", "16", "768", "768", "48x"]
    assert rows["Oi(3, 3)[z]"] == ["26", "24", "-", "24", "1x"]
    assert lines[-1] == "Oi(5, 3)[one]  skipped: instance needs 2662 vertices, budget is 300"


def test_distance_profile_script():
    assert run_script("distance_profile.py", "1", "1", "3") == [
        "Oi(3, 3)[one]: 26 vertices, 4 loops excluded from paths",
        "pair distance histogram:",
        "            1: 21",
        "            2: 60",
        "            3: 96",
        "            4: 54",
        "witness geodesic of length 4:",
        "  v13 = ((0, 1, 0), (0, 0, 1))",
        "  v1 = ((0, 1, 0),)",
        "  v0 = ((0, 0, 1),)",
        "  v4 = ((1, 0, 0),)",
        "  v14 = ((1, 0, 0), (0, 0, 1))",
    ]


def test_benchmark_smoke():
    # the benchmark's self-check runs the library calls its sessions make
    # on Oi(4,3), so retiring one of them fails here; it writes no files
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(": ok"), proc.stderr


def test_readme_library_block():
    # each expression line's comment starts with the repr of its value
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        try:
            expr = compile(code.strip(), "README.md", "eval")
        except SyntaxError:
            exec(code, env)
            continue
        assert repr(eval(expr, env)) == comment.strip().split("  ")[0], line
        checked += 1
    assert checked == 5
