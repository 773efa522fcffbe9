"""oigraph benchmark: library sessions timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload prime-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --smoke             # self-check of the oracle path

A run is one session in a fresh single-threaded process (``session.py``),
so peak RSS and set-up (import, field tables, ``build_graph``) are paid
anew.  The session repeats the workload's question set while another pass
fits in ``--seconds`` (at least one pass); ``answer_s`` is the median pass.
Set-up is sampled again in set-up-only processes until the workload's
sample count is reached, and the median is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
traced pass and reports the per-layer metrics from its spans, its
``answer_s`` (compare with an untraced run) and the measured cost of the
spans themselves.  Every answer is checked against ``oracle.json``; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  A full
record (machine, per-instance metrics, spans) goes to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ORACLE = os.path.join(HERE, "oracle.json")
OUT = os.path.join(HERE, "out")
SESSION_TIMEOUT_S = 170

# Span name -> per-layer time metric.
SPAN_METRIC = {
    "graph.build_graph": "graph.build_s",
    "graph.OiGraph.adjacency_matrix": "graph.adjacency_matrix_s",
    "graph.OiGraph.diameter": "graph.diameter_s",
    "geometry.classify_type": "geometry.classify_s",
    "symmetry.po_e_generators": "symmetry.generators_s",
    "symmetry.PermGroup": "symmetry.chain_s",
    "symmetry.vertex_orbits": "symmetry.orbits_s",
    "autsearch.search_result": "autsearch.search_s",
}
VERIFY_CHECKS = (
    "connectivity-diameter",
    "witt-oracle-agreement",
    "edge-orbits-are-type-triples",
    "delta2-minus-one-nonsquare",
)


class SessionError(RuntimeError):
    pass


def session_env():
    """The caller's environment minus every OIGRAPH_* knob, hash seed pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OIGRAPH")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workload, seed, seconds=0.0, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=session_env(), capture_output=True,
                              text=True, timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SessionError(f"{workload} session exceeded {SESSION_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise SessionError(f"{workload} session exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["t_setup_done"] - t_spawn
    return out


def check(answers, keys, oracle):
    """Keys whose answer is missing (the question raised) or differs."""
    return [k for k in keys if k not in answers or answers[k] != oracle[k]]


# -- per-layer metrics -------------------------------------------------------

PER_LAYER = (
    # name, unit, better
    ("graph.build_s", "s", "lower"),
    ("graph.build_vertices_per_s", "1/s", "higher"),
    ("graph.vertices", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("graph.loops", "count", "higher"),
    ("graph.build_peak_rss_mb", "MB", "lower"),
    ("graph.adjacency_matrix_s", "s", "lower"),
    ("graph.diameter_s", "s", "lower"),
    ("geometry.classify_s", "s", "lower"),
    ("geometry.classify_us_per_vertex", "us", "lower"),
    ("geometry.types", "count", "higher"),
    ("symmetry.generators_s", "s", "lower"),
    ("symmetry.generators", "count", "lower"),
    ("symmetry.perm_us_per_vertex", "us", "lower"),
    ("symmetry.chain_s", "s", "lower"),
    ("symmetry.base_length", "count", "lower"),
    ("symmetry.orbits_s", "s", "lower"),
    ("autsearch.search_s", "s", "lower"),
    ("autsearch.search_core_s", "s", "lower"),
    ("autsearch.nodes", "count", "lower"),
    ("autsearch.nodes_per_s", "1/s", "higher"),
    ("autsearch.gens_per_node", "ratio", "higher"),
    *((f"verify.check.{c}_s", "s", "lower") for c in VERIFY_CHECKS),
    ("verify.checks_failed", "count", "lower"),
    ("verify.checks_outside", "count", "lower"),
    ("trace.answer_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _with_rates(m):
    """Add the derived rates to a dict of summed times and counts."""
    m["graph.build_vertices_per_s"] = _ratio(m["graph.vertices"], m["graph.build_s"])
    m["geometry.classify_us_per_vertex"] = _ratio(m["geometry.classify_s"], m["classified"], 1e6)
    m["symmetry.perm_us_per_vertex"] = _ratio(m["symmetry.generators_s"], m["perm_points"], 1e6)
    m["autsearch.nodes_per_s"] = _ratio(m["autsearch.nodes"], m["autsearch.search_core_s"])
    m["autsearch.gens_per_node"] = _ratio(m["search_generators"], m["autsearch.nodes"])
    return m


def layer_metrics(traced):
    """(workload-level metrics, per-instance metrics) from a traced session."""
    per = defaultdict(lambda: defaultdict(int))
    for s in traced["spans"]:
        metric = SPAN_METRIC.get(s["name"])
        if metric:
            per[s["instance"]][metric] += s["end"] - s["start"]
    for iid, f in traced["facts"].items():
        if iid != "verify-core":
            for k, v in f.items():
                per[iid][k] += v
    total = defaultdict(int)
    for m in per.values():
        for k, v in m.items():
            total[k] += v
    total = _with_rates(total)
    records = traced["facts"].get("verify-core", {})
    for c in VERIFY_CHECKS:
        total[f"verify.check.{c}_s"] = records.get(c, {}).get("seconds", 0.0)
    total["verify.checks_failed"] = sum(r["status"] == "fail" for r in records.values())
    total["verify.checks_outside"] = sum(r["status"] == "outside-paper-coverage" for r in records.values())
    total["graph.build_peak_rss_mb"] = traced["build_peak_rss_mb"]
    total["trace.answer_s"] = traced["pass_s"][0]
    total["trace.overhead_s"] = traced["trace_overhead_s"]
    per_instance = {}
    for iid, m in sorted(per.items()):
        _with_rates(m)
        per_instance[iid] = {k: m[k] for k, _, _ in PER_LAYER if m.get(k)}
    return {name: total[name] for name, _, _ in PER_LAYER}, per_instance


def self_times(spans):
    """Per span name: calls, total seconds and self seconds (minus children)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        d = s["end"] - s["start"]
        o = out[s["name"]]
        o["calls"] += 1
        o["total_s"] += d
        o["self_s"] += d - child[s["id"]]
    return dict(out)


# -- provenance ---------------------------------------------------------------


def machine():
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _git_commit():
    """HEAD of a git checkout, read from .git without running git; None otherwise."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "oigraph")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# -- one benchmark run --------------------------------------------------------


def run_workload(name, seed, seconds, trace, oracle):
    plan, setup_samples = wl.WORKLOADS[name]
    keys = wl.answer_keys(plan, oracle)
    s = spawn(name, seed, seconds, trace=trace)
    mismatches = {}
    for i, answers in enumerate(s["answers"]):
        for k in check(answers, keys, oracle):
            mismatches[f"pass{i}:{k}"] = answers.get(k, "no answer")
    result = {
        "correct": not mismatches,
        "attempted": len(keys) * len(s["answers"]),
        "failed": len(mismatches),
    }
    record = {"workload": name, "seed": seed, "trace": int(trace), "machine": machine(),
              "pass_s": s["pass_s"], "mismatches": mismatches, "errors": s["errors"]}
    if trace:
        metrics, per_instance = layer_metrics(s)
        record.update(per_instance=per_instance, self_times=self_times(s["spans"]), spans=s["spans"])
        units = UNITS
    else:
        setups = [s["setup_s"]]
        while len(setups) < setup_samples:
            setups.append(spawn(name, seed, setup_only=True)["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "answer_s": statistics.median(s["pass_s"]),
            "peak_rss_mb": s["peak_rss_mb"],
        }
        record["setup_samples_s"] = setups
        units = {"setup_s": "s", "answer_s": "s", "peak_rss_mb": "MB"}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["result"] = result
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    _report(record, per_instance if trace else None)
    return result


def _report(record, per_instance):
    r = record["result"]
    err = sys.stderr
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['pass_s'])}  failed_share {r['failed']}/{r['attempted']} "
          f"= {r['failed'] / r['attempted']:g}", file=err)
    for k, m in r["metrics"].items():
        print(f"   {k:<44} {m['value']:>14.6g} {m['unit']}", file=err)
    for iid, m in (per_instance or {}).items():
        print(f"   [{iid}]", file=err)
        for k, v in m.items():
            print(f"     {k:<42} {v:>14.6g} {UNITS[k]}", file=err)
    for k, v in record["mismatches"].items():
        print(f"   MISMATCH {k}: {str(v)[:200]}", file=err)
    for k, v in record["errors"].items():
        print(f"   RAISED {k}: {v[:200]}", file=err)


def smoke(oracle) -> bool:
    """Oi(4,3) through every question kind, traced: the oracle must pass it,
    one deliberately wrong expected value must count as exactly one failure,
    and the per-layer reduction must see the instance's vertices."""
    keys = wl.answer_keys(wl.SMOKE_PLAN, oracle)
    s = spawn("smoke", 0, trace=True)
    answers = s["answers"][0]
    clean = check(answers, keys, oracle)
    wrong = dict(oracle)
    bad_key = f"{wl.instance_id(wl.OI43)}/diameter"
    wrong[bad_key] = oracle[bad_key] + 1
    dirty = check(answers, keys, wrong)
    traced_vertices = layer_metrics(s)[0]["graph.vertices"]
    ok = clean == [] and dirty == [bad_key] and traced_vertices == answers[keys[0]]["vertices"]
    print(f"smoke: {len(keys)} answers, clean failures {clean}, "
          f"with one wrong expectation {dirty}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0, help="permutes question order only")
    ap.add_argument("--seconds", type=float, default=20.0, help="time the answer passes may fill")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-check on Oi(4,3) and exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "oigraph", "__init__.py")):
        print(f"no oigraph sources under {ROOT}/src: run from a repository checkout", file=sys.stderr)
        return 2
    with open(ORACLE) as fh:
        oracle = json.load(fh)
    wl.check_instances(wl.all_instances())
    try:
        if args.smoke:
            return 0 if smoke(oracle) else 1
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), oracle) for n in names]
    except SessionError as exc:
        print(exc, file=sys.stderr)
        return 1
    for r in results:
        print(json.dumps(r))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
