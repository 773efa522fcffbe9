"""One library session of the benchmark, run in a fresh process.

The session models the README's usage: import ``oigraph``, build each
instance's graph once, then ask questions of it.  The whole question set
is one pass; passes repeat while the next one is expected to end within
``--seconds`` of the first one's start, so a workload whose pass is short
is timed more than once.  It prints one JSON object
on stdout: clock readings (``time.monotonic``, which the parent process
shares), pass times, peak RSS, each pass's answers for the oracle and the
counts the per-layer metrics need.  With ``--trace 1`` the session makes
one pass and records every public call as a span; spans stay in memory
and are printed with the result, together with what recording them cost.

    python3 perfbench/session.py --workload prime-pipeline --seed 3 --trace 0

Answers are extracted after each timed pass, so checking adds no time.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Passed explicitly so that no environment variable can change it.
VERTEX_BUDGET = 10**6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Parent-linked spans: name, instance, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str | None = None):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "instance": instance,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def overhead_s(self, calls: int = 5000) -> float:
        """Cost of the spans recorded so far, beyond tracing off: time
        ``calls`` empty spans each way and scale to the span count."""
        per = []
        for tracer in (Tracer(self.run_id), NoTracer()):
            t0 = time.monotonic()
            for _ in range(calls):
                with tracer.span("calibration", "x"):
                    pass
            per.append((time.monotonic() - t0) / calls)
        return max(per[0] - per[1], 0.0) * len(self.spans)


class NoTracer:
    """Tracing off: every span is the same do-nothing context."""

    _null = contextlib.nullcontext()

    def span(self, name, instance=None):
        return self._null


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _plain(obj):
    """JSON round trip, so tuples and lists compare equal to the oracle."""
    return json.loads(json.dumps(obj, sort_keys=True))


class Session:
    def __init__(self, og, tracer):
        self.og = og
        self.tr = tracer
        self.graphs = {}
        self.results = {}
        self.errors = {}

    def build(self, inst):
        og, tr, iid = self.og, self.tr, wl.instance_id(inst)
        nu, delta, q, disc = inst
        with tr.span("gf.parse_field", iid):
            field = og.parse_field(str(q))
        with tr.span("geometry.space_make", iid):
            space = og.space_make(nu, delta, field, disc or "one")
        with tr.span("graph.build_graph", iid):
            self.graphs[iid] = og.build_graph(space, budget=VERTEX_BUDGET)

    def ask(self, inst, kind):
        iid = wl.instance_id(inst)
        with self.tr.span(f"unit.{kind}", iid):
            try:
                self.results[iid, kind] = getattr(self, "_" + kind)(iid, self.graphs[iid])
            except Exception as exc:  # a failed question is counted, not fatal
                self.errors[f"{iid}/{kind}"] = repr(exc)

    def _census(self, iid, g):
        types = []
        for P in g.verts:
            with self.tr.span("geometry.classify_type", iid):
                types.append(self.og.classify_type(P))
        return types

    def _diameter(self, iid, g):
        with self.tr.span("graph.OiGraph.diameter", iid):
            return g.diameter()

    def _adjacency(self, iid, g):
        with self.tr.span("graph.OiGraph.adjacency_matrix", iid):
            return g.adjacency_matrix(include_loops=True)

    def _aut(self, iid, g):
        og, tr = self.og, self.tr
        A = self._adjacency(iid, g)
        with tr.span("symmetry.po_e_generators", iid):
            gens = og.po_e_generators(g)
        with tr.span("symmetry.PermGroup", iid):
            group = og.PermGroup(g.nv, gens)
        with tr.span("symmetry.vertex_orbits", iid):
            orbits = og.vertex_orbits(g, gens)
        return A, gens, group, orbits

    def _search(self, iid, g):
        A = self._adjacency(iid, g)
        with self.tr.span("autsearch.search_result", iid):
            return A, self.og.search_result(g, budget=wl.SEARCH_BUDGET)

    def verify_core(self):
        with self.tr.span("unit.verify"):
            try:
                with self.tr.span("verify.run_suite"):
                    self.results["verify-core"] = self.og.run_suite("core", budget=VERTEX_BUDGET)
            except Exception as exc:
                self.errors["verify-core"] = repr(exc)

    # -- untimed: answers for the oracle, and counts keyed by the per-layer
    # metric they feed (plus the denominators of its rates) --

    def answers_and_facts(self):
        answers, facts = {}, {}
        for iid, g in self.graphs.items():
            edges = sum(g.degree(v) for v in range(g.nv)) // 2
            answers[f"{iid}/graph"] = {"vertices": g.nv, "edges": edges, "loops": g.loops.bit_count()}
            facts[iid] = {f"graph.{k}": v for k, v in answers[f"{iid}/graph"].items()}
        for key, res in self.results.items():
            if key == "verify-core":
                recs = facts["verify-core"] = {}
                for r in res.records:
                    answers[f"verify-core/{r.name}"] = _plain({"status": r.status, "computed": r.computed})
                    recs[r.name] = {"status": r.status, "seconds": r.seconds}
                continue
            iid, kind = key
            f, nv = facts[iid], self.graphs[iid].nv
            if kind == wl.CENSUS:
                census = Counter(str(t) for t in res)
                answers[f"{iid}/census"] = sorted([k, c] for k, c in census.items())
                f.update({"geometry.types": len(census), "classified": nv})
            elif kind == wl.DIAMETER:
                answers[f"{iid}/diameter"] = "infinite" if res == math.inf else int(res)
            else:
                A = res[0]
                answers[f"{iid}/adjacency"] = {
                    "entries": int(A.sum()),
                    "sha256": hashlib.sha256(A.tobytes()).hexdigest(),
                }
            if kind == wl.AUT:
                _, gens, group, orbits = res
                answers[f"{iid}/generated-group"] = {
                    "order": group.order(),
                    "base_length": len(group.base),
                    "transversal_sizes": list(group.transversal_sizes),
                }
                canon = sorted(sorted(int(v) for v in o) for o in orbits)
                answers[f"{iid}/orbits"] = {
                    "count": len(canon),
                    "sizes": sorted((len(o) for o in canon), reverse=True),
                    "sha256": _digest(canon),
                }
                f.update({
                    "symmetry.generators": len(gens),
                    "symmetry.base_length": len(group.base),
                    "perm_points": len(gens) * nv,
                })
            elif kind == wl.SEARCH:
                r = res[1]
                answers[f"{iid}/search"] = {"order": r.order}
                f.update({
                    "autsearch.nodes": r.node_count,
                    "autsearch.search_core_s": r.seconds,
                    "search_generators": len(r.generators),
                })
        return answers, facts


def _import_oigraph():
    sys.path.insert(0, SRC)
    import oigraph

    where = os.path.dirname(os.path.abspath(oigraph.__file__))
    if where != os.path.join(SRC, "oigraph"):
        raise ImportError(f"oigraph imported from {where}, not from {SRC}")
    return oigraph


def run(plan, seed: int, trace: bool, setup_only: bool, seconds: float) -> dict:
    tracer = Tracer(f"{os.getpid()}-{seed}") if trace else NoTracer()
    with tracer.span("session"):
        with tracer.span("setup"):
            with tracer.span("import oigraph"):
                og = _import_oigraph()
            sess = Session(og, tracer)
            for inst in dict.fromkeys(inst for inst, _ in plan or ()):
                sess.build(inst)
        out = {"t_setup_done": time.monotonic(), "build_peak_rss_mb": peak_rss_mb()}
        if setup_only:
            return out
        out.update(pass_s=[], answers=[])
        with tracer.span("answers"):
            t_first = time.monotonic()
            while True:
                sess.results.clear()
                t0 = time.monotonic()
                if plan is None:
                    sess.verify_core()
                else:
                    for inst, kind in wl.units(plan, seed):
                        sess.ask(inst, kind)
                t1 = time.monotonic()
                out["pass_s"].append(t1 - t0)
                answers, out["facts"] = sess.answers_and_facts()
                out["answers"].append(answers)
                if trace or t1 - t_first + (t1 - t0) > seconds:
                    break
    out["peak_rss_mb"] = peak_rss_mb()
    out["errors"] = sess.errors
    if trace:
        out["spans"] = tracer.spans
        out["trace_overhead_s"] = tracer.overhead_s()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'smoke'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="time the answer passes may fill")
    ap.add_argument("--setup-only", action="store_true", help="stop once every graph is built")
    args = ap.parse_args(argv)
    plan = wl.SMOKE_PLAN if args.workload == "smoke" else wl.WORKLOADS[args.workload][0]
    out = run(plan, args.seed, bool(args.trace), args.setup_only, args.seconds)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
