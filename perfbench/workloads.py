"""Instances, workloads and question plans of the oigraph benchmark.

An instance is named by its parameters ``(nu, delta, q, disc)``, never by
``OSpace.label()``: ``(2, 0, 3)`` and ``(1, 2, 3)`` both print ``Oi(4, 3)``
yet are different graphs.  ``disc`` is ``None`` unless ``delta == 1``.

A workload is a list of *units*.  A unit is one instance plus one
question kind; the units of a workload are independent once the graphs
are built, so the workload seed may reorder them freely.
"""

import random

# Question kinds.  "aut" is the generated-group chain of calls
# (adjacency_matrix -> po_e_generators -> PermGroup -> vertex_orbits);
# "search" is adjacency_matrix -> search_result.
CENSUS = "census"
DIAMETER = "diameter"
AUT = "aut"
SEARCH = "search"

OI43 = (2, 0, 3, None)
OI45 = (2, 0, 5, None)
OI53 = (2, 1, 3, "one")
OI39_ONE = (1, 1, 9, "one")
OI39_Z = (1, 1, 9, "z")
OI325 = (1, 1, 25, "one")

# Above every vertex count used here; DEFAULT_SEARCH_BUDGET (2000) is
# below Oi(5,3)'s 2662 vertices, so the budget is always passed.
SEARCH_BUDGET = 10_000

_PIPELINE = (CENSUS, DIAMETER, AUT)

# name -> (plan, set-up samples per run).  A plan of None means the
# workload is the core verify suite rather than per-instance questions.
# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "prime-pipeline": ([(OI43, _PIPELINE), (OI45, _PIPELINE), (OI53, _PIPELINE)], 1),
    "extension-pipeline": ([(OI39_ONE, _PIPELINE), (OI39_Z, _PIPELINE), (OI325, (CENSUS, DIAMETER))], 1),
    "search": ([(OI43, (SEARCH,)), (OI39_ONE, (SEARCH,)), (OI53, (SEARCH,))], 1),
    "verify-core": (None, 5),
}

# Self-check plan: Oi(4,3) through every question kind.
SMOKE_PLAN = [(OI43, (CENSUS, DIAMETER, AUT, SEARCH))]


def instance_id(inst) -> str:
    nu, delta, q, disc = inst
    base = f"nu{nu}-delta{delta}-q{q}"
    return f"{base}-{disc}" if delta == 1 else base


def check_instances(insts) -> None:
    """Raise unless every instance is well formed and ids are unique."""
    seen = {}
    for inst in insts:
        nu, delta, q, disc = inst
        if (disc is None) != (delta != 1):
            raise ValueError(f"{inst}: disc must be set exactly when delta == 1")
        key = instance_id(inst)
        if seen.setdefault(key, inst) != inst:
            raise ValueError(f"instance id {key} names both {seen[key]} and {inst}")


def all_instances():
    insts = {inst for plan, _ in WORKLOADS.values() if plan for inst, _ in plan}
    insts.update(inst for inst, _ in SMOKE_PLAN)
    return sorted(insts, key=lambda i: (i[0], i[1], i[2], i[3] or ""))


def units(plan, seed: int):
    """The plan's (instance, question) units in the seed's order."""
    out = [(inst, kind) for inst, kinds in plan for kind in kinds]
    random.Random(seed).shuffle(out)
    return out


# Oracle answers each question kind produces, per instance.  Every built
# instance also answers "graph" (vertex, edge and loop counts).
ANSWERS = {
    CENSUS: ("census",),
    DIAMETER: ("diameter",),
    AUT: ("adjacency", "generated-group", "orbits"),
    SEARCH: ("adjacency", "search"),
}


def answer_keys(plan, oracle):
    """Oracle keys one session of ``plan`` must answer."""
    if plan is None:
        return sorted(k for k in oracle if k.startswith("verify-core/"))
    keys = {}
    for inst, kinds in plan:
        iid = instance_id(inst)
        keys[f"{iid}/graph"] = None
        for kind in kinds:
            keys.update((f"{iid}/{a}", None) for a in ANSWERS[kind])
    return list(keys)
