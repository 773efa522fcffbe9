import hashlib
import json
import tracemalloc

import pytest

from conftest import vertex_index

from oigraph import graph as graph_module
from oigraph.geometry import classify_type, subspace_span
from oigraph.verify import (
    STATUS_FAIL,
    STATUS_OUTSIDE,
    STATUS_PASS,
    SUITES,
    CheckRecord,
    VerifyReport,
    _Ctx,
    _edge_fiber_partition,
    _vertex_fiber_partition,
    check_e_subgroup_order,
    check_matching_edge_rule,
    check_nu1_aut_orders,
    check_o2_exhaustive,
    check_oi43_full_aut_order,
    check_oi43_generated_order,
    check_oi45_full_aut_order,
    check_oi53_full_aut_order,
    check_witt_oracle_agreement,
    run_suite,
)


@pytest.fixture(scope="module")
def ctx():
    return _Ctx()


def test_registry_shape():
    assert set(SUITES) == {"core", "extended"}
    core, ext = SUITES["core"], SUITES["extended"]
    assert [c[0] for c in ext[: len(core)]] == [c[0] for c in core]
    assert len(ext) == len(core) + 3
    names = [c[0] for c in ext]
    assert len(names) == len(set(names))
    for name, anchor, fn in ext:
        assert name and anchor and callable(fn)


# Per graph: vertex fibers, edge fibers, the three largest edge fibers and
# the sha256 of json.dumps of each partition, frozen before the partitions
# were built from one classification per vertex.
FROZEN_FIBER_PARTITIONS = {
    (2, 0, 3, "one"): (
        11,
        24,
        [144, 72, 72],
        "2e74146a41b9e4f1e6d79d31d7f912a4547c1439ddc89bd4345f31722eb0eec8",
        "31dce1b87b3836fc6a2b260f5768bddfda99b088ad7071a8aec0393e039b7f9c",
    ),
    (1, 1, 3, "one"): (
        6,
        8,
        [12, 6, 6],
        "15826adbceb98f87f8b94413c337ff927f805c5a881a33f7817ae284bd1e54f3",
        "fd9336034fda091f1b1d026049d292770770fe0caaab36c98b10b62f59f54b58",
    ),
}


@pytest.mark.parametrize("key", list(FROZEN_FIBER_PARTITIONS), ids=["oi43", "oi33"])
def test_fiber_partitions_frozen(ctx, key):
    g = ctx.graph(*key)
    vertex, edge = _vertex_fiber_partition(ctx.types(g)), _edge_fiber_partition(g, ctx.types(g))
    computed = (
        len(vertex),
        len(edge),
        sorted(map(len, edge), reverse=True)[:3],
        hashlib.sha256(json.dumps(vertex).encode()).hexdigest(),
        hashlib.sha256(json.dumps(edge).encode()).hexdigest(),
    )
    assert computed == FROZEN_FIBER_PARTITIONS[key]


def per_pair_edge_fibers(g, types):
    """_edge_fiber_partition one pair at a time: each sum by the scalar
    subspace_span and its vertex by vertex_index, the whole space classified
    by classify_type."""
    index = vertex_index(g)
    fibers = {}
    for u, v in g.edge_pairs_with_loops():
        total = subspace_span(g.space, g.verts[u].rows + g.verts[v].rows)
        key = (*sorted((types[u], types[v])), types[index[total.rows]] if total.is_vertex else classify_type(total))
        fibers.setdefault(key, []).append((u, v))
    return sorted(tuple(sorted(v)) for v in fibers.values())


@pytest.mark.parametrize("block", [None, 1 << 12], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("key", [(2, 0, 3, "one"), (1, 1, 9, "one")], ids=["oi43", "oi39"])
def test_edge_fibers_match_per_pair_sums(ctx, key, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(graph_module, "_BLOCK", block)
    g = ctx.graph(*key)
    types = [classify_type(P) for P in g.verts]
    assert _edge_fiber_partition(g, types) == per_pair_edge_fibers(g, types)


def test_o2_exhaustive(ctx):
    expected, computed, status, _ = check_o2_exhaustive(ctx)
    assert status == STATUS_PASS
    assert computed == expected == {"census": 4, "closure": 4}


def test_nu1_aut_orders(ctx):
    expected, computed, status, _ = check_nu1_aut_orders(ctx)
    assert status == STATUS_PASS
    assert computed == {"Oi(2, 3)": 4, "Oi(2, 5)": 16, "Oi(2, 9)": 768}


def test_generated_order_oi43(ctx):
    expected, computed, status, _ = check_oi43_generated_order(ctx)
    assert (expected, computed, status) == (576, 576, STATUS_PASS)


def test_full_aut_order_check_records_honest_failure(ctx):
    expected, computed, status, note = check_oi43_full_aut_order(ctx)
    assert expected == 576
    assert computed == 1152
    assert status == STATUS_FAIL
    assert "interchanging the two square-class tags" in note


def test_oi53_full_aut_order_is_generated_order(ctx):
    # odd n: the independent search finds no doubling; it agrees with the
    # formula, which oi53-generated-order checks against the generated group
    assert check_oi53_full_aut_order(ctx) == (51840, 51840, STATUS_PASS, "")


def test_oi45_full_aut_order_records_three_orders(ctx):
    # Aut = PO*E graded on Oi(4, 5): the formula, the generated group and the
    # search give three different orders, each twice the one before.
    expected, computed, status, note = check_oi45_full_aut_order(ctx)
    assert expected == 7200
    assert computed == {"generated": 14400, "aut_order_formula": 7200, "search": 28800}
    assert status == STATUS_FAIL
    assert "q = 1 mod 4" in note and "similitude" in note


def test_matching_edge_rule_finding(ctx):
    expected, computed, status, note = check_matching_edge_rule(ctx)
    assert status == STATUS_OUTSIDE
    assert "x + y = 0" in computed
    assert "q=5" in computed
    assert note


def test_e_subgroup_order_check(ctx):
    expected, computed, status, _ = check_e_subgroup_order(ctx)
    assert status == STATUS_PASS
    assert computed["Oi(4, 9)"] == 32


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nosuch")


def test_report_formats():
    records = [
        CheckRecord("alpha", "derived oracle", 1, 1, STATUS_PASS, 0.5),
        CheckRecord("beta", "Theorem 0", 2, 3, STATUS_FAIL, 0.25, note="off by one"),
        CheckRecord("gamma", "derived oracle", "n/a", 7, STATUS_OUTSIDE, 0.125),
    ]
    rep = VerifyReport(suite="core", records=records)
    assert not rep.ok
    assert rep.seconds == pytest.approx(0.875)

    payload = json.loads(rep.to_json())
    assert payload["failures"] == 1
    assert [c["name"] for c in payload["checks"]] == ["alpha", "beta", "gamma"]
    assert payload["checks"][1]["note"] == "off by one"
    assert "note" not in payload["checks"][0]

    csv_text = rep.to_csv()
    assert csv_text.startswith("# oigraph verify suite=core")
    assert len(csv_text.splitlines()) == 5  # header + columns + 3 records
    assert rep.to_csv(header=False).startswith("name,status")

    lines = rep.lines()
    assert any("expected 2, computed 3" in ln for ln in lines)
    assert lines[-1] == "suite core: 3 checks, 1 failed, 0.9s"


def test_run_suite_records_in_registry_order(monkeypatch):
    import oigraph.verify as verify_mod

    def quick_a(ctx):
        return 1, 1, STATUS_PASS, ""

    def quick_b(ctx):
        return 2, 2, STATUS_PASS, ""

    tiny = (("a", "derived oracle", quick_a), ("b", "derived oracle", quick_b))
    monkeypatch.setitem(verify_mod.SUITES, "core", tiny)
    report = run_suite("core")
    assert [r.name for r in report.records] == ["a", "b"]
    assert [r.computed for r in report.records] == [1, 2]
    assert report.ok


def test_witt_oracle_agreement_peak():
    # the form stacks are built as arrays and typed by one witt_stack each:
    # 208 KB here (223 KB with witt_decompose form by form), against 484 KB
    # when the forms are built as Python lists first and 456 KB when all
    # 729 F3 forms' eliminations are held at once
    check_witt_oracle_agreement(None)  # fills the bases, point ids and tables
    tracemalloc.start()
    try:
        check_witt_oracle_agreement(None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 2**10
