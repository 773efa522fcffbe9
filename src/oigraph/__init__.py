"""Orthogonal inner product graphs over odd-characteristic finite fields."""

__version__ = "0.1.0"  # before the submodule imports: graph, verify and cli read it

from .autsearch import search_result
from .geometry import classify_type, space_make, subspace_make, subspace_span
from .gf import GF, parse_field
from .graph import (
    BudgetExceeded,
    OiGraph,
    adjacent,
    build_graph,
    classify_types,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    max_clique_dim1,
    recover_parameters,
)
from .symmetry import (
    PermGroup,
    aut_order_formula,
    e_subgroup_generators,
    e_subgroup_order,
    edge_orbits,
    group_order,
    po_e_generators,
    point_generators,
    vertex_orbits,
)
from .verify import run_suite

__all__ = [
    "GF",
    "OiGraph",
    "BudgetExceeded",
    "PermGroup",
    "adjacent",
    "aut_order_formula",
    "build_graph",
    "classify_type",
    "classify_types",
    "e_subgroup_generators",
    "e_subgroup_order",
    "edge_orbits",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "group_order",
    "max_clique_dim1",
    "parse_field",
    "po_e_generators",
    "point_generators",
    "recover_parameters",
    "run_suite",
    "search_result",
    "space_make",
    "subspace_make",
    "subspace_span",
    "vertex_orbits",
]
