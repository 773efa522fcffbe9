import itertools
import json

import numpy as np
import pytest

from conftest import det, diagonal, mat_mul, unit, vertex_index

from oigraph.cli import main
from oigraph.gf import GF
from oigraph.geometry import space_make, subspace_make
from oigraph.graph import build_graph
from oigraph import symmetry
from oigraph.symmetry import (
    PermGroup,
    _check_on_points,
    aut_order_formula,
    e_subgroup_generators,
    e_subgroup_order,
    edge_orbits,
    group_order,
    orbit_labels,
    perm_from_semilinear,
    po_e_generators,
    point_generators,
    reflect,
    reflection_group_order,
    vertex_generators,
    vertex_orbits,
)

F3 = GF(3)
F9 = GF(3, 2)


@pytest.fixture(scope="module")
def sp43():
    return space_make(2, 0, F3)


@pytest.fixture(scope="module")
def g43(sp43):
    return build_graph(sp43)


@pytest.fixture(scope="module")
def g33():
    return build_graph(space_make(1, 1, F3))


def closure_order(degree, arrays):
    """Breadth-first closure under composition; exact but exponential."""
    ident = tuple(range(degree))
    gens = [tuple(int(x) for x in a) for a in arrays]
    elems = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for g in frontier:
            for s in gens:
                h = tuple(s[x] for x in g)
                if h not in elems:
                    elems.add(h)
                    fresh.append(h)
        frontier = fresh
    return len(elems)


def row_times(f, v, T):
    """The row vector v times T, by the tests' scalar product."""
    return mat_mul(f, [v], T)[0]




def is_identity(p):
    return np.array_equal(p, np.arange(len(p)))


def is_orthogonal(space, T):
    f, S = space.field, space.form.tolist()
    return mat_mul(f, mat_mul(f, T, S), tuple(zip(*T))) == tuple(map(tuple, S))


def mat_reflection(space, v):
    """x |-> x - 2 (x.S.vt / v.S.vt) v as a matrix acting on row vectors,
    one entry at a time: the reference for the vectorised reflect."""
    f = space.field
    norm = space.pair(v, v)
    if norm == 0:
        raise ValueError("reflection axis must be anisotropic")
    c = f.div(f.add(1, 1), norm)
    w = row_times(f, v, space.form.tolist())
    n = space.n
    return tuple(
        tuple(f.sub(1 if i == j else 0, f.mul(c, f.mul(w[i], v[j]))) for j in range(n))
        for i in range(n)
    )


def reference_axes(space):
    """The anisotropic points, each as its vector whose first nonzero entry
    is 1, in reflect's axis order: by the position of that entry, then by
    the later entries, the last one most significant."""

    def lead(v):
        return next(i for i, a in enumerate(v) if a)

    axes = [v for v in nonzero_vectors(space) if v[lead(v)] == 1 and space.pair(v, v) != 0]
    return sorted(axes, key=lambda v: (lead(v), v[::-1]))


def mat_reflections(space):
    """One reference reflection per anisotropic point, in reflect's axis order."""
    return [mat_reflection(space, v) for v in reference_axes(space)]


def nonzero_vectors(space):
    return [v for v in itertools.product(range(space.field.q), repeat=space.n) if any(v)]


def matrix_points(g, T):
    """The point array of the matrix T acting on row vectors."""
    return g.point_action(lambda X: g.space.field.matmul(X, np.array(T)))


# -- reflections -----------------------------------------------------------


def test_reflection_example(sp43):
    w = tuple(map(sum, zip(unit(sp43, "e", 1), unit(sp43, "f", 1))))  # e1 + f1
    T = mat_reflection(sp43, w)
    assert row_times(F3, unit(sp43, "e", 1), T) == (0, 0, 2, 0)  # e1 -> -f1
    assert row_times(F3, unit(sp43, "f", 1), T) == (2, 0, 0, 0)
    assert row_times(F3, unit(sp43, "e", 2), T) == unit(sp43, "e", 2)
    assert row_times(F3, unit(sp43, "f", 2), T) == unit(sp43, "f", 2)
    assert is_orthogonal(sp43, T)
    assert mat_mul(F3, T, T) == diagonal((1,) * 4)
    assert det(F3, T) == F3.neg(1)
    # the vectorised images through the same axis
    aniso = reference_axes(sp43)
    basis = [unit(sp43, "e", 1), unit(sp43, "f", 1), unit(sp43, "e", 2), unit(sp43, "f", 2)]
    images = reflect(sp43, basis)[aniso.index(w)]
    assert [tuple(x) for x in images.tolist()] == [(0, 0, 2, 0), (2, 0, 0, 0), unit(sp43, "e", 2), unit(sp43, "f", 2)]


@pytest.mark.parametrize("space", [space_make(2, 0, F3), space_make(1, 1, F9, "z")], ids=["oi43", "oi39-z"])
def test_reflect_axis_order(space):
    # a reflection negates exactly the multiples of its axis, so reflection
    # k negates reference axis j iff it is the reflection through axis j
    axes = np.array(reference_axes(space))
    negated = (reflect(space, axes) == space.field.arrays.neg[axes]).all(axis=2)
    assert np.array_equal(negated, np.eye(len(axes), dtype=bool))


def test_reflection_rejects_isotropic(sp43):
    with pytest.raises(ValueError):
        mat_reflection(sp43, unit(sp43, "e", 1))
    # reflect has no reflection through an isotropic axis: a reflection
    # negates exactly the multiples of its axis, and no image negates e1
    e1 = np.array(unit(sp43, "e", 1))
    assert not (reflect(sp43, [e1])[:, 0] == F3.neg(1) * e1).all(axis=1).any()


def test_orthogonal_generators(sp43):
    mats = mat_reflections(sp43)
    assert len(mats) == 24  # 40 points, 16 isotropic
    assert all(is_orthogonal(sp43, T) for T in mats)
    assert all(det(F3, T) == F3.neg(1) for T in mats)
    vecs = nonzero_vectors(sp43)
    images = reflect(sp43, vecs)
    assert images.shape == (24, 80, 4)
    for T, img in zip(mats, images):
        assert [tuple(x) for x in img.tolist()] == [row_times(F3, v, T) for v in vecs]


def test_orthogonal_closure_order_1152(sp43):
    assert reflection_group_order(sp43) == 1152
    # independent route: explicit closure of the reference vector permutations
    vecs = nonzero_vectors(sp43)
    index = {v: i for i, v in enumerate(vecs)}
    arrays = [np.array([index[row_times(F3, v, T)] for v in vecs]) for T in mat_reflections(sp43)]
    assert closure_order(len(vecs), arrays) == 1152


# -- point arrays and their lift -------------------------------------------


def test_perm_from_matrix_basics(g43):
    ident = matrix_points(g43, diagonal((1,) * 4))
    assert ident.dtype == np.int64 and is_identity(ident) and is_identity(g43.lift(ident))
    minus = matrix_points(g43, diagonal((2,) * 4))
    assert is_identity(minus)
    # not orthogonal: it permutes the points and lifts, but the point-graph
    # check and the full-graph reference both reject it
    bad = matrix_points(g43, diagonal((1, 1, 1, 2)))
    assert not g43.dim1_subgraph().is_automorphism(bad)
    assert not g43.is_automorphism(g43.lift(bad))
    with pytest.raises(ValueError, match="orthogonality"):
        _check_on_points(g43, [bad])
    with pytest.raises(ValueError, match="permute"):
        g43.point_action(lambda X: F3.matmul(X, np.zeros((4, 4), dtype=np.intp)))


def test_perm_matches_negated_matrix(g43):
    gens = mat_reflections(g43.space)
    rng = np.random.default_rng(7)
    minus = diagonal((2,) * 4)
    for _ in range(20):
        T = diagonal((1,) * 4)
        for i in rng.integers(0, len(gens), size=3):
            T = mat_mul(F3, T, gens[int(i)])
        assert np.array_equal(matrix_points(g43, T), matrix_points(g43, mat_mul(F3, T, minus)))


def test_reflection_perm_preserves_adjacency(g43):
    p = g43.lift(point_generators(g43)[0])
    assert not is_identity(p)
    assert sorted(p.tolist()) == list(range(g43.nv))
    assert g43.is_automorphism(p)


def test_vertex_perm_rejects_bad_maps(g43):
    with pytest.raises(ValueError, match="bijection"):
        g43.is_automorphism(np.zeros(g43.nv, dtype=np.int64))
    # transpositions of two points (same dimension) that break adjacency:
    # two isotropic ones (ids 0 and 1), two anisotropic ones, and a mixed pair
    iso = [v for v in g43.dim1_ids() if g43.loop_at(v)]
    aniso = [v for v in g43.dim1_ids() if not g43.loop_at(v)]
    for a, b in ((iso[0], iso[1]), (aniso[0], aniso[1]), (iso[0], aniso[0])):
        arr = np.arange(g43.nv)
        arr[[a, b]] = b, a
        assert not g43.is_automorphism(arr)


def test_point_transposition_rejected(g43):
    # the same transpositions as point arrays: the point-graph check rejects
    # each, and the lift finds a line whose image is not a line
    d1 = g43.dim1_subgraph()
    iso = [v for v in range(d1.nv) if d1.loop_at(v)]
    aniso = [v for v in range(d1.nv) if not d1.loop_at(v)]
    for a, b in ((iso[0], iso[1]), (aniso[0], aniso[1]), (iso[0], aniso[0])):
        p = np.arange(d1.nv)
        p[[a, b]] = b, a
        assert not d1.is_automorphism(p)
        with pytest.raises(ValueError, match="orthogonality"):
            _check_on_points(g43, [p])
        with pytest.raises(ValueError, match="vertices"):
            g43.lift(p)


def test_lift_input_checks_and_dtypes(g43):
    gen = point_generators(g43)[3]
    want = g43.lift(gen)
    for dtype in (np.int32, np.int64, np.intp, np.uint16):
        got = g43.lift(gen.astype(dtype))
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(g43.lift(gen.tolist()), want)
    for bad in (np.arange(39), np.zeros(40, dtype=np.int64), np.arange(1, 41), np.arange(40) + 2**32):
        with pytest.raises(ValueError, match="permutation"):
            g43.lift(bad)


@pytest.mark.parametrize(
    "params",
    [(2, 0, 3, "one"), (2, 1, 3, "one"), (1, 1, 9, "z"), (1, 2, 3, "one"), (2, 0, 5, "one"), (1, 2, 5, "one")],
)
def test_lift_extends_point_generators(params):
    nu, delta, q, disc = params
    g = build_graph(space_make(nu, delta, GF(3, 2) if q == 9 else GF(q), disc))
    gens = point_generators(g)
    P = len(g.dim1_ids())
    for p, v in zip(gens, po_e_generators(g), strict=True):
        assert p.shape == (P,)
        lifted = g.lift(p)
        assert np.array_equal(lifted, v)
        assert np.array_equal(lifted[:P], p)
        assert g.is_automorphism(lifted)  # the full-graph reference check


def test_only_seeds_and_e_are_checked(monkeypatch):
    # Oi(4, 5): 120 reflections, 4 of them conjugation seeds, and E of 2
    g45 = build_graph(space_make(2, 0, GF(5)))
    checked = []

    def counting(g, gens):
        checked.append(len(gens))
        return _check_on_points(g, gens)

    monkeypatch.setattr(symmetry, "_check_on_points", counting)
    assert len(point_generators(g45)) == 122
    assert checked == [4 + 2]


def tamper_reflection(monkeypatch, g, i):
    """Make reflection i swap the images of an isotropic and an anisotropic
    point, so that its point array is no automorphism."""
    d1 = g.dim1_subgraph()
    a = next(v for v in range(d1.nv) if d1.loop_at(v))
    b = next(v for v in range(d1.nv) if not d1.loop_at(v))

    def tampered(space, X):
        out = reflect(space, X)
        out[i, [a, b]] = out[i, [b, a]]
        return out

    monkeypatch.setattr(symmetry, "reflect", tampered)


def test_tampered_derived_reflection_rejected(monkeypatch, g43):
    _, _, source, _ = symmetry._checked_generators(g43)
    derived = np.flatnonzero(source[:, 0] >= 0)
    assert len(derived) == 24 - 5
    tamper_reflection(monkeypatch, g43, derived[-1])
    for make in (point_generators, po_e_generators):
        with pytest.raises(ValueError, match="conjugate"):
            make(g43)


def test_tampered_seed_rejected(monkeypatch, g43):
    _, _, source, _ = symmetry._checked_generators(g43)
    assert source[0, 0] < 0  # the first reflection is always a seed
    tamper_reflection(monkeypatch, g43, 0)
    with pytest.raises(ValueError, match="orthogonality"):
        point_generators(g43)


def reference_perm(g, row_map):
    """Per-vertex action: map each basis row, re-canonicalise, look it up."""
    index = vertex_index(g)
    return np.array([index[subspace_make(g.space, [row_map(r) for r in P.rows]).rows] for P in g.verts])


def test_point_action_matches_per_vertex_reference(g43):
    gz = build_graph(space_make(1, 1, F9, disc="z"))
    for g in (g43, gz):
        gens = point_generators(g)
        for p, T in list(zip(gens, mat_reflections(g.space)))[:12]:
            want = reference_perm(g, lambda r: row_times(g.space.field, r, T))
            assert np.array_equal(g.lift(p), want)
    # pi = 1, d1 = -1: entrywise Frobenius, then diag(1, 1, -sqrt(z^3 / z))
    z = gz.space.z
    diag = (1, 1, F9.neg(F9.sqrt_of_square(F9.div(F9.frobenius(z, 1), z))))
    want = reference_perm(
        gz, lambda r: tuple(F9.mul(F9.frobenius(x, 1), d) for x, d in zip(r, diag))
    )
    assert np.array_equal(gz.lift(perm_from_semilinear(gz, (1,), d1=-1, pi=1)), want)


def test_semilinear_basics(g43):
    assert is_identity(perm_from_semilinear(g43, (1, 1)))
    p = perm_from_semilinear(g43, (1, 2))
    base_pts = [
        unit(g43.space, "e", 1),
        unit(g43.space, "e", 2),
        unit(g43.space, "f", 1),
        unit(g43.space, "f", 2),
    ]
    index = vertex_index(g43)
    for v in base_pts:
        i = index[subspace_make(g43.space, [v]).rows]
        assert p[i] == i
    mixed = index[subspace_make(g43.space, [(1, 1, 0, 0)]).rows]
    assert p[mixed] != mixed


def test_semilinear_validation(g43, g33):
    with pytest.raises(ValueError):
        perm_from_semilinear(g43, (2, 1))  # 2 is not a square mod 3
    with pytest.raises(ValueError):
        perm_from_semilinear(g43, (1,))
    with pytest.raises(ValueError):
        perm_from_semilinear(g43, (1, 0))
    with pytest.raises(ValueError):
        perm_from_semilinear(g43, (1, 1), pi=1)  # prime field has no Frobenius power 1
    with pytest.raises(ValueError):
        perm_from_semilinear(g43, (1, 1), d1=-1)  # no diagonal tail when delta = 0
    with pytest.raises(ValueError):
        perm_from_semilinear(g33, (1,), d2=-1)
    with pytest.raises(ValueError):
        perm_from_semilinear(g33, (1,), d1=2)


def test_semilinear_frobenius_moves_points():
    g = build_graph(space_make(1, 0, F9))
    p = perm_from_semilinear(g, (1,), pi=1)
    assert not is_identity(p)
    index = vertex_index(g)
    for v in (unit(g.space, "e", 1), unit(g.space, "f", 1)):
        i = index[subspace_make(g.space, [v]).rows]
        assert p[i] == i
    # [(1, t)] must move to [(1, t^3)] = [(1, -t)]
    t = 3  # coeff vector (0, 1)
    src = index[subspace_make(g.space, [(1, t)]).rows]
    dst = index[subspace_make(g.space, [(1, F9.neg(t))]).rows]
    assert p[src] == dst


def test_semilinear_z_slot_scaling():
    # with disc z the Frobenius twists the last form entry, so the final
    # diagonal slot must absorb sqrt(pi(z)/z); e_subgroup_generators checks
    # orthogonality of points, which fails without that factor
    space = space_make(1, 1, F9, disc="z")
    g = build_graph(space)
    z = space.z
    assert F9.frobenius(z, 1) != z
    p = perm_from_semilinear(g, (1,), pi=1)
    assert sorted(p.tolist()) == list(range(len(g.dim1_ids())))
    q = perm_from_semilinear(g, (1,), d1=-1, pi=1)
    assert not np.array_equal(p, q)
    for gen in e_subgroup_generators(g):
        assert gen.dtype == np.int64 and g.is_automorphism(g.lift(gen))


def test_e_generators_fix_named_points(g43, g33):
    for g in (g43, g33):
        space = g.space
        named = [unit(space, "e", i + 1) for i in range(space.nu)]
        named += [unit(space, "f", i + 1) for i in range(space.nu)]
        if space.delta >= 1:
            named.append(unit(space, "eps"))
        if space.delta == 2:
            named.append(unit(space, "kappa"))
        index = vertex_index(g)
        ids = [index[subspace_make(space, [v]).rows] for v in named]
        for p in e_subgroup_generators(g):
            for i in ids:
                assert p[i] == i


# -- stabilizer chain ------------------------------------------------------


def test_chain_on_known_small_groups():
    s4 = [np.array([1, 2, 3, 0]), np.array([1, 0, 2, 3])]
    assert PermGroup(4, s4).order() == 24
    c6 = [np.array([1, 2, 3, 4, 5, 0])]
    assert PermGroup(6, c6).order() == 6
    klein = [np.array([1, 0, 3, 2]), np.array([2, 3, 0, 1])]
    assert PermGroup(4, klein).order() == 4
    assert PermGroup(5, []).order() == 1
    assert PermGroup(5, [np.arange(5)]).order() == 1


def test_chain_against_closure_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        degree = int(rng.integers(3, 8))
        gens = [rng.permutation(degree) for _ in range(int(rng.integers(1, 4)))]
        G = PermGroup(degree, gens)
        assert G.order() == closure_order(degree, gens)
        for g in gens:
            assert G.contains(g)
        assert np.prod([float(s) for s in G.transversal_sizes]) == G.order()
        assert PermGroup(degree, G.level_gens[0]).order() == G.order()
        R = PermGroup(degree, gens[::-1])
        assert R.order() == G.order()
        assert all(R.contains(g) for g in gens)


def test_chain_keeps_few_generators():
    g45 = build_graph(space_make(2, 0, GF(5)))
    gens = point_generators(g45)
    G = PermGroup(len(g45.dim1_ids()), gens)
    assert G.order() == 14400 and len(gens) == 122
    # a generator that sifts through the chain so far is not kept
    assert len(G.level_gens[0]) == 4
    assert PermGroup(G.degree, G.level_gens[0]).order() == G.order()
    R = PermGroup(G.degree, gens[::-1])
    assert R.order() == G.order()
    assert all(R.contains(p) for p in gens)


def test_chain_base_oi47(capsys):
    # the base is the chain's choice, not a group invariant: pinned as the
    # incremental chain makes it from point_generators' order
    assert main(["aut", "--nu", "2", "--delta", "0", "--field", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"order": 112896, "base": [1, 0, 2, 8, 9], "transversal-sizes": [64, 14, 6, 7, 3]}


def test_chain_rejects_non_permutations():
    with pytest.raises(ValueError, match="not a permutation"):
        PermGroup(3, [np.array([1, 1, 0])])
    with pytest.raises(ValueError, match="not a permutation"):
        PermGroup(3, [np.array([1, 0])])
    G = PermGroup(4, [np.array([1, 0, 2, 3])])
    for bad in ([1, 0, 3], [1, 0, 3, 7]):
        with pytest.raises(ValueError, match="not a permutation"):
            G.contains(bad)


def test_chain_transversal_product(g43):
    gens = po_e_generators(g43)
    G = PermGroup(g43.nv, gens)
    # the point action gives the same chain: points are the first vertex ids
    on_points = PermGroup(len(g43.dim1_ids()), point_generators(g43))
    assert on_points.base == G.base and on_points.transversal_sizes == G.transversal_sizes
    assert G.order() == 576
    sizes = G.transversal_sizes
    prod = 1
    for s in sizes:
        prod *= s
    assert prod == 576
    assert len(G.base) == len(sizes)
    assert all(0 <= b < g43.nv for b in G.base)
    for p in gens:
        assert G.contains(p)


def test_vertex_generators_generate_po_e(g43):
    small = vertex_generators(g43)
    full = po_e_generators(g43)
    assert len(small) < len(full)
    G = PermGroup(g43.nv, small)
    assert G.order() == 576
    assert all(G.contains(p) for p in full)
    assert vertex_orbits(g43, small) == vertex_orbits(g43, full)


def test_e_subgroup_order_values(g43):
    assert e_subgroup_order(g43.space) == 2
    assert e_subgroup_order(space_make(2, 0, F9)) == 32
    assert group_order(e_subgroup_generators(g43)) == 2
    with pytest.raises(ValueError):
        e_subgroup_order(space_make(1, 1, F3))


# -- closed forms ----------------------------------------------------------


def test_aut_order_formula_values():
    assert aut_order_formula(1, 0, 3) == 4
    assert aut_order_formula(1, 0, 5) == 16
    assert aut_order_formula(1, 0, 9) == 768
    assert aut_order_formula(2, 0, 3) == 576
    assert aut_order_formula(2, 1, 3) == 51840


def test_aut_order_formula_uncovered():
    for nu, delta in ((1, 1), (1, 2), (0, 2)):
        with pytest.raises(ValueError):
            aut_order_formula(nu, delta, 3)
    with pytest.raises(ValueError):
        aut_order_formula(2, 0, 6)
    with pytest.raises(ValueError):
        aut_order_formula(2, 0, 4)


# -- orbits ----------------------------------------------------------------


def test_orbit_labels_against_closure():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        gens = [rng.permutation(n) for _ in range(int(rng.integers(0, 3)))]
        label = orbit_labels(n, gens)
        for x in range(n):
            orbit, frontier = {x}, [x]
            while frontier:
                y = frontier.pop()
                for p in gens:
                    if int(p[y]) not in orbit:
                        orbit.add(int(p[y]))
                        frontier.append(int(p[y]))
            assert label[x] == min(orbit)


def test_vertex_orbits_identity():
    g = build_graph(space_make(1, 0, F3))
    orbs = vertex_orbits(g, [np.arange(g.nv)])
    assert orbs == [[0], [1], [2], [3]]


def test_edge_orbits_loops_oi23():
    g = build_graph(space_make(1, 0, F3))
    assert g.edge_pairs_with_loops().tolist() == [[2, 3], [0, 0], [1, 1]]
    assert edge_orbits(g, po_e_generators(g)).tolist() == [0, 1, 1]
    with pytest.raises(ValueError, match="edges"):
        edge_orbits(g, [np.array([2, 1, 0, 3])])  # swaps a looped and an unlooped point


@pytest.mark.parametrize("nu,delta,field,disc", [(1, 1, F3, "one"), (2, 0, F3, "one"), (1, 1, F9, "z")], ids=["oi33", "oi43", "oi39-z"])
def test_edge_orbit_labels_are_least_members(nu, delta, field, disc):
    # a label is never above its edge's index and labels itself, as the
    # least index in each orbit does
    g = build_graph(space_make(nu, delta, field, disc))
    label = edge_orbits(g, vertex_generators(g))
    assert label.shape == (len(g.edge_pairs_with_loops()),)
    assert (label <= np.arange(len(label))).all()
    assert np.array_equal(label[label], label)
