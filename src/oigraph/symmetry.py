"""Automorphisms of the graph and exact group orders.

Aut(Oi(n, q)) keeps dimension and a vertex is its set of projective points,
so it acts faithfully on the P points, and generators are plain int64 point
arrays (point a goes to p[a]).  OiGraph.lift makes vertex arrays of them
only where a caller needs those: vertex_generators, for the orbits, and
po_e_generators, which lifts every generator.

Two generator families: reflections through anisotropic vectors (these
generate the full orthogonal group of the form in odd characteristic), all
applied at once by reflect, and diagonal-semilinear maps
sigma_{(k_1..k_nu, d1, d2, pi)} acting as entrywise Frobenius followed by
diag(k_1..k_nu, k_1^-1..k_nu^-1, d1, d2).  Both act on row vectors through
the field's lookup arrays and OiGraph.point_action.  +-T induce the same
point map, so the action quotients the matrix group by its center for free.
Each generator set is checked once on the point graph (_check_on_points).

Orders are certified by a deterministic stabilizer chain over the point
action, never by formula alone; the closed-form counts live in
aut_order_formula for cross-checking.  The chain is incremental
Schreier-Sims: its base points are first moved points, taken in generator
order, and a generator joins it only if it does not sift through the chain
built so far.  So its level_gens[0] is a small generating set of the same
group, and the set vertex_generators lifts.  Orbits, of vertices, of
edges and in the search, all come from orbit_labels, and a partition is
its least-member label array: each item's label is the least index in its
class, so two partitions are equal exactly when their arrays are.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .gf import GF, factor_prime_power, primitive_unit
from .graph import OiGraph
from .geometry import OSpace, check_space_params, rref_bases


# ---------------------------------------------------------------------------
# generators as point arrays


def reflect(space: OSpace, X) -> np.ndarray:
    """The images of the vectors X (rows of field-element codes) under every
    reflection x -> x - 2 (x.S.v / v.S.v) v, one axis v per anisotropic
    point: shape (axes, len(X), n).  The axes are ordered by the position
    of their leading 1, then by their later entries, the last one most
    significant."""
    f, t = space.field, space.field.arrays
    points = rref_bases(f, space.n, 1)[:, 0]
    # not the vertex order: the stabilizer chain's base follows the order of
    # its generators, and the frozen group answers follow the base
    axes = points[np.lexsort((*points.T, (points != 0).argmax(axis=1)))]
    w = f.matmul(axes, space.form)  # v.S, the transpose of S.vt
    norm = f.matmul(w[:, None, :], axes[:, :, None])[:, 0, 0]
    aniso = norm != 0
    axes, w = axes[aniso], w[aniso]
    c = t.mul[f.add(1, 1), t.inv[norm[aniso]]]
    X = np.asarray(X)
    coef = t.mul[f.matmul(X, w.T).T, c[:, None]]  # c (x.S.vt), per axis and vector
    return t.add[X, t.neg[t.mul[coef[..., None], axes[:, None, :]]]]


def _check_on_points(g: OiGraph, gens):
    """gens, each checked as an automorphism of the point graph
    g.dim1_subgraph() (ValueError otherwise), g as build_graph makes it.

    This proves g.lift(p) an automorphism of g.  The lift sends a vertex A
    to the vertex whose point set is exactly p(points(A)), raising if there
    is none; as p permutes the points and a vertex is determined by its
    point set, it is a bijection of the vertices.  A ~ B iff every point of
    A is orthogonal to every point of B (the form is bilinear; B = A gives
    the loops).  p maps the finite set of orthogonal point pairs into, hence
    onto, itself, so lift(A) ~ lift(B) iff A ~ B.
    """
    d1 = g.dim1_subgraph()
    for p in gens:
        if not d1.is_automorphism(p):
            raise ValueError("map does not preserve orthogonality of points")
    return gens


def _slot_factor(f: GF, sign: int, form_entry: int, pi: int) -> int:
    """Diagonal entry over a form entry u: +-sqrt(pi(u)/u), so that the
    scaled Frobenius map carries the u-slot of S onto pi(u)."""
    if sign not in (1, -1):
        raise ValueError("sign slots take +1 or -1")
    ratio = f.div(f.frobenius(form_entry, pi), form_entry)
    root = f.sqrt_of_square(ratio)
    return root if sign == 1 else f.neg(root)


def perm_from_semilinear(g: OiGraph, ks, d1: int = 1, d2: int = 1, pi: int = 0) -> np.ndarray:
    """The int64 point array of sigma_{(ks, d1, d2, pi)}, not yet checked
    on the graph: e_subgroup_generators and point_generators do that."""
    space = g.space
    f = space.field
    ks = tuple(ks)
    if len(ks) != space.nu:
        raise ValueError(f"expected {space.nu} scale factors, got {len(ks)}")
    if any(k == 0 for k in ks):
        raise ValueError("scale factors must be nonzero")
    if ks and not f.is_square(ks[0]):
        raise ValueError("the first scale factor must be a nonzero square")
    if not 0 <= pi < f.e:
        raise ValueError(f"Frobenius power out of range 0..{f.e - 1}")
    if space.delta < 1 and d1 != 1:
        raise ValueError("d1 is only meaningful when delta >= 1")
    if space.delta < 2 and d2 != 1:
        raise ValueError("d2 is only meaningful when delta = 2")
    diag = list(ks) + [f.inv(k) for k in ks]
    n = space.n
    if space.delta >= 1:
        eps = n - space.delta
        diag.append(_slot_factor(f, d1, int(space.form[eps, eps]), pi))
    if space.delta == 2:
        diag.append(_slot_factor(f, d2, int(space.form[n - 1, n - 1]), pi))
    t, D = f.arrays, np.array(diag)
    return g.point_action(lambda X: t.mul[t.frob[pi][X], D])


def _semilinear_maps(g: OiGraph):
    space = g.space
    f = space.field
    nu = space.nu
    ones = (1,) * nu
    gens = []
    if nu >= 1:
        prim = primitive_unit(f)
        sq = f.mul(prim, prim)
        if sq != 1:
            gens.append(perm_from_semilinear(g, (sq,) + (1,) * (nu - 1)))
        for i in range(1, nu):
            ks = tuple(prim if j == i else 1 for j in range(nu))
            gens.append(perm_from_semilinear(g, ks))
    if space.delta >= 1:
        gens.append(perm_from_semilinear(g, ones, d1=-1))
    if space.delta == 2:
        gens.append(perm_from_semilinear(g, ones, d2=-1))
    if f.e > 1:
        gens.append(perm_from_semilinear(g, ones, pi=1))
    return gens


def e_subgroup_generators(g: OiGraph):
    """Checked int64 point arrays generating the diagonal-semilinear subgroup E."""
    return _check_on_points(g, _semilinear_maps(g))


def point_generators(g: OiGraph):
    """Checked int64 point arrays of the reflections, then of E."""
    reflections = g.point_action(lambda X: reflect(g.space, X))
    return _check_on_points(g, [*reflections, *_semilinear_maps(g)])


def po_e_generators(g: OiGraph):
    """point_generators lifted to int64 vertex arrays, in the same order."""
    return [g.lift(p) for p in point_generators(g)]


def vertex_generators(g: OiGraph):
    """int64 vertex arrays generating the same group as po_e_generators(g):
    the point chain's level_gens[0] lifted, about ten arrays where
    po_e_generators lifts all of them (723 on Oi(4, 9))."""
    chain = PermGroup(len(g.dim1_ids()), point_generators(g))
    return [g.lift(p) for p in chain.level_gens[0]]


# ---------------------------------------------------------------------------
# deterministic stabilizer chain


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[b]


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a times the inverse of b, by one scatter: out[b[i]] = a[i]."""
    out = np.empty_like(a)
    out[b] = a
    return out


class PermGroup:
    """Stabilizer chain of the group the generators generate on 0..degree-1,
    by incremental Schreier-Sims (Seress, Permutation Group Algorithms, 4.2).

    The base starts with the first moved point of each generator that fixes
    the base so far, in input order, and grows by the first moved point of
    any residue that fixes all of it.  Each generator is sifted through the
    chain built so far and joins only if it does not sift to the identity:
    its residue joins the levels it reached, and those levels are closed
    again by sifting their Schreier generators, so order() is exact.  The
    base and the transversal sizes depend on the generator order; the order
    does not.

    level_gens[i] generates the stabilizer of base[:i]; level_gens[0] is a
    small generating set of the whole group.  transversals[i][gamma] is the
    inverse of the coset representative that maps base[i] to gamma, which
    is the form sifting and Schreier generators use; its keys are the orbit
    of base[i] in the order the search found them.
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int64)
        seeds = []
        seen = set()
        for gen in generators:
            arr = self._perm(gen)
            key = arr.tobytes()
            if np.array_equal(arr, self.identity) or key in seen:
                continue
            seen.add(key)
            seeds.append(arr)
        self.base: list[int] = []
        self.level_gens: list[list[np.ndarray]] = []
        self.transversals: list[dict[int, np.ndarray]] = []
        self._done: list[int] = []
        if seeds:
            self._build(seeds)
        for g in seeds:
            residue, _ = self._sift(g, 0)
            assert residue is None, "chain failed to absorb a generator"

    # -- construction ------------------------------------------------------

    def _perm(self, perm) -> np.ndarray:
        """perm as an int64 array; ValueError unless it permutes 0..degree-1
        (a non-permutation never sifts to the identity, and the chain would
        grow without end)."""
        arr = np.asarray(perm, dtype=np.int64)
        if arr.shape != (self.degree,) or not np.array_equal(np.sort(arr), self.identity):
            raise ValueError(f"not a permutation of 0..{self.degree - 1}")
        return arr

    def _first_moved(self, g: np.ndarray) -> int:
        return int(np.nonzero(g != self.identity)[0][0])

    def _new_level(self, point: int):
        self.base.append(point)
        self.level_gens.append([])
        self.transversals.append({point: self.identity})
        self._done.append(0)

    def _recompute(self, i: int):
        b = self.base[i]
        trans = {b: self.identity}
        queue = [b]
        gens = self.level_gens[i]
        while queue:
            beta = queue.pop(0)
            u_inv = trans[beta]
            for s in gens:
                gamma = int(s[beta])
                if gamma not in trans:
                    trans[gamma] = _div(u_inv, s)  # (s u)^-1 = u^-1 s^-1
                    queue.append(gamma)
        self.transversals[i] = trans
        self._done[i] = 0

    def _sift(self, g: np.ndarray, start: int):
        """Reduce g through levels >= start; (None, _) when it reaches id."""
        for l in range(start, len(self.base)):
            beta = int(g[self.base[l]])
            rep_inv = self.transversals[l].get(beta)
            if rep_inv is None:
                return g, l
            g = _mul(rep_inv, g)
        if np.array_equal(g, self.identity):
            return None, len(self.base)
        return g, len(self.base)

    def _build(self, seeds):
        for g in seeds:
            if all(g[b] == b for b in self.base):
                self._new_level(self._first_moved(g))
        for g in seeds:
            # the chain so far is complete for the group of the seeds before
            # g, so g sifts to the identity exactly when it adds nothing
            residue, j = self._sift(g, 0)
            if residue is None:
                continue
            if j == len(self.base):
                self._new_level(self._first_moved(residue))
            for l in range(j + 1):
                self.level_gens[l].append(residue)
                self._recompute(l)
            i = j
            while i >= 0:
                nxt = self._close_level(i)
                i = i - 1 if nxt is None else nxt

    def _close_level(self, i: int):
        """Sift this level's Schreier generators; report the level to fix."""
        gens = self.level_gens[i]
        trans = self.transversals[i]
        orbit = list(trans)
        total = len(orbit) * len(gens)
        k = self._done[i]
        while k < total:
            beta = orbit[k // len(gens)]
            s = gens[k % len(gens)]
            # u(s beta)^-1 s u(beta); dividing by u(beta)^-1 applies u(beta)
            schreier = _div(_mul(trans[int(s[beta])], s), trans[beta])
            if not np.array_equal(schreier, self.identity):
                residue, j = self._sift(schreier, i + 1)
                if residue is not None:
                    if j == len(self.base):
                        self._new_level(self._first_moved(residue))
                    for l in range(i + 1, j + 1):
                        self.level_gens[l].append(residue)
                        self._recompute(l)
                    self._done[i] = k  # re-check this pair once below is fixed
                    return j
            k += 1
        self._done[i] = total
        return None

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        out = 1
        for t in self.transversals:
            out *= len(t)
        return out

    @property
    def transversal_sizes(self):
        return [len(t) for t in self.transversals]

    def contains(self, perm) -> bool:
        residue, _ = self._sift(self._perm(perm), 0)
        return residue is None


def group_order(perms) -> int:
    perms = list(perms)
    if not perms:
        return 1
    return PermGroup(len(perms[0]), perms).order()


def reflection_group_order(space: OSpace) -> int:
    """Order of the group the reflections generate, the orthogonal group of
    the form, via its faithful action on the q^n - 1 nonzero vectors.

    The vectors are listed in lexicographic order of their codes, the zero
    vector dropped, so a vector's index is its base-q value minus one."""
    f = space.field
    vecs = np.array(list(itertools.product(range(f.q), repeat=space.n))[1:])
    place = f.q ** np.arange(space.n - 1, -1, -1)
    return PermGroup(len(vecs), reflect(space, vecs) @ place - 1).order()


# ---------------------------------------------------------------------------
# orbits


def orbit_labels(n: int, perms) -> np.ndarray:
    """The least member of each point's orbit under the group generated by
    the arrays perms on 0..n-1.

    Each point starts as its own label.  A pass gives each point and its
    image under each generator in turn the smaller of their two labels, then
    relabels each point x with label[label[x]].  A label is always a point of
    the same orbit, so once a pass changes nothing the labels are constant on
    orbits, and each orbit's least member, whose label nothing can lower, is
    the label of all of it.
    """
    perms = list(perms)
    label = np.arange(n)
    while True:
        old = label.copy()
        for p in perms:
            np.minimum(label, label[p], out=label)
            label[p] = np.minimum(label[p], label)
        label = label[label]
        if np.array_equal(label, old):
            return label


def _classes(label: np.ndarray):
    """Index lists sharing a label, ordered by label, each ascending."""
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def vertex_orbits(g: OiGraph, perms):
    return [c.tolist() for c in _classes(orbit_labels(g.nv, perms))]


def edge_orbits(g: OiGraph, perms) -> np.ndarray:
    """orbit_labels of the edges, loops included, indexed as the rows of
    g.edge_pairs_with_loops(): each edge's label is the least index of an
    edge in its orbit.  ValueError if a map does not carry edges to edges."""
    pairs = g.edge_pairs_with_loops()
    keys = pairs[:, 0] * g.nv + pairs[:, 1]
    by_key = np.argsort(keys)
    edge_perms = []
    for p in perms:
        a, b = p[pairs].T
        image = np.minimum(a, b) * g.nv + np.maximum(a, b)
        at = by_key[np.searchsorted(keys, image, sorter=by_key).clip(max=len(keys) - 1)]
        if not np.array_equal(keys[at], image):
            raise ValueError("map does not carry edges to edges")
        edge_perms.append(at)
    return orbit_labels(len(pairs), edge_perms)


# ---------------------------------------------------------------------------
# closed-form orders


def aut_order_formula(nu: int, delta: int, q: int, disc: str = "one") -> int:
    """Closed-form |Aut| for the covered parameter ranges."""
    check_space_params(nu, delta, disc)
    if q < 3:
        raise ValueError(f"{q} is not an odd prime power")
    if q % 2 == 0:
        raise ValueError("even characteristic is out of scope")
    _, e = factor_prime_power(q)
    half = q % 4 == 1  # -1 is a square exactly for q = 1 mod 4
    if nu == 1 and delta == 0:
        return 2 ** ((q + 1) // 2) * math.factorial((q - 1) // 2)
    if nu >= 2:
        down = math.prod(q**i - 1 for i in range(1, nu + 1))
        if delta == 0:
            val = q ** (nu * (nu - 1)) * down * math.prod(q**i + 1 for i in range(1, nu)) * e
            return val // 2 if half else val
        if delta == 1:
            val = q ** (nu * nu) * down * math.prod(q**i + 1 for i in range(1, nu + 1)) * e
            return val // 2 if half else val
        if delta == 2:
            val = q ** (nu * (nu + 1)) * down * math.prod(q**i + 1 for i in range(1, nu + 2)) * e
            return val // 2
    raise ValueError(
        f"uncovered parameter combination (nu={nu}, delta={delta}): no closed form applies"
    )


def e_subgroup_order(space: OSpace) -> int:
    """|E| = |(squares x units^(nu-1) x signs) : Frobenius| / |kernel|."""
    if space.nu < 2:
        raise ValueError("the diagonal-semilinear order formula needs nu >= 2")
    f = space.field
    q = f.q
    slots = (1 if space.delta >= 1 else 0) + (1 if space.delta == 2 else 0)
    raw = ((q - 1) // 2) * (q - 1) ** (space.nu - 1) * 2**slots * f.e
    kernel = 2 if (space.delta == 2 or f.minus_one_is_square()) else 1
    return raw // kernel
