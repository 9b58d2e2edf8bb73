"""Independent oracles the tests check the library against.

Nothing here calls the library's surface, homology, or enumeration
code, except admissible_by_completion, which keeps the library's
previous admissible enumeration whole as a reference. Shared
conventions (coordinate layout, gluing record shape) are reimplemented
from scratch so that agreement means two separate computations
produced the same answer, not one computation ran twice.
"""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np


class UF:
    """Minimal union-find, local to the oracles."""

    def __init__(self, items=()):
        self.parent = {}
        for x in items:
            self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        p.setdefault(x, x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, a, b):
        return self.find(a) == self.find(b)

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


# ---------------------------------------------------------------------------
# 3D surface cell counts by raw orbit counting.

_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _omitted(face):
    return ({0, 1, 2, 3} - set(face)).pop()


def _pair_offset(a, b):
    """Block offset (4..6) of the quad type separating {a,b} off."""
    lo, hi = min(a, b), max(a, b)
    if lo == 0:
        return 3 + hi
    return 3 + ({1, 2, 3} - {lo, hi}).pop()


def _crossing_offsets(a, b):
    return {4, 5, 6} - {_pair_offset(a, b)}


def _block(v, t):
    return v[7 * t: 7 * (t + 1)]


def _quad(block):
    for k in (4, 5, 6):
        if block[k]:
            return k, block[k]
    return None, 0


def _edge_w(block, a, b):
    qoff, q = _quad(block)
    w = block[a] + block[b]
    if qoff in _crossing_offsets(a, b):
        w += q
    return w


def _arc_count(block, x, d):
    qoff, q = _quad(block)
    n = block[x]
    if qoff == _pair_offset(x, d):
        n += q
    return n


def _point_slot(v, t, x, y, p_from_x):
    a, b = min(x, y), max(x, y)
    w = _edge_w(_block(v, t), a, b)
    p = p_from_x if x == a else w + 1 - p_from_x
    return (t, a, b, p)


def _disk_of_arc(v, t, x, d, depth):
    block = _block(v, t)
    if depth <= block[x]:
        return ("tri", t, x, depth)
    qoff, q = _quad(block)
    j = depth - block[x]
    if x != 0 and x != qoff - 3:
        j = q + 1 - j
    return ("quad", t, j)


def surface_cell_counts(tri, v):
    """(V, E, F, chi, components, boundary circles) for an admissible
    solution vector, rebuilt from named point/arc/disk slots.
    """
    nt = tri.tet_count
    points = UF()
    arcs = UF()
    all_disks = []
    for t in range(nt):
        block = _block(v, t)
        qoff, q = _quad(block)
        for x in range(4):
            all_disks.extend(("tri", t, x, i)
                             for i in range(1, block[x] + 1))
        all_disks.extend(("quad", t, j) for j in range(1, q + 1))
        for a, b in combinations(range(4), 2):
            for p in range(1, _edge_w(block, a, b) + 1):
                points.find((t, a, b, p))
        for face in _FACES:
            d = _omitted(face)
            for x in face:
                for k in range(1, _arc_count(block, x, d) + 1):
                    arcs.find((t, face, x, k))

    for (ta, fa), (tb, fb), vmap in tri.interior_pairs():
        da, db = _omitted(fa), _omitted(fb)
        for x in fa:
            for k in range(1, _arc_count(_block(v, ta), x, da) + 1):
                arcs.union((ta, fa, x, k), (tb, fb, vmap[x], k))
        for x, y in combinations(fa, 2):
            w = _edge_w(_block(v, ta), x, y)
            for p in range(1, w + 1):
                points.union(_point_slot(v, ta, x, y, p),
                             _point_slot(v, tb, vmap[x], vmap[y], p))

    V = len(points.groups())
    arc_groups = arcs.groups()
    E = len(arc_groups)
    F = len(all_disks)

    comp = UF(all_disks)
    for members in arc_groups.values():
        disks_here = [_disk_of_arc(v, t, x, _omitted(face), k)
                      for (t, face, x, k) in members]
        for other in disks_here[1:]:
            comp.union(disks_here[0], other)
    components = len(comp.groups()) if all_disks else 0

    interior = set()
    for (ta, fa), (tb, fb), _ in tri.interior_pairs():
        interior.add((ta, fa))
        interior.add((tb, fb))
    boundary_arcs = [a for a in arc_groups.values()
                     if len(a) == 1 and (a[0][0], a[0][1]) not in interior]
    circle_uf = UF(a[0] for a in boundary_arcs)
    endpoint_map = {}
    for (slot,) in boundary_arcs:
        t, face, x, k = slot
        for other in face:
            if other != x:
                pt = points.find(_point_slot(v, t, x, other, k))
                endpoint_map.setdefault(pt, []).append(slot)
    for incident in endpoint_map.values():
        assert len(incident) == 2, incident
        circle_uf.union(*incident)
    circles = len(circle_uf.groups())
    return V, E, F, V - E + F, components, circles


def vertex_link_vector(tri, vertex_class):
    """One triangle at each corner of the vertex class: its link."""
    v = [0] * (7 * tri.size)
    for t, corner in tri.skeleton.vertex_classes[vertex_class].members:
        v[7 * t + corner] = 1
    return tuple(v)


def boundary_curve(tri, v):
    """The arcs of v on the boundary faces, as a curve vector on
    tri.boundary_surface: its triangle k is the k-th boundary face, and
    its vertex label m is that face's m-th corner."""
    return tuple(_arc_count(_block(v, t), x, _omitted(face))
                 for t, face in tri.boundary_facets() for x in face)


# ---------------------------------------------------------------------------
# Coordinates under bench/gen.py's relabellings. gen.relabel moves
# tetrahedron `name` to position order.index(name) and renames its vertex
# x to sigma[x]: a triangle type follows its vertex, and the quad type
# separating {0, x} follows that pair.

def _relabelled_slots(tri, relabelling):
    """Per coordinate i of tri's vectors, its coordinate in the
    relabelled triangulation's."""
    order, perms = relabelling
    slots = []
    for t in range(tri.size):
        sigma = perms[tri.name(t)]
        at = 7 * order.index(tri.name(t))
        slots += [at + sigma[x] for x in range(4)]
        slots += [at + _pair_offset(sigma[0], sigma[x]) for x in (1, 2, 3)]
    return slots


def canonical_coordinates(v, tri, relabelling):
    """v, a vector of gen.relabel(tri, relabelling), in tri's labels."""
    return tuple(v[j] for j in _relabelled_slots(tri, relabelling))


def relabelled_coordinates(v, tri, relabelling):
    """v, a vector of tri, in the labels of gen.relabel(tri, relabelling):
    the inverse of canonical_coordinates."""
    out = [0] * len(v)
    for i, j in enumerate(_relabelled_slots(tri, relabelling)):
        out[j] = v[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# 2D curve components by endpoint-position arithmetic.

def trace_curve_components(surf, v):
    arcs = set()
    for i in range(surf.triangle_count):
        for x in range(3):
            for d in range(1, v[3 * i + x] + 1):
                arcs.add((i, x, d))

    def endpoint(i, x, d, other):
        e = (min(x, other), max(x, other))
        ax = v[3 * i + x]
        ao = v[3 * i + other]
        pos = d if x == e[0] else ax + ao + 1 - d
        return (i, e, pos)

    point_arcs = {}
    for (i, x, d) in arcs:
        for other in range(3):
            if other == x:
                continue
            point_arcs.setdefault(endpoint(i, x, d, other), []).append(
                (i, x, d))
    uf = UF(arcs)
    for (i, e), (j, je), vmap in surf.interior_pairs():
        total = v[3 * i + e[0]] + v[3 * i + e[1]]
        for pos in range(1, total + 1):
            jpos = pos if vmap[e[0]] == je[0] else total + 1 - pos
            (a,) = point_arcs[(i, e, pos)]
            (b,) = point_arcs[(j, je, jpos)]
            uf.union(a, b)
    return len(uf.groups()) if arcs else 0


def trace_curve_regions(surf, v):
    """Pieces the curve of v cuts surf into. Along an edge (x, y) of
    triangle i, segment s (from x's end) lies in the region beyond the
    s-th arc cutting off x, in the centre, or beyond an arc cutting off
    y; glued edges share their segments, reversed when the edge is."""
    def region(i, edge, s):
        x, y = edge
        ax, ay = v[3 * i + x], v[3 * i + y]
        if s == ax:
            return (i, "centre")
        return (i, x, s) if s < ax else (i, y, ax + ay - s)

    uf = UF([(i, "centre") for i in range(surf.triangle_count)]
            + [(i, x, k) for i in range(surf.triangle_count)
               for x in range(3) for k in range(v[3 * i + x])])
    for (i, e), (j, je), vmap in surf.interior_pairs():
        total = v[3 * i + e[0]] + v[3 * i + e[1]]
        for s in range(total + 1):
            js = s if vmap[e[0]] == je[0] else total - s
            uf.union(region(i, e, s), region(j, je, js))
    return len(uf.groups())


def triangle_component_uf(surf):
    """Flood fill of triangles across interior edge gluings."""
    uf = UF(range(surf.triangle_count))
    for (i, _), (j, _), _ in surf.interior_pairs():
        uf.union(i, j)
    return uf


def random_surface(rng, max_triangles=6):
    """Random valid bounded 2D triangulation (possibly disconnected)."""
    from normsurf.curves2d import SurfaceTriangulation

    n = rng.randint(1, max_triangles)
    names = [f"T{k}" for k in range(n)]
    spots = [(k, e) for k in range(n) for e in ((0, 1), (0, 2), (1, 2))]
    rng.shuffle(spots)
    records = []
    used = set()
    for a in range(0, len(spots) - 1, 2):
        if rng.random() < 0.45:
            continue
        s1, s2 = spots[a], spots[a + 1]
        if s1 in used or s2 in used or s1 == s2:
            continue
        used.add(s1)
        used.add(s2)
        image = list(s2[1])
        if rng.random() < 0.5:
            image.reverse()
        records.append((names[s1[0]], s1[1], names[s2[0]], tuple(image)))
    return SurfaceTriangulation(names, records)


# ---------------------------------------------------------------------------
# Bounded brute-force solving for Hilbert-basis cross-checks.

def bounded_solutions(system, bound):
    """Every solution with all coordinates <= bound, as a set of tuples.

    Exhaustive grid over the non-forced variables, fully vectorized.
    """
    n = system.variable_count
    forced = set(system.forced_zeros)
    free = [i for i in range(n) if i not in forced]
    if not free:
        grid = np.zeros((1, n), dtype=np.int16)
    else:
        axes = np.indices((bound + 1,) * len(free), dtype=np.int16)
        flat = axes.reshape(len(free), -1).T
        grid = np.zeros((flat.shape[0], n), dtype=np.int16)
        grid[:, free] = flat
    mask = np.ones(grid.shape[0], dtype=bool)
    for (i, j, k, l) in system.equations:
        mask &= grid[:, i] + grid[:, j] == grid[:, k] + grid[:, l]
    return {tuple(int(x) for x in row) for row in grid[mask]}


def brute_force_solutions(system, bound, *, max_states=2_000_000):
    """All solutions with every coordinate <= bound, by exhaustive search.

    Variables are enumerated one at a time with interval pruning per
    equation (a partial assignment dies once an equation can no longer
    reach zero). Forced zeros clamp their variables directly. Raises
    ResourceLimitExceeded when the partial-assignment population
    exceeds max_states.
    """
    from normsurf.errors import ResourceLimitExceeded, VectorError

    if bound < 0:
        raise VectorError("bound must be >= 0")
    n = system.variable_count
    rows = []
    for (i, j, k, l) in system.equations:
        row = {}
        for var, c in ((i, 1), (j, 1), (k, -1), (l, -1)):
            row[var] = row.get(var, 0) + c
        row = {v: c for v, c in row.items() if c}
        if row:
            rows.append(row)

    # Order variables so related ones are adjacent; equations resolve early.
    order = []
    seen = set()
    for row in rows:
        for v in sorted(row):
            if v not in seen:
                seen.add(v)
                order.append(v)
    order.extend(v for v in range(n) if v not in seen)

    m = len(rows)
    coef = np.zeros((m, n), dtype=np.int64)
    for r, row in enumerate(rows):
        for v, c in row.items():
            coef[r, v] = c

    # After processing prefix of length k, equation r can still change by
    # any amount in [lo_future[r, k], hi_future[r, k]].
    lo_future = np.zeros((m, n + 1), dtype=np.int64)
    hi_future = np.zeros((m, n + 1), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        contrib = coef[:, order[k]] * bound
        lo_future[:, k] = lo_future[:, k + 1] + np.minimum(contrib, 0)
        hi_future[:, k] = hi_future[:, k + 1] + np.maximum(contrib, 0)

    states = np.zeros((1, n), dtype=np.int64)
    sums = np.zeros((1, m), dtype=np.int64)
    for k, v in enumerate(order):
        top = 0 if v in system.forced_zeros else bound
        reps = []
        new_sums = []
        for value in range(top + 1):
            reps.append(np.concatenate(
                [states[:, :v], np.full((len(states), 1), value, np.int64),
                 states[:, v + 1:]], axis=1))
            new_sums.append(sums + value * coef[:, v])
        states = np.concatenate(reps, axis=0)
        sums = np.concatenate(new_sums, axis=0)
        ok = ((sums + lo_future[:, k + 1] <= 0)
              & (sums + hi_future[:, k + 1] >= 0)).all(axis=1)
        states = states[ok]
        sums = sums[ok]
        if len(states) > max_states:
            raise ResourceLimitExceeded(
                f"brute force state population {len(states)} exceeds "
                f"{max_states}",
                candidates=len(states), elapsed=0.0)
    return {tuple(int(x) for x in row) for row in states}


def minimal_nonzero(solutions):
    """Members with no other nonzero solution below them coordinatewise.

    Correct for any downward-closed bounded slice: a witness of
    non-minimality is itself below the bound.
    """
    rows = sorted(s for s in solutions if any(s))
    if not rows:
        return set()
    arr = np.array(rows, dtype=np.int16)
    le = (arr[None, :, :] <= arr[:, None, :]).all(axis=2)
    dominated_count = le.sum(axis=1)
    return {tuple(int(x) for x in arr[i])
            for i in range(len(rows)) if dominated_count[i] == 1}


def decomposes_over(vector, basis):
    """Is the vector a nonnegative integer combination of basis members?"""
    basis = [b for b in basis
             if all(x <= y for x, y in zip(b, vector)) and any(b)]
    seen = set()

    def go(v):
        if not any(v):
            return True
        if v in seen:
            return False
        seen.add(v)
        for b in basis:
            if all(x <= y for x, y in zip(b, v)):
                if go(tuple(y - x for x, y in zip(b, v))):
                    return True
        return False

    return go(tuple(vector))


def filter_admissible(fs):
    """fs keeping only vectors with at most one nonzero quad type per
    block, in the fixed 7-slot layout (quads in slots 4..6) rather than
    a system's quad_triples.

    An admissible solution's summands are themselves solutions below it
    coordinatewise, hence admissible too, so the admissible members of
    the Hilbert basis are exactly the fundamental admissible surfaces.
    """
    return replace(fs, vectors=tuple(
        v for v in fs.vectors
        if all(sum(1 for x in _block(v, t)[4:] if x) <= 1
               for t in range(len(v) // 7))))


def random_quad_system(rng, max_vars=8, forced_allowed=True):
    """Random small homogeneous system in the library's equation shape."""
    from normsurf.matching import MatchingSystem

    n = rng.randint(3, max_vars)
    n_eqs = rng.randint(max(1, n // 2), n + 1)
    eqs = []
    for _ in range(n_eqs):
        i, j, k, l = (rng.randrange(n) for _ in range(4))
        eqs.append((i, j, k, l))
    forced = frozenset()
    if forced_allowed and rng.random() < 0.4:
        forced = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    return MatchingSystem(
        variable_count=n,
        equations=tuple(eqs),
        forced_zeros=forced,
        quad_triples=())


# ---------------------------------------------------------------------------
# Extreme rays of a pointed cone by exhaustive rank-(d-1) row subsets.

def _rational_rank_and_kernel(rows, d):
    """(rank, one kernel vector or None) of a rational matrix with d
    columns, by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(d):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    free = [c for c in range(d) if c not in pivots]
    if not free:
        return len(pivots), None
    z = [Fraction(0)] * d
    z[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        z[c] = -m[i][free[0]]
    return len(pivots), z


def cone_extreme_rays(ineq):
    """Primitive extreme rays of {z : ineq @ z >= 0}, for an integer
    matrix of full column rank.

    An extreme ray is a nonzero point of the cone whose tight rows have
    rank d - 1, so every one spans the kernel of some d - 1 rows of
    rank d - 1; each such kernel line is kept in the direction, if any,
    that lies in the cone.
    """
    d = len(ineq[0])
    if _rational_rank_and_kernel(ineq, d)[0] != d:
        raise ValueError("inequality matrix must have full column rank")
    rays = set()
    for rows in combinations(ineq, d - 1):
        rank, z = _rational_rank_and_kernel(rows, d)
        if rank != d - 1:
            continue
        scale = math.lcm(*(x.denominator for x in z))
        z = [int(x * scale) for x in z]
        g = math.gcd(*z)
        z = [x // g for x in z]
        for w in (z, [-x for x in z]):
            if all(sum(a * b for a, b in zip(row, w)) >= 0 for row in ineq):
                rays.add(tuple(w))
    return rays


# ---------------------------------------------------------------------------
# One completion-search lift, with a per-value archive of partial sums and
# every finished sum kept.

def lift_reference(H, vals):
    """(minimal finished sums in lexicographic order, candidates built)
    for the monoid generated by the rows of H, restricted to the
    equation whose value on row i is vals[i].

    Partial sums grow breadth-first by generators of the opposite sign
    until their value cancels. Each step keeps, per running value, the
    minimal sums seen so far and extends only the ones new to that
    archive; a sum above any finished sum is dropped.
    """
    H = [tuple(int(x) for x in row) for row in H]
    vals = [int(v) for v in vals]
    zero = [h for h, v in zip(H, vals) if v == 0]
    if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
        return zero, 0
    pos = [(h, v) for h, v in zip(H, vals) if v > 0]
    neg = [(h, v) for h, v in zip(H, vals) if v < 0]

    def above(a, b):
        return all(x >= y for x, y in zip(a, b))

    def minimal(rows):
        rows = sorted({r for r in rows if any(r)})
        return [r for r in rows
                if not any(o != r and above(r, o) for o in rows)]

    finished = list(zero)
    archive = {}
    cand = [(h, v) for h, v in zip(H, vals) if v]
    built = 0
    while cand:
        frontier = []
        for value in sorted({v for _, v in cand}):
            old = archive.get(value, [])
            merged = minimal(old + [r for r, v in cand if v == value])
            archive[value] = merged
            frontier += [(r, value) for r in merged
                         if not any(above(r, o) for o in old)]
        cand = [(tuple(a + b for a, b in zip(r, g)), v + w)
                for r, v in frontier for g, w in (neg if v > 0 else pos)]
        built += len(cand)
        finished += [r for r, v in cand if v == 0]
        cand = [(r, v) for r, v in cand
                if v and not any(above(r, f) for f in finished)]
    return minimal(finished), built


# ---------------------------------------------------------------------------
# Smith normal form with transforms, as the library computed it before it
# moved to sparse storage and unit shortcuts: a dense, full rescan for every
# pivot. homology._smith, which leaves S, U and V in the augmented rows its
# callers pass, must keep producing exactly these; V^-1 is what
# h1_reference projects cycles with.

def smith_reference(
        A: Sequence[Sequence[int]], m: int, n: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]],
           list[list[int]]]:
    """Smith normal form S = U A V with U, V unimodular, and V's inverse.

    Exact arbitrary-precision integers throughout; the diagonal is
    nonnegative with each entry dividing the next. Each column operation
    on V applies the inverse row operation to V^-1, so the columns of V
    past the rank are a basis of the integer kernel of A and the rows of
    V^-1 past the rank project a vector onto them.
    """
    S = [[int(A[i][j]) for j in range(n)] for i in range(m)]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vinv = [row[:] for row in V]

    def row_sub(i, j, q):
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):
        for r in range(m):
            S[r][i] -= q * S[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]
        Vinv[j] = [a + q * b for a, b in zip(Vinv[j], Vinv[i])]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def positivize(t):
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]

    t = 0
    while t < m and t < n:
        best = None
        pi = pj = t
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        row_swap(t, pi)
        col_swap(t, pj)
        positivize(t)

        while True:
            swapped = False
            for i in range(m):
                if i != t and S[i][t]:
                    row_sub(i, t, S[i][t] // S[t][t])
                    if S[i][t]:
                        # remainder beats the pivot; promote it
                        row_swap(t, i)
                        positivize(t)
                        swapped = True
            if swapped:
                continue
            for j in range(n):
                if j != t and S[t][j]:
                    col_sub(j, t, S[t][j] // S[t][t])
                    if S[t][j]:
                        col_swap(t, j)
                        swapped = True
            if not swapped:
                break

        offender = -1
        for i in range(t + 1, m):
            if any(S[i][j] % S[t][t] for j in range(t + 1, n)):
                offender = i
                break
        if offender >= 0:
            # fold the offending row in and rerun this pivot
            row_sub(t, offender, -1)
            continue
        t += 1
    return S, U, V, Vinv


# ---------------------------------------------------------------------------
# Simplicial cones from the reference Smith form, in exact fractions: the
# index of a simplex and its fundamental parallelepiped's lattice points.

def simplex_index(kernel_rays):
    """The index of the lattice the rows of kernel_rays span in the
    integer points of their span: the product of the invariant factors."""
    k = len(kernel_rays)
    S = smith_reference(kernel_rays, k, len(kernel_rays[0]))[0]
    return math.prod(S[i][i] for i in range(k))


def parallelepiped_reference(kernel_rays, normals):
    """The nonzero lattice points of the fundamental parallelepiped
    {sum l_i r_i : 0 <= l_i < 1} of k independent rays, given in kernel
    coordinates (the rows of R) and mapped to the rows of normals.

    With S = U R V from smith_reference and s its diagonal, the lattice
    points of R's row span are the l R with l = y diag(1/s) U, y
    integral, and y in the box 0 <= y_j < s_j gives each point of the
    parallelepiped once, as frac(l)."""
    k = len(kernel_rays)
    S, U, _, _ = smith_reference(kernel_rays, k, len(kernel_rays[0]))
    s = [S[i][i] for i in range(k)]
    points = set()
    for y in product(*map(range, s)):
        frac = [x - math.floor(x) for x in (
            sum(Fraction(y[j] * U[j][i], s[j]) for j in range(k))
            for i in range(k))]
        point = [sum(f * row[c] for f, row in zip(frac, normals))
                 for c in range(len(normals[0]))]
        assert all(x.denominator == 1 for x in point)
        if any(point):
            points.add(tuple(int(x) for x in point))
    assert len(points) == math.prod(s) - 1
    return points


# ---------------------------------------------------------------------------
# First homology as the library computed it before it took the cycle space
# from a spanning forest: the complex rebuilt from the skeleton, each vertex
# link's cells counted by surface_cell_counts, and cycles projected onto
# ker d1 by the rows of d1's V^-1 past the rank.

class H1Reference:
    """H1 of the quotient complex. Chains are lists over edge classes;
    class_of gives (values, orders) as the library's H1Class does."""

    def __init__(self, tri):
        skel = tri.skeleton
        n_v, n_e = len(skel.vertex_classes), len(skel.edge_classes)
        self.nonmaterial = [vc.index for vc in skel.vertex_classes
                            if not _is_material(tri, vc.members)]

        self.face_basis = []
        seen = set()
        for t in range(tri.size):
            for face in _FACES:
                if (t, face) in seen:
                    continue
                seen.add((t, face))
                target = tri.glued_to(t, face)
                if target is not None:
                    seen.add((target[0], tuple(sorted(target[1]))))
                self.face_basis.append((t, face))
        n_f = len(self.face_basis)

        def sign(t, x, y):
            ec = skel.edge_classes[skel.edge_class_of[t, (x, y)]]
            return ec.index, 1 if ec.directions[t, (x, y)] == (x, y) else -1

        self.d1 = [[0] * n_e for _ in range(n_v)]
        for ec in skel.edge_classes:
            t, (a, b) = min(ec.members)
            self.d1[skel.vertex_class_of[t, b]][ec.index] += 1
            self.d1[skel.vertex_class_of[t, a]][ec.index] -= 1
        self.d2 = [[0] * n_f for _ in range(n_e)]
        for col, (t, (i, j, k)) in enumerate(self.face_basis):
            for sgn, (x, y) in ((1, (j, k)), (-1, (i, k)), (1, (i, j))):
                row, orient = sign(t, x, y)
                self.d2[row][col] += sgn * orient

        S1, _, V1, V1inv = smith_reference(self.d1, n_v, n_e)
        r1 = sum(1 for i in range(min(n_v, n_e)) if S1[i][i])
        # columns of V1 past the rank span the cycles; P projects onto them
        self.cycle_basis = [[row[j] for row in V1] for j in range(r1, n_e)]
        self.P = V1inv[r1:]
        x = [[sum(a * b for a, b in zip(p, col)) for col in zip(*self.d2)]
             for p in self.P]
        k = n_e - r1
        S, self.U, _, _ = smith_reference(x, k, n_f)
        self.diag = [S[i][i] for i in range(min(k, n_f)) if S[i][i]]
        self.free_rank = k - len(self.diag)
        self.torsion = tuple(d for d in self.diag if d > 1)

    def _coordinates(self, chain):
        z = [sum(a * b for a, b in zip(p, chain)) for p in self.P]
        return [sum(a * b for a, b in zip(u, z)) for u in self.U]

    def class_of(self, chain):
        w = self._coordinates(chain)
        r = len(self.diag)
        values = [w[i] % d for i, d in enumerate(self.diag) if d > 1]
        orders = [d for d in self.diag if d > 1]
        return (tuple(values + w[r:]),
                tuple(orders + [0] * (len(w) - r)))


def h1_reference(tri):
    """H1Reference of the triangulation."""
    return H1Reference(tri)


def _is_material(tri, corners):
    """Whether the link of the vertex class with these corners is one
    sphere or one disk, by counting the cells of its corner triangles."""
    v = [0] * (7 * tri.size)
    for t, x in corners:
        v[7 * t + x] = 1
    _, _, _, chi, comps, circles = surface_cell_counts(tri, v)
    return comps == 1 and (chi, circles) in ((2, 0), (1, 1))


# ---------------------------------------------------------------------------
# First homology of the manifold truncated at its non-material vertex
# classes, from the truncated cell complex itself rather than from a
# retraction onto the cells that miss those classes.

class TruncatedH1Reference:
    """H1 of the triangulation with a small cone neighbourhood of each
    non-material vertex class cut away. Each edge end at such a class
    becomes a vertex, each face corner there an edge (an arc), and each
    tetrahedron corner there a triangle; an edge cut at both ends raises
    ValueError, as does an edge glued to itself reversed.

    Chains are dicts from directed edges (t, (u, v)) to coefficients.
    cycles is a basis of the 1-cycles on the edges that miss those
    classes.
    """

    def __init__(self, tri):
        n = tri.size
        corners = UF((t, x) for t in range(n) for x in range(4))
        directed = UF((t, (u, v)) for t in range(n)
                      for u in range(4) for v in range(4) if u != v)
        # (t, x, y, z): at corner x, from the cut on xy to the cut on xz
        arcs = UF((t, x, y, z) for t in range(n) for x in range(4)
                  for y in range(4) for z in range(4)
                  if len({x, y, z}) == 3)
        faces = UF((t, f) for t in range(n) for f in _FACES)
        for (ta, fa), (tb, fb), vmap in tri.interior_pairs():
            faces.union((ta, fa), (tb, fb))
            for x in fa:
                corners.union((ta, x), (tb, vmap[x]))
                for y in fa:
                    if y != x:
                        directed.union((ta, (x, y)),
                                       (tb, (vmap[x], vmap[y])))
                        z = (set(fa) - {x, y}).pop()
                        arcs.union((ta, x, y, z),
                                   (tb, vmap[x], vmap[y], vmap[z]))
        cut = {root for root, members in corners.groups().items()
               if not _is_material(tri, members)}

        def at_cut(t, x):
            return corners.find((t, x)) in cut

        def oriented(uf, item, reverse):
            """(class, sign): a class is the lesser of the two roots of
            an item and its reverse, and the sign says which it is."""
            a, b = uf.find(item), uf.find(reverse)
            if a == b:
                raise ValueError(f"{item} is glued to itself reversed")
            return min(a, b), 1 if a < b else -1

        def edge(t, u, v):
            return oriented(directed, (t, (u, v)), (t, (v, u)))

        def arc(t, x, y, z):
            return oriented(arcs, (t, x, y, z), (t, x, z, y))

        def end(t, u, v):
            # the vertex at v of the directed edge u -> v
            return ("cut", edge(t, u, v)[0]) if at_cut(t, v) \
                else corners.find((t, v))

        ends, kept = {}, set()  # kept: the edges that miss the cut
        for t in range(n):
            for u, v in combinations(range(4), 2):
                if at_cut(t, u) and at_cut(t, v):
                    raise ValueError(f"edge {t}({u}{v}) is cut at both ends")
                e, sign = edge(t, u, v)
                tail, head = end(t, v, u), end(t, u, v)
                ends[e] = (tail, head) if sign > 0 else (head, tail)
                if not (at_cut(t, u) or at_cut(t, v)):
                    kept.add(e)
        cut_corners = [(t, x) for t in range(n) for x in range(4)
                       if at_cut(t, x)]
        for t, x in cut_corners:
            for y, z in permutations(set(range(4)) - {x}, 2):
                a, sign = arc(t, x, y, z)
                pair = ("cut", edge(t, x, y)[0]), ("cut", edge(t, x, z)[0])
                ends[a] = pair if sign > 0 else pair[::-1]
        edges = {e: i for i, e in enumerate(ends)}
        vertices = {p: i for i, p in enumerate(dict.fromkeys(
            p for pair in ends.values() for p in pair))}
        self._edges, self._edge = edges, edge

        def boundary(cells):
            col = [0] * len(edges)
            for e, sign in cells:
                col[edges[e]] += sign
            return col

        columns = []
        for t, (i, j, k) in faces.groups():
            x, y, z = next((r for r in ((i, j, k), (j, k, i), (k, i, j))
                            if at_cut(t, r[0])), (i, j, k))
            cells = [edge(t, x, y), edge(t, y, z), edge(t, z, x)]
            if at_cut(t, x):  # a quadrilateral, closed by the arc at x
                cells.append(arc(t, x, z, y))
            columns.append(boundary(cells))
        for t, x in cut_corners:
            a, b, c = sorted(set(range(4)) - {x})
            columns.append(boundary([arc(t, x, a, b), arc(t, x, b, c),
                                     arc(t, x, c, a)]))

        d1 = [[0] * len(edges) for _ in vertices]
        for e, (tail, head) in ends.items():
            d1[vertices[head]][edges[e]] += 1
            d1[vertices[tail]][edges[e]] -= 1
        d2 = [list(row) for row in zip(*columns)]
        assert not any(sum(a * b for a, b in zip(row, col))
                       for row in d1 for col in columns)

        n_v, n_e, n_f = len(vertices), len(edges), len(columns)
        S1, _, _, _ = smith_reference(d1, n_v, n_e)
        r1 = sum(1 for i in range(min(n_v, n_e)) if S1[i][i])
        S, self._U, _, _ = smith_reference(d2, n_e, n_f)
        self._diag = [S[i][i] for i in range(min(n_e, n_f)) if S[i][i]]
        self.free_rank = n_e - r1 - len(self._diag)
        self.torsion = tuple(d for d in self._diag if d > 1)

        # cycles on the edges that miss the cut classes: d1's kernel there
        kept = sorted(kept)
        sub = [[row[edges[e]] for e in kept] for row in d1]
        S0, _, V0, _ = smith_reference(sub, n_v, len(kept))
        r0 = sum(1 for i in range(min(n_v, len(kept))) if S0[i][i])
        self.cycles = [{e: row[j] for e, row in zip(kept, V0) if row[j]}
                       for j in range(r0, len(kept))]

    def vector(self, chain):
        """The chain as a list over this complex's edges."""
        out = [0] * len(self._edges)
        for (t, (u, v)), c in chain.items():
            e, sign = self._edge(t, u, v)
            out[self._edges[e]] += sign * c
        return out

    def is_null(self, chain):
        w = [sum(a * b for a, b in zip(row, self.vector(chain)))
             for row in self._U]
        r = len(self._diag)
        return not any(w[r:]) and not any(
            x % d for x, d in zip(w, self._diag))


# ---------------------------------------------------------------------------
# Admissible fundamental solutions by the completion search, as the library
# computed them before it triangulated faces. Unlike everything above, this
# drives the library's own reduction and completion search: it is the
# previous algorithm kept whole, so that agreement checks the new one
# against it. The reduction is looked up on the module at call time, so a
# test can record the reductions it builds.

def admissible_by_completion(system):
    """The admissible members of the system's Hilbert basis, sorted: for
    each face the library covers the admissible solutions with, every
    quad outside the face's patterns is forced to zero, and the
    subsystem's full Hilbert basis is found by reduction and completion
    search. Subsystems with the same zero set run once."""
    from normsurf import hilbert

    budget = hilbert._Budget(hilbert.DEFAULT_MAX_CANDIDATES, None)
    equations = [hilbert._quadruple_to_row(eq) for eq in system.equations]
    _, _, patterns = hilbert._admissible_rays(system, budget)
    all_quads = {q for triple in system.quad_triples for q in triple}
    solutions = set()
    seen_zero_sets = set()
    for face in hilbert._faces(patterns, system.quad_triples, budget):
        allowed = set().union(*(p for r, p in enumerate(patterns)
                                if face >> r & 1))
        zeros = frozenset(system.forced_zeros | (all_quads - allowed))
        if zeros in seen_zero_sets:
            continue
        seen_zero_sets.add(zeros)
        solutions.update(hilbert._enumerate_dual(
            hilbert._Reduction(system.variable_count, equations, zeros),
            budget))
    return tuple(sorted(solutions))


# ---------------------------------------------------------------------------
# Maximal cliques by the recursive Bron-Kerbosch search with pivoting that
# the library ran before its search kept its own stack: the reference for
# the order in which the cliques come out.

def maximal_cliques_recursive(neighbors):
    """Maximal cliques, vertices as bitmask ints, in the order of the
    recursive search: the pivot is the first vertex of P | X with the
    most neighbors in P, and the candidates go lowest first."""
    def bits(mask):
        return [k for k in range(mask.bit_length()) if mask >> k & 1]

    out = []

    def extend(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot, best = -1, -1
        for v in bits(p | x):
            cnt = bin(p & neighbors[v]).count("1")
            if cnt > best:
                pivot, best = v, cnt
        for v in bits(p & ~neighbors[pivot]):
            b = 1 << v
            extend(r | b, p & neighbors[v], x & neighbors[v])
            p ^= b
            x |= b

    if neighbors:
        extend(0, (1 << len(neighbors)) - 1, 0)
    return out


# ---------------------------------------------------------------------------
# Hilbert basis of a small face from every simplicial subset of its rays.

def _determinant(rows):
    """Determinant of a square integer matrix, by elimination over
    Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return int(det)


def hilbert_by_subset_cover(rays):
    """The Hilbert basis of the lattice points of cone(rays), for the
    rays of a face of a cone {x >= 0 : A x = 0}, so that a lattice point
    of it is reducible exactly when another lies below it
    coordinatewise.

    Needs no triangulation: every linearly independent subset of rank
    many rays spans a simplicial cone, and together they cover the face.
    A lattice point of such a cone's fundamental parallelepiped is
    sum l_i r_i with 0 <= l_i < 1, and by Cramer's rule each l_i times
    any maximal minor of the subset is an integer, so each l_i is a_i / D
    with D the gcd of those minors and 0 <= a_i < D: every such
    combination is tried. The basis is the minimal nonzero
    candidates among the rays and those points.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
    if not rays:
        return set()
    n = len(rays[0])
    k = _rational_rank_and_kernel(rays, n)[0]
    candidates = set(rays)
    for subset in combinations(rays, k):
        if _rational_rank_and_kernel(subset, n)[0] < k:
            continue
        D = math.gcd(*(_determinant([[r[j] for j in cols] for r in subset])
                       for cols in combinations(range(n), k)))
        a = np.indices((D,) * k).reshape(k, -1).T
        v = a @ np.array(subset, dtype=np.int64)
        for row in v[(v % D == 0).all(1) & a.any(1)] // D:
            candidates.add(tuple(int(x) for x in row))
    return minimal_nonzero(candidates)


# ---------------------------------------------------------------------------
# The faces of the admissible search as the library found them when it
# tested coherence one pair of quad patterns at a time.

def faces_reference(patterns, quad_triples):
    """(neighbors, faces): the coherence graph of the distinct patterns,
    sorted, as bitmask ints, and the ray sets of its maximal cliques in
    the order of the recursive search, each set once."""
    block_of = {q: b for b, triple in enumerate(quad_triples)
                for q in triple}
    plist = sorted(set(patterns), key=sorted)
    index = {p: k for k, p in enumerate(plist)}
    rays_of = [0] * len(plist)
    for r, p in enumerate(patterns):
        rays_of[index[p]] |= 1 << r
    quads = [sum(1 << q for q in p) for p in plist]
    blocks = [sum(1 << block_of[q] for q in p) for p in plist]
    neighbors = [0] * len(plist)
    for i in range(len(plist)):
        for j in range(i + 1, len(plist)):
            if (quads[i] | quads[j]).bit_count() == \
                    (blocks[i] | blocks[j]).bit_count():
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    faces = list(dict.fromkeys(
        sum(rays_of[k] for k in range(len(plist)) if clique >> k & 1)
        for clique in maximal_cliques_recursive(neighbors)))
    return neighbors, faces
