"""Integer simplicial homology of the glued complex.

The quotient complex of a triangulation has one cell per vertex class,
edge class, and face class. This module assembles its integer boundary
matrices, computes H1 = ker d1 / im d2, and classifies 1-cycles: every
cycle gets canonical coordinates in H1 and a nullity test.

The cycle space ker d1 comes from a spanning forest of the skeleton
graph: each edge class left out of it closes one fundamental cycle, and
a 1-cycle's coordinates in that basis are its values on those edges. So
x, im d2 in these coordinates, is those rows of d2, and one exact Smith
form S = U x V gives the group and U a cycle's class. It comes from
_smith, the one exact integer elimination, shared with hilbert; its
docstring defines the layout of appended transforms.

H1 is the manifold's, truncated at non-material vertex classes (links
neither spheres nor disks): on the closed figure-eight extension, the
knot exterior. If no edge class has both ends there, projecting each
cell away from its one corner there retracts the truncation onto the
cells that miss them: the face basis keeps those, and cut edge classes
(an end there) carry no 1-chain.

Orientation conventions:
  - Each edge class is oriented by its lexicographically least member
    (tetrahedron index first, then the sorted vertex pair), pointing
    from the smaller corner label to the larger one.
  - A face class is oriented by its representative spot (t, (i, j, k))
    with i < j < k; its boundary is [jk] - [ik] + [ij], each edge taken
    with the sign relating that traversal to the class orientation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import HomologyError
from .matching import BLOCK
from .triangulation import (
    EdgeCycle,
    LinkSpec,
    Skeleton,
    Triangulation,
    resolve_link,
)
from .union_find import UnionFind

Matrix = tuple[tuple[int, ...], ...]
Chain = Mapping[int, int]


@dataclass(frozen=True)
class ChainComplex:
    """Boundary matrices of the quotient complex over its class bases.

    boundary1 maps edge classes to vertex classes (rows indexed by
    vertex class, columns by edge class); boundary2 maps face classes
    to edge classes. nonmaterial_vertex_classes have links neither
    spheres nor disks; cut_edges end at one, and face_basis lists one
    spot per face class with no corner at one, in first-seen order.
    """

    skeleton: Skeleton
    face_basis: tuple[tuple[int, tuple[int, int, int]], ...]
    boundary1: Matrix
    boundary2: Matrix
    nonmaterial_vertex_classes: tuple[int, ...]
    cut_edges: frozenset[int]


@dataclass(frozen=True)
class H1Class:
    """An element of H1 in canonical coordinates.

    values and orders run in parallel: coordinate i lives in Z when
    orders[i] == 0 and in Z/orders[i] otherwise, already reduced to
    the range 0..orders[i]-1. To add or scale classes, add or scale
    their chains: `H1Summary.class_of` is linear.
    """

    values: tuple[int, ...]
    orders: tuple[int, ...]

    @property
    def is_null(self) -> bool:
        return not any(self.values)


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst -= q * src over the nonzeros of src.

    Sparse vectors are dicts from index to value that hold no zeros.
    """
    if q:
        for k, b in src.items():
            v = dst.get(k, 0) - q * b
            if v:
                dst[k] = v
            else:
                del dst[k]


def _sparse(row: Sequence[int]) -> dict[int, int]:
    return {j: int(x) for j, x in enumerate(row) if x}


def _smith(rows: list[dict[int, int]], m: int, n: int) -> list[int]:
    """Smith normal form S = U A V, in place, with U and V unimodular;
    returns the nonzero diagonal of S, each entry dividing the next.

    rows are sparse (dicts from column to nonzero), and A is the block
    of their first m rows and first n columns. Each row operation acts
    on a whole row and each column operation on a whole column, but only
    block entries choose them. So a caller appends what it reads:
      - {n + i: 1} merged into block row i: row i of U ends up in its
        columns n..n + m - 1, and row i of S in its columns < n;
      - rows {j: 1} for j < n below the block: they end up as V's rows.
    Exact arbitrary-precision integers throughout; the columns of V
    past the rank are a basis of the integer kernel of A.

    The transforms depend on the sequence of operations, which is fixed:
    the pivot for position t is the entry of smallest absolute value in
    rows and columns >= t, the first in row-major order on ties. It is
    swapped to (t, t) and made positive. Rows, top to bottom, then
    columns, left to right, subtract floor multiples of it, a nonzero
    remainder being swapped in as the new pivot, until both are clear.
    If an entry past (t, t) is not a multiple of the pivot, the first
    row holding one is added to the pivot row and t starts over.

    Only nonzero work is done, which leaves that sequence unchanged:
      - No entry is smaller than a unit, so the pivot search stops at
        the first entry of absolute value 1: later ones could only tie.
      - Every integer is a multiple of a unit pivot, so the
        divisibility scan is skipped for one.
      - An operation touches its source's nonzeros, and a pass visits
        only the rows holding the pivot column: after the row pass, the
        pivot row and the appended rows the last column swap found.
      - Earlier pivots cleared their rows and columns, so a column swap
        skips the rows above t.
    """
    def col_swap(i, j):
        # i is the pivot position; returns the rows then holding column i
        held = []
        for r, row in enumerate(rows[i:], i):
            if i in row or j in row:
                # j goes first, so that j == i leaves the entry in held
                b, a = row.pop(j, 0), row.pop(i, 0)
                if b:
                    row[i] = b
                    held.append(r)
                if a:
                    row[j] = a
        return held

    def positivize(t):
        if rows[t][t] < 0:
            rows[t] = {k: -x for k, x in rows[t].items()}

    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            v, j = min(((abs(x), j) for j, x in rows[i].items() if j < n),
                       default=(0, 0))
            if v and (best is None or v < best):
                best, pi, pj = v, i, j
                if v == 1:
                    break
        if best is None:
            break
        rows[t], rows[pi] = rows[pi], rows[t]
        held = col_swap(t, pj)
        positivize(t)

        while True:
            swapped = False
            for i in [i for i in range(m) if i != t and t in rows[i]]:
                _axpy(rows[i], rows[t], rows[i][t] // rows[t][t])
                if t in rows[i]:
                    # remainder beats the pivot; promote it
                    rows[t], rows[i] = rows[i], rows[t]
                    positivize(t)
                    swapped = True
            if swapped:
                continue
            # column j -= q * column t, on the rows holding column t
            cols = [rows[t]] + [rows[r] for r in held if r >= m]
            for j in sorted(k for k in rows[t] if t != k < n):
                q = rows[t][j] // rows[t][t]
                if q:
                    for row in cols:
                        v = row.get(j, 0) - q * row[t]
                        if v:
                            row[j] = v
                        else:
                            del row[j]
                if j in rows[t]:
                    held = col_swap(t, j)
                    cols = [rows[r] for r in held]
                    swapped = True
            if not swapped:
                break

        p = rows[t][t]
        if p != 1:
            offender = next(
                (i for i in range(t + 1, m)
                 if any(x % p for j, x in rows[i].items() if t < j < n)),
                -1)
            if offender >= 0:
                # fold the offending row in and rerun this pivot
                _axpy(rows[t], rows[offender], -1)
                continue
        t += 1
    return [rows[i][i] for i in range(t)]


def _matvec(A: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def _nonmaterial_vertex_classes(tri: Triangulation,
                                skel: Skeleton) -> tuple[int, ...]:
    """Vertex classes whose link is neither a sphere nor a disk.

    A class is one orbit of corners under the face gluings, so its link
    is connected; it has boundary exactly when the class does. Its Euler
    characteristic is the Euler form (exact on admissible vectors) on
    its corner triangles: 1 for a disk, 2 for a sphere.
    """
    chi = tri.euler_coefficients
    return tuple(
        vc.index for vc in skel.vertex_classes
        if sum(chi[BLOCK * t + v] for t, v in vc.members)
        != (1 if vc.boundary else 2))


def chain_complex(tri: Triangulation) -> ChainComplex:
    """Boundary matrices of the quotient complex.

    Every edge class of a valid triangulation is oriented (its
    skeleton refuses one glued to itself reversed). Raises
    HomologyError when an edge class has both ends at non-material
    vertex classes (no projection retracts it).
    """
    skel = tri.skeleton
    nonmaterial = _nonmaterial_vertex_classes(tri, skel)
    for ec in skel.edge_classes:
        t, (u, v) = ec.members[0]
        if {skel.vertex_class_of[(t, u)],
                skel.vertex_class_of[(t, v)]} <= set(nonmaterial):
            raise HomologyError(f"edge class {ec.index} has both ends at "
                                "non-material classes")

    n_v, n_e = len(skel.vertex_classes), len(skel.edge_classes)

    sources = {spot for spot, _, _ in tri.interior_pairs()}
    face_basis = [(t, face) for t, face in tri.facet_spots()
                  if ((t, face) in sources or tri.glued_to(t, face) is None)
                  and all(skel.vertex_class_of[(t, x)] not in nonmaterial
                          for x in face)]

    d1 = [[0] * n_e for _ in range(n_v)]
    for ec in skel.edge_classes:
        t, _ = least = min(ec.members)
        u, v = ec.directions[least]
        d1[skel.vertex_class_of[(t, v)]][ec.index] += 1
        d1[skel.vertex_class_of[(t, u)]][ec.index] -= 1

    d2 = [[0] * len(face_basis) for _ in range(n_e)]
    for col, (t, face) in enumerate(face_basis):
        i, j, k = face
        for sign, (x, y) in ((1, (j, k)), (-1, (i, k)), (1, (i, j))):
            ec = skel.edge_classes[skel.edge_class_of[(t, (x, y))]]
            coeff = sign if ec.directions[(t, (x, y))] == (x, y) else -sign
            d2[ec.index][col] += coeff

    return ChainComplex(
        skeleton=skel,
        face_basis=tuple(face_basis),
        boundary1=tuple(tuple(r) for r in d1),
        boundary2=tuple(tuple(r) for r in d2),
        nonmaterial_vertex_classes=nonmaterial,
        cut_edges=frozenset(e for n in nonmaterial
                            for e, x in enumerate(d1[n]) if x))


@dataclass(frozen=True)
class H1Summary:
    """First homology with a classifier for 1-cycles.

    The group is Z^free_rank plus one finite cyclic factor per torsion
    entry. class_of turns any 1-cycle (coefficients over the oriented
    edge classes, 0 on cut_edges) into canonical coordinates.
    """

    free_rank: int
    torsion: tuple[int, ...]
    complex: ChainComplex
    _cycle_edges: tuple[int, ...]
    _transform: Matrix
    _image_diag: tuple[int, ...]

    def _coordinates(self, chain: Chain) -> list[int]:
        chain = _as_vector(chain, self.complex)
        if any(chain[e] for e in self.complex.cut_edges):
            raise HomologyError("chain runs along a cut edge class")
        if any(_matvec(self.complex.boundary1, chain)):
            raise HomologyError("chain is not a 1-cycle")
        return _matvec(self._transform,
                       [chain[e] for e in self._cycle_edges])

    def class_of(self, chain: Chain) -> H1Class:
        w = self._coordinates(chain)
        diag = self._image_diag + (0,) * (len(w) - len(self._image_diag))
        kept = [(x, d) for x, d in zip(w, diag) if d != 1]
        return H1Class(values=tuple(x % d if d else x for x, d in kept),
                       orders=tuple(d for _, d in kept))


def _as_vector(chain: Chain, cc: ChainComplex) -> list[int]:
    """The chain's coefficients as ints, one per edge class. A chain
    is a Mapping whose keys are plain ints naming edge classes, and
    every coefficient a number of integral value; anything else raises
    HomologyError."""
    if not isinstance(chain, Mapping):
        raise HomologyError(
            "a chain must map edge classes to coefficients, got a "
            f"{type(chain).__name__}")
    n_e = len(cc.skeleton.edge_classes)
    vec = [0] * n_e
    for idx, coeff in chain.items():
        if not (isinstance(idx, int) and not isinstance(idx, bool)
                and 0 <= idx < n_e):
            raise HomologyError(f"no edge class {idx!r}")
        vec[idx] += _coefficient(coeff)
    return vec


def _coefficient(x) -> int:
    if not (isinstance(x, numbers.Real) and x % 1 == 0):
        raise HomologyError(f"chain coefficient {x!r} is not an integer")
    return int(x)


def h1(tri: Triangulation) -> H1Summary:
    """First integer homology of the manifold truncated at its
    non-material vertex classes (see the module docstring). Raises
    HomologyError as chain_complex does."""
    cc = chain_complex(tri)

    # uncut edges outside a spanning forest index the fundamental cycles
    forest = UnionFind(range(len(cc.boundary1)))
    cycle_edges = []
    for e in sorted(set(range(len(cc.skeleton.edge_classes))) - cc.cut_edges):
        ends = [forest.find(i) for i, row in enumerate(cc.boundary1)
                if row[e]]
        if ends and ends[0] != ends[1]:
            forest.union(*ends)
        else:  # a loop's column is zero
            cycle_edges.append(e)

    k, n_f = len(cycle_edges), len(cc.face_basis)
    rows = [_sparse(cc.boundary2[e]) | {n_f + i: 1}
            for i, e in enumerate(cycle_edges)]
    diag = tuple(_smith(rows, k, n_f))

    return H1Summary(
        free_rank=k - len(diag),
        torsion=tuple(d for d in diag if d > 1),
        complex=cc,
        _cycle_edges=tuple(cycle_edges),
        _transform=tuple(tuple(row.get(n_f + i, 0) for i in range(k))
                         for row in rows),
        _image_diag=diag)


def cycle_chain(tri: Triangulation, cycle: EdgeCycle) -> dict[int, int]:
    """Edge-class coefficients of a closed edge walk.

    Each step traversing an edge class along its orientation counts
    +1, against it -1; steps may cancel. Any other link component,
    such as an ideal vertex, carries no chain and raises HomologyError,
    as does a walk through a non-material vertex class: its class would
    depend on the arc across the truncation that closes it.
    """
    if not isinstance(cycle, EdgeCycle):
        raise HomologyError(f"a cycle must be an edge cycle, got {cycle!r}")
    (comp,) = resolve_link(tri, LinkSpec(components=(cycle,)),
                           require_two_components=False)
    coeffs: dict[int, int] = {}
    for index, sign in comp.edges:
        coeffs[index] = coeffs.get(index, 0) + sign
    if comp.vertex_classes.intersection(
            _nonmaterial_vertex_classes(tri, tri.skeleton)):
        raise HomologyError("the walk visits a non-material vertex class")
    return coeffs
