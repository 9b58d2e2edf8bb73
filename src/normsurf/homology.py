"""Integer simplicial homology of the glued complex.

The quotient complex of a triangulation has one cell per vertex class,
edge class, and face class. This module assembles its integer boundary
matrices, computes H1 = ker d1 / im d2 through an exact Smith normal
form with unimodular transforms, and classifies 1-cycles: every cycle
gets canonical coordinates in H1, a nullity test, and, when it bounds,
an explicit 2-chain certificate.

Orientation conventions:
  - Each edge class is oriented by its lexicographically least member
    (tetrahedron index first, then the sorted vertex pair), pointing
    from the smaller corner label to the larger one.
  - A face class is oriented by its representative spot (t, (i, j, k))
    with i < j < k; its boundary is [jk] - [ik] + [ij], each edge taken
    with the sign relating that traversal to the class orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .errors import HomologyError
from .matching import vertex_link_vector
from .triangulation import (
    EdgeCycle,
    LinkSpec,
    Skeleton,
    Triangulation,
    resolve_link,
)

Matrix = tuple[tuple[int, ...], ...]
Chain = Union[Sequence[int], Mapping[int, int]]


@dataclass(frozen=True)
class ChainComplex:
    """Boundary matrices of the quotient complex over its class bases.

    boundary1 maps edge classes to vertex classes (rows indexed by
    vertex class, columns by edge class); boundary2 maps face classes
    to edge classes. face_basis lists one representative spot per face
    class in first-seen order. nonmaterial_vertex_classes flags vertex
    classes whose link is neither a sphere nor a disk; homology of the
    complex does not match the homology of a manifold near those.
    """

    skeleton: Skeleton
    face_basis: tuple[tuple[int, tuple[int, int, int]], ...]
    boundary1: Matrix
    boundary2: Matrix
    nonmaterial_vertex_classes: tuple[int, ...]


@dataclass(frozen=True)
class H1Class:
    """An element of H1 in canonical coordinates.

    values and orders run in parallel: coordinate i lives in Z when
    orders[i] == 0 and in Z/orders[i] otherwise, already reduced to
    the range 0..orders[i]-1. Classes from the same H1Summary can be
    added and scaled.
    """

    values: tuple[int, ...]
    orders: tuple[int, ...]

    @property
    def is_null(self) -> bool:
        return not any(self.values)

    def _combine(self, values: Sequence[int]) -> "H1Class":
        return H1Class(
            values=tuple(v % d if d else v
                         for v, d in zip(values, self.orders)),
            orders=self.orders)

    def __add__(self, other: "H1Class") -> "H1Class":
        if self.orders != other.orders:
            raise HomologyError("classes come from different groups")
        return self._combine([a + b
                              for a, b in zip(self.values, other.values)])

    def __mul__(self, k: int) -> "H1Class":
        return self._combine([k * v for v in self.values])

    __rmul__ = __mul__

    def __neg__(self) -> "H1Class":
        return self._combine([-v for v in self.values])


def _smith_with_transforms(
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


def _matvec(A: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def _matmul(A: Sequence[Sequence[int]],
            B: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*B)) if B else []
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in A]


def _nonmaterial_vertex_classes(tri: Triangulation,
                                skel: Skeleton) -> tuple[int, ...]:
    """Vertex classes whose link is neither a sphere nor a disk."""
    from .surface import analyze
    bad = []
    for vc in skel.vertex_classes:
        rep = analyze(tri, vertex_link_vector(tri, vc.index))
        sphere = rep.closed and rep.euler == 2 and rep.components == 1
        disk = (not rep.closed and rep.euler == 1
                and rep.components == 1)
        if not (sphere or disk):
            bad.append(vc.index)
    return tuple(bad)


def chain_complex(tri: Triangulation) -> ChainComplex:
    """Boundary matrices of the quotient complex.

    Raises HomologyError when an edge class is glued to itself
    reversed; such a class cannot be oriented and the quotient is not
    a complex of the kind handled here.
    """
    skel = tri.skeleton
    for ec in skel.edge_classes:
        if ec.inverted:
            raise HomologyError(
                f"edge class {ec.index} is glued to itself reversed "
                "and cannot be oriented")

    n_v = len(skel.vertex_classes)
    n_e = len(skel.edge_classes)

    face_basis = []
    seen = set()
    for spot in tri.face_spots():
        if spot in seen:
            continue
        seen.add(spot)
        target = tri.glued_to(*spot)
        if target is not None:
            seen.add((target[0], tuple(sorted(target[1]))))
        face_basis.append(spot)

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
        nonmaterial_vertex_classes=_nonmaterial_vertex_classes(tri, skel))


@dataclass(frozen=True)
class H1Summary:
    """First homology with a classifier for 1-cycles.

    The group is Z^free_rank plus one finite cyclic factor per torsion
    entry. class_of turns any 1-cycle (coefficients over the oriented
    edge classes) into canonical H1 coordinates; bounding returns an
    explicit 2-chain with that boundary whenever the cycle is null.
    """

    free_rank: int
    torsion: tuple[int, ...]
    complex: ChainComplex
    _projector: Matrix
    _transform: Matrix
    _image_diag: tuple[int, ...]
    _postfactor: Matrix

    def _coordinates(self, chain: Sequence[int]) -> list[int]:
        n_e = len(self.complex.skeleton.edge_classes)
        if len(chain) != n_e:
            raise HomologyError(
                f"chain has {len(chain)} coefficients, expected {n_e}")
        if any(_matvec(self.complex.boundary1, chain)):
            raise HomologyError("chain is not a 1-cycle")
        return _matvec(self._transform, _matvec(self._projector, chain))

    def class_of(self, chain: Chain) -> H1Class:
        w = self._coordinates(_as_vector(chain, self.complex))
        r = len(self._image_diag)
        values = []
        orders = []
        for i, d in enumerate(self._image_diag):
            if d > 1:
                values.append(w[i] % d)
                orders.append(d)
        values.extend(w[r:])
        orders.extend([0] * (len(w) - r))
        return H1Class(values=tuple(values), orders=tuple(orders))

    def bounding(self, chain: Chain) -> Optional[tuple[int, ...]]:
        """A 2-chain over face classes whose boundary is the cycle,
        or None when the cycle is not null-homologous."""
        w = self._coordinates(_as_vector(chain, self.complex))
        r = len(self._image_diag)
        if any(w[r:]):
            return None
        n_f = len(self.complex.face_basis)
        c = [0] * n_f
        for i, d in enumerate(self._image_diag):
            if w[i] % d:
                return None
            c[i] = w[i] // d
        return tuple(_matvec(self._postfactor, c))


def _as_vector(chain: Chain, cc: ChainComplex) -> list[int]:
    n_e = len(cc.skeleton.edge_classes)
    if isinstance(chain, Mapping):
        vec = [0] * n_e
        for idx, coeff in chain.items():
            if not 0 <= idx < n_e:
                raise HomologyError(f"no edge class {idx}")
            vec[idx] += coeff
        return vec
    return [int(x) for x in chain]


def h1(tri: Triangulation, *, strict: bool = True) -> H1Summary:
    """First integer homology of the quotient complex.

    In strict mode (the default) the computation refuses complexes
    with a non-material vertex: a vertex class whose link is not a
    sphere or disk, where the quotient complex stops modeling a
    manifold. Pass strict=False to compute the complex's own H1
    anyway.
    """
    cc = chain_complex(tri)
    if strict and cc.nonmaterial_vertex_classes:
        raise HomologyError(
            "vertex class(es) "
            f"{list(cc.nonmaterial_vertex_classes)} have non-sphere, "
            "non-disk links; their cone points distort H1. Use "
            "strict=False to compute the complex's homology anyway")

    n_v = len(cc.boundary1)
    n_e = len(cc.skeleton.edge_classes)
    n_f = len(cc.face_basis)

    s1, _, _, v1_inv = _smith_with_transforms(cc.boundary1, n_v, n_e)
    r1 = sum(1 for i in range(min(n_v, n_e)) if s1[i][i])
    projector = v1_inv[r1:]

    x = _matmul(projector, cc.boundary2)
    k = n_e - r1
    s2, u2, v2, _ = _smith_with_transforms(x, k, n_f)
    diag = tuple(s2[i][i] for i in range(min(k, n_f)) if s2[i][i])

    return H1Summary(
        free_rank=k - len(diag),
        torsion=tuple(d for d in diag if d > 1),
        complex=cc,
        _projector=tuple(tuple(r) for r in projector),
        _transform=tuple(tuple(r) for r in u2),
        _image_diag=diag,
        _postfactor=tuple(tuple(r) for r in v2))


def edge_cycle_class(tri: Triangulation, chain: Chain) -> H1Class:
    """H1 class of an integer combination of oriented edge classes."""
    return h1(tri).class_of(chain)


def cycle_chain(tri: Triangulation, cycle: EdgeCycle) -> dict[int, int]:
    """Edge-class coefficients of a closed edge walk.

    Each step traversing an edge class along its orientation counts
    +1, against it -1; steps may cancel.
    """
    resolve_link(tri, LinkSpec(components=(cycle,)),
                 require_two_components=False)
    skel = tri.skeleton
    coeffs: dict[int, int] = {}
    for tet_name, (u, v) in cycle.edges:
        t = tri.index(tet_name)
        key = (t, (min(u, v), max(u, v)))
        ec = skel.edge_classes[skel.edge_class_of[key]]
        if ec.inverted:
            raise HomologyError(
                f"edge class {ec.index} is glued to itself reversed "
                "and cannot be oriented")
        step = 1 if ec.directions[key] == (u, v) else -1
        coeffs[ec.index] = coeffs.get(ec.index, 0) + step
    return coeffs


def verify_zero_pushoff(tri: Triangulation, cycle: EdgeCycle) -> bool:
    """True iff the closed edge walk is null-homologous."""
    s = h1(tri)
    chain = cycle_chain(tri, cycle)
    return s.class_of(chain).is_null
