"""Normal surface coordinates and matching equations.

A normal surface candidate on a triangulation with t tetrahedra is a
nonnegative integer vector of length 7t. Block i (for tetrahedron i)
is laid out [t0, t1, t2, t3, q01, q02, q03]: t_v counts elementary
triangles cutting off vertex v, and q0m counts elementary
quadrilaterals separating the vertex pair {0, m} from the complementary
pair. Matching equations force arc counts of the two sides of every
interior face gluing to agree, three equations (one per face corner)
per gluing.

This module owns the incidences of disk types with the skeleton:
`_crossing` names the disk types crossing an edge and `_arcs` those
leaving an arc at a face corner. The matching equations, the link
restriction and every linear reading of a vector as a surface count
through these two: the edge-class weights (`edge_crossing_variables`),
the boundary curve (`boundary_arc_variables`, whose union
`boundary_meeting_variables` is zero exactly on closed surfaces) and
the Euler characteristic (`euler_coefficients`).
"""

from __future__ import annotations

import numbers
from functools import cache
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import VectorError
from .triangulation import LinkSpec, Triangulation, omitted_vertex, resolve_link

BLOCK = 7
KIND_NAMES = ("t0", "t1", "t2", "t3", "q01", "q02", "q03")

NormalVector = tuple[int, ...]


def quad_offset(a: int, b: int) -> int:
    """Block offset (4..6) of the quad type having {a, b} as one of its
    two separated vertex pairs."""
    if a == b or not {a, b} <= {0, 1, 2, 3}:
        raise ValueError(f"not a tetrahedron edge: {{{a}, {b}}}")
    if 0 in (a, b):
        return 3 + max(a, b)
    return 3 + (6 - a - b)


@cache
def _crossing(a: int, b: int) -> tuple[int, ...]:
    """Block offsets of the disk types crossing edge {a, b}: the
    triangles at a and b and the two quad types putting a and b on
    opposite sides."""
    skip = quad_offset(a, b)
    return (a, b, *(k for k in (4, 5, 6) if k != skip))


@cache
def _arcs(x: int, d: int) -> tuple[int, int]:
    """Block offsets of the disk types leaving an arc at corner x of the
    face omitting d: the triangle at x and the quad type separating
    {x, d} from the other two corners."""
    return x, quad_offset(x, d)


def variable_name(tri: Triangulation, index: int) -> str:
    return f"{tri.name(index // BLOCK)}.{KIND_NAMES[index % BLOCK]}"


@dataclass(frozen=True)
class MatchingSystem:
    """The linear system cut out by a triangulation's face gluings.

    equations hold index quadruples (i, j, k, l) meaning
    v_i + v_j = v_k + v_l. forced_zeros are variable indices pinned to
    zero (kept as constraints so solution vectors stay full length).
    """

    variable_count: int
    equations: tuple[tuple[int, int, int, int], ...]
    forced_zeros: frozenset[int]
    quad_triples: tuple[tuple[int, int, int], ...]

    def read(self, v: Sequence) -> tuple:
        """v's entries, the integral ones as ints. Raises VectorError on
        a wrong length or on an entry that is not a real number."""
        if len(v) != self.variable_count:
            raise VectorError(
                f"vector has {len(v)} entries, system has "
                f"{self.variable_count} variables")
        for x in v:
            if not isinstance(x, numbers.Real):
                raise VectorError(f"vector entry {x!r} is not a number")
        return tuple(int(x) if x % 1 == 0 else x for x in v)


def build_matching_system(tri: Triangulation) -> MatchingSystem:
    """Three equations per interior face gluing.

    For a gluing of tet A's face omitting vertex dA onto tet B's face
    omitting dB via the bijection s, each face corner x contributes

        t^A_x + q^A_{x,dA} = t^B_{s(x)} + q^B_{s(x),dB}

    since on that face the arcs cutting off corner x come from the
    triangles at x plus the quads separating x from the omitted vertex
    (`_arcs`). Each Triangulation keeps the result as its
    `matching_system`.
    """
    tri.require_valid()
    equations = []
    for (i, face), (j, jface), vmap in tri.interior_pairs():
        d_a = omitted_vertex(face)
        d_b = omitted_vertex(jface)
        for x in face:
            equations.append(
                tuple(BLOCK * i + k for k in _arcs(x, d_a))
                + tuple(BLOCK * j + k for k in _arcs(vmap[x], d_b)))
    return MatchingSystem(
        variable_count=BLOCK * tri.size,
        equations=tuple(equations),
        forced_zeros=frozenset(),
        quad_triples=tuple(
            (BLOCK * t + 4, BLOCK * t + 5, BLOCK * t + 6)
            for t in range(tri.size)))


def is_solution(sys: MatchingSystem, v: Sequence[int]) -> bool:
    """True iff v is nonnegative, integral, satisfies every equation,
    and vanishes on all forced zeros. Raises VectorError where
    `MatchingSystem.read` does."""
    v = sys.read(v)
    if any(not isinstance(x, int) or x < 0 for x in v):
        return False
    if any(v[i] != 0 for i in sys.forced_zeros):
        return False
    return all(v[i] + v[j] == v[k] + v[l] for i, j, k, l in sys.equations)


def is_admissible(v: Sequence[int]) -> bool:
    """True iff at most one quad coordinate is nonzero per block."""
    if len(v) % BLOCK != 0:
        raise VectorError(f"vector length {len(v)} is not a multiple of {BLOCK}")
    for base in range(0, len(v), BLOCK):
        if sum(1 for k in (4, 5, 6) if v[base + k] != 0) > 1:
            return False
    return True


def restrict_to_link(
    sys: MatchingSystem,
    tri: Triangulation,
    link: LinkSpec,
) -> MatchingSystem:
    """Forbid the surface from touching the link's edge cycles.

    Every member edge {a, b} of every edge class traversed by an
    EdgeCycle component pins to zero the four disk types crossing that
    edge in its tetrahedron (`_crossing`). Vertex components add
    nothing, since normal surfaces are disjoint from vertices anyway.
    The link may have any number of components.
    """
    zeros = set(sys.forced_zeros)
    for comp in resolve_link(tri, link, require_two_components=False):
        for class_index, _ in comp.edges:
            for (t, (a, b)) in tri.skeleton.edge_classes[class_index].members:
                zeros.update(BLOCK * t + k for k in _crossing(a, b))
    return replace(sys, forced_zeros=frozenset(zeros))


def haken_sum(a: Sequence[int], b: Sequence[int]) -> NormalVector:
    """Coordinate-wise sum of two quad-compatible admissible vectors.

    Raises when either vector or their sum is not admissible: the sum
    then has two quad types in one tetrahedron, and its disks could not
    be resolved into an embedded surface.
    """
    if len(a) != len(b):
        raise VectorError(f"length mismatch: {len(a)} vs {len(b)}")
    s = tuple(x + y for x, y in zip(a, b))
    if not (is_admissible(a) and is_admissible(b) and is_admissible(s)):
        raise VectorError(
            "quadrilateral type conflict: the vectors or their sum put two "
            "quad types in one tetrahedron")
    return s


def edge_crossing_variables(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Per edge class, the variables crossing its least member. A
    solution crosses all members of a class equally often, so summed
    over v these are the class weights."""
    return tuple(
        tuple(BLOCK * t + k for k in _crossing(a, b))
        for t, (a, b) in (ec.members[0] for ec in tri.skeleton.edge_classes))


def _corner_arcs(spots) -> tuple[tuple[int, ...], ...]:
    """Per corner of each (tet, face) spot, the arc-leaving variables."""
    return tuple(
        tuple(BLOCK * t + k for k in _arcs(x, omitted_vertex(face)))
        for t, face in spots for x in face)


def boundary_arc_variables(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Per boundary-facet corner, in `boundary_facets` order, the
    variables leaving an arc there: summed over v, the boundary curve
    on `tri.boundary_surface`."""
    return _corner_arcs(tri.boundary_facets())


def boundary_meeting_variables(tri: Triangulation) -> frozenset[int]:
    """The variables leaving an arc on a boundary face: its corner
    triangles and all three quads. A nonnegative vector carries a
    closed surface exactly when it is zero on them."""
    return frozenset(i for arc in boundary_arc_variables(tri) for i in arc)


def euler_coefficients(tri: Triangulation) -> tuple[int, ...]:
    """The Euler form c, which defines `surface.analyze`'s `euler` as
    c . v. On an admissible solution v it is chi = V - E + F, by this
    cell count:
      - F = sum(v): +1 per variable, as a disk.
      - V: a class's crossing points are its least member's, as glued
        edges are crossed equally often and their points identified
        one to one: +1 per `edge_crossing_variables` entry. (A class
        glued to itself reversed pairs its points up instead; surfaces
        crossing one are refused wherever surfaces are read.)
      - E: -1 per `_arcs` entry of each arc, counted once: on one side
        of every interior pair and at every boundary-facet corner.
    """
    c = [1] * (BLOCK * tri.size)
    for crossing in edge_crossing_variables(tri):
        for i in crossing:
            c[i] += 1
    interior = _corner_arcs(spot for spot, _, _ in tri.interior_pairs())
    for arc in interior + boundary_arc_variables(tri):
        for i in arc:
            c[i] -= 1
    return tuple(c)


def tet_block(v: Sequence[int], tet: int) -> tuple[int, ...]:
    return tuple(v[BLOCK * tet: BLOCK * tet + BLOCK])


def zero_vector(sys: MatchingSystem) -> NormalVector:
    return (0,) * sys.variable_count


def all_triangles_vector(tri: Triangulation) -> NormalVector:
    """One triangle at every corner: the union of all vertex links."""
    block = (1, 1, 1, 1, 0, 0, 0)
    return block * tri.size


def vertex_link_vector(tri: Triangulation, vertex_class: int) -> NormalVector:
    """One triangle at each corner of the given vertex class."""
    v = [0] * (BLOCK * tri.size)
    for (t, corner) in tri.skeleton.vertex_classes[vertex_class].members:
        v[BLOCK * t + corner] = 1
    return tuple(v)
