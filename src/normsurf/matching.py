"""Normal surface coordinates and matching equations.

A normal surface candidate on a triangulation with t tetrahedra is a
nonnegative integer vector of length 7t. Block i (for tetrahedron i)
is laid out [t0, t1, t2, t3, q01, q02, q03]: t_v counts elementary
triangles cutting off vertex v, and q0m counts elementary
quadrilaterals separating the vertex pair {0, m} from the complementary
pair. Matching equations force arc counts of the two sides of every
interior face gluing to agree, three equations (one per face corner)
per gluing.
"""

from __future__ import annotations

import numbers
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


def quad_offsets_crossing(a: int, b: int) -> tuple[int, int]:
    """Block offsets of the two quad types whose disks cross edge {a, b}."""
    skip = quad_offset(a, b)
    return tuple(k for k in (4, 5, 6) if k != skip)  # type: ignore[return-value]


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
    equation_labels: tuple[str, ...]

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
    triangles at x plus the quads separating x from the omitted vertex.
    Each Triangulation keeps the result as its `matching_system`.
    """
    tri.require_valid()
    equations = []
    labels = []
    for (i, face), (j, jface), vmap in tri.interior_pairs():
        d_a = omitted_vertex(face)
        d_b = omitted_vertex(jface)
        image = tuple(vmap[x] for x in face)
        label = f"{tri.format_spot(i, face)} ~ {tri.format_spot(j, image)}"
        for x in face:
            equations.append((
                BLOCK * i + x,
                BLOCK * i + quad_offset(x, d_a),
                BLOCK * j + vmap[x],
                BLOCK * j + quad_offset(vmap[x], d_b),
            ))
            labels.append(f"{label} : corner {x}")
    return MatchingSystem(
        variable_count=BLOCK * tri.size,
        equations=tuple(equations),
        forced_zeros=frozenset(),
        quad_triples=tuple(
            (BLOCK * t + 4, BLOCK * t + 5, BLOCK * t + 6)
            for t in range(tri.size)),
        equation_labels=tuple(labels))


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
    edge in its tetrahedron: the triangles at a and b and the two quad
    types not separating {a, b}. Vertex components add nothing, since
    normal surfaces are disjoint from vertices anyway.
    """
    resolved = resolve_link(tri, link)
    zeros = set(sys.forced_zeros)
    for cycle in resolved.edge_cycles:
        for class_index in cycle:
            for (t, (a, b)) in tri.skeleton.edge_classes[class_index].members:
                zeros.add(BLOCK * t + a)
                zeros.add(BLOCK * t + b)
                for q in quad_offsets_crossing(a, b):
                    zeros.add(BLOCK * t + q)
    return replace(sys, forced_zeros=frozenset(zeros))


def haken_sum(a: Sequence[int], b: Sequence[int]) -> NormalVector:
    """Coordinate-wise sum of two quad-compatible admissible vectors.

    Raises when the vectors put different nonzero quad types in the
    same tetrahedron, since the two disk families could not be resolved
    into an embedded surface.
    """
    if len(a) != len(b):
        raise VectorError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) % BLOCK != 0:
        raise VectorError(f"vector length {len(a)} is not a multiple of {BLOCK}")
    for base in range(0, len(a), BLOCK):
        qa = {k for k in (4, 5, 6) if a[base + k] != 0}
        qb = {k for k in (4, 5, 6) if b[base + k] != 0}
        if qa and qb and qa != qb:
            raise VectorError(
                f"quadrilateral type conflict in tetrahedron block {base // BLOCK}")
    return tuple(x + y for x, y in zip(a, b))


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
