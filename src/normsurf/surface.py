"""Surface topology reconstructed from a solution vector.

An admissible solution vector describes an embedded normal surface:
per tetrahedron, t_v parallel triangles cutting off each vertex v and
a stack of parallel quadrilaterals of at most one type. Its edge
weights, its boundary curve and its Euler characteristic are linear in
the vector, read as `matching` states them (`edge_crossing_variables`,
`boundary_arc_variables`, `euler_coefficients`). This module rebuilds
the rest from the surface's pieces: connected components and boundary
circles, and the complementary region decomposition behind separation
tests. Components and regions are joined by `Gluing.join_stacks` over
the corner stacks (`_stacks`); boundary circles are the components of
the boundary curve on `boundary_surface` (`curves2d.curve_components`).

Conventions (shared with the matching equations):
  - On a face, the arcs cutting off corner x are nested and indexed by
    depth 1.. from x; the t_x triangle disks occupy depths 1..t_x and
    the quadrilateral disks the remaining depths.
  - Quadrilaterals of one type are indexed 1..q starting from the side
    of the vertex pair containing vertex 0, so the depth from a corner
    x is t_x + j when x lies in that pair and t_x + (q + 1 - j)
    otherwise. Crossing points along an edge follow the same rule.
  - The stack of corner x on face f (omitting d) lists what a walk from
    x across that face meets, in turn. Entry 2k is the region behind the
    face piece beyond the arc at depth k: entry 0 holds vertex x and the
    last entry is the face centre. Entry 2k - 1 is the disk owning the
    arc at depth k, so the corner has len(stack) // 2 arcs. Glued
    corners see their arcs at equal depths, so their stacks line up
    entry for entry: gluing joins odd entries into surface components
    and even entries into complementary regions. Stacks are keyed by
    (tet, x, f), as `Gluing.join_stacks` expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .curves2d import curve_components
from .errors import NormSurfError, TriangulationError, VectorError
from .matching import (BLOCK, boundary_arc_variables, edge_crossing_variables,
                       euler_coefficients, is_admissible, is_solution,
                       quad_offset)
from .triangulation import (
    FACES,
    LinkSpec,
    Triangulation,
    corner_stack,
    face_omitting,
    omitted_vertex,
    resolve_link,
)

Region = tuple


@dataclass(frozen=True)
class SurfaceReport:
    """Topological summary of the surface carried by one vector.

    weight is the total number of crossing points with the 1-skeleton
    and equals the sum of edge_weights (one entry per edge class).
    closed means the surface misses the triangulation's boundary
    entirely, equivalently boundary_circles == 0.
    """

    weight: int
    edge_weights: tuple[int, ...]
    euler: int
    components: int
    closed: bool
    boundary_circles: int
    disk_count: int


@dataclass(frozen=True)
class RegionGraph:
    """Complementary regions left after cutting along the surface.

    regions are consecutive identifiers. adjacency holds unordered
    pairs of distinct regions that meet along some elementary disk (a
    disk with the same region on both sides contributes nothing).
    vertex_region locates every vertex class; edge_region locates every
    edge class the surface does not cross.
    """

    regions: tuple[int, ...]
    adjacency: frozenset[tuple[int, int]]
    vertex_region: tuple[int, ...]
    edge_region: dict[int, int]


def _patterns(tri: Triangulation, v: Sequence[int]
              ) -> tuple[tuple[int, ...], list[int]]:
    """The vector read as an admissible solution, and its edge-class
    weights. Raises TriangulationError when it crosses an edge class
    glued to itself reversed."""
    sys = tri.matching_system
    v = sys.read(v)
    if any(x < 0 for x in v):
        raise VectorError("vector has negative entries")
    if not is_solution(sys, v):
        raise VectorError(
            "vector does not satisfy the matching equations; it carries "
            "no surface")
    if not is_admissible(v):
        raise VectorError(
            "inadmissible vector: two quad types in one tetrahedron")
    weights = [sum(v[i] for i in crossing)
               for crossing in edge_crossing_variables(tri)]
    for ec, w in zip(tri.skeleton.edge_classes, weights):
        if ec.inverted and w:
            raise TriangulationError(
                f"edge class {ec.index} is glued to itself reversed; "
                "surfaces crossing it are not supported")
    return v, weights


def _stacks(v: tuple[int, ...]) -> dict:
    """Each corner stack by (tet, x, face); every disk and region is in
    some. Per tetrahedron the quad walk from vertex 0's side (the face
    centre if there are no quads) and each corner's run of vertex
    regions and triangles are built once: corner x's stack is its run,
    then the walk from x's side, cut to x's side where the quads miss x.
    """
    stacks = {}
    for t in range(len(v) // BLOCK):
        block = v[BLOCK * t: BLOCK * (t + 1)]
        q = max(block[4:])  # an admissible block has at most one quad type
        qoff = block.index(q, 4)
        # the two vertex pairs the quads separate, the one with 0 first
        first = (0, qoff - 3)
        second = tuple(x for x in (1, 2, 3) if x not in first)
        walk = corner_stack(
            [("s", t, first), *(("q", t, j) for j in range(1, q)),
             ("s", t, second)],
            [("quad", t, j) for j in range(1, q + 1)]) if q else [("c", t)]
        # no quads: the one-entry walk survives reversing and cutting
        runs = [corner_stack([("v", t, x, k) for k in range(n)],
                             [("tri", t, x, k) for k in range(1, n + 1)])
                for x, n in enumerate(block[:4])]
        for face in FACES:
            for x in face:
                side = walk if x in first else walk[::-1]
                if quad_offset(x, omitted_vertex(face)) != qoff:
                    side = side[:1]
                stacks[t, x, face] = runs[x] + side
    return stacks


def analyze(tri: Triangulation, v: Sequence[int]) -> SurfaceReport:
    """Edge weights, Euler characteristic, components, and boundary.

    The Euler form (`euler_coefficients`) defines `euler` as its value
    on v; the cell count in its docstring proves that this is the
    surface's V - E + F. Components join disks glued arc-to-arc across
    interior faces; boundary circles are the components of the
    boundary curve (`boundary_arc_variables`) on `tri.boundary_surface`.
    """
    v, edge_weights = _patterns(tri, v)
    disk_count = sum(v)
    disks = tri.join_stacks(_stacks(v), 1)
    curve = [sum(v[i] for i in arc) for arc in boundary_arc_variables(tri)]
    circles = curve_components(tri.boundary_surface, curve)
    return SurfaceReport(
        weight=sum(edge_weights),
        edge_weights=tuple(edge_weights),
        euler=sum(c * x for c, x in zip(euler_coefficients(tri), v)),
        components=len(disks.groups()) if disk_count else 0,
        closed=circles == 0,
        boundary_circles=circles,
        disk_count=disk_count)


def _one_region(where: set[int], what: str) -> int:
    """The one region in where, which holds the regions `what` meets."""
    if len(where) != 1:
        raise NormSurfError(
            f"internal inconsistency: {what} meets regions {sorted(where)}")
    return where.pop()


def complement_regions(tri: Triangulation, v: Sequence[int]) -> RegionGraph:
    """Regions the surface cuts the underlying space into.

    Per tetrahedron the regions are: one stack of corner regions per
    vertex carrying triangles, the slab between consecutive
    quadrilaterals, the two side regions flanking a quadrilateral
    stack, and otherwise a single central region. Regions merge across
    every interior face piece between consecutive arcs; the result is
    the connectivity of the surface complement.
    """
    v, weights = _patterns(tri, v)
    skel = tri.skeleton
    stacks = _stacks(v)
    cells = tri.join_stacks(stacks, 0)

    grouped = cells.groups()
    roots = sorted(grouped, key=lambda r: grouped[r][0])
    region_id = {root: i for i, root in enumerate(roots)}

    def locate(cell: Region) -> int:
        return region_id[cells.find(cell)]

    def home(t: int, x: int) -> int:
        """The region of vertex x of tet t: entry 0 of any stack at x."""
        return locate(stacks[t, x, face_omitting(x ^ 1)][0])

    vertex_region = tuple(
        _one_region({home(t, x) for t, x in vc.members},
                    f"vertex class {vc.index}") for vc in skel.vertex_classes)
    edge_region = {  # an uncrossed edge lies in the region of either end
        ec.index: _one_region({home(t, a) for t, (a, _) in ec.members},
                              f"edge class {ec.index}")
        for ec in skel.edge_classes if not weights[ec.index]}

    adjacency = set()
    for s in stacks.values():
        # a disk's two neighbours in a stack are the regions it parts
        for near, far in zip(s[::2], s[2::2]):
            s0, s1 = locate(near), locate(far)
            if s0 != s1:
                adjacency.add((min(s0, s1), max(s0, s1)))

    return RegionGraph(
        regions=tuple(range(len(roots))),
        adjacency=frozenset(adjacency),
        vertex_region=vertex_region,
        edge_region=edge_region)


def separates(tri: Triangulation, v: Sequence[int], link: LinkSpec) -> bool:
    """Do the two link components end up in different regions?

    The vector must have zero weight on every edge class an EdgeCycle
    component traverses (the surface may not touch the link). Each
    component then lies in the region of its vertex classes, as an
    uncrossed edge lies in the region of its ends.
    """
    resolved = resolve_link(tri, link)
    graph = complement_regions(tri, v)
    homes = []
    for comp in resolved:
        missing = [c for c, _ in comp.edges if c not in graph.edge_region]
        if missing:
            raise VectorError(
                "surface touches the link: nonzero weight on edge "
                f"class(es) {missing}")
        homes.append(_one_region(
            {graph.vertex_region[vc] for vc in comp.vertex_classes},
            "one link component"))
    return homes[0] != homes[1]
