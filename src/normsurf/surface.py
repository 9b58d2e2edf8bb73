"""Surface topology reconstructed from a solution vector.

An admissible solution vector describes an embedded normal surface:
per tetrahedron, t_v parallel triangles cutting off each vertex v and
a stack of parallel quadrilaterals of at most one type. This module
rebuilds the surface's cell structure - crossing points on edges, arcs
on faces, elementary disks - to compute edge weights, the Euler
characteristic, connected components and boundary circles, and builds
the complementary region decomposition behind separation tests.
Components and regions are joined by `Gluing.join_stacks` over the
corner stacks below; boundary circles are the components of the
boundary curve on `boundary_surface` (`curves2d.curve_components`).

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
from .matching import (
    BLOCK,
    is_admissible,
    is_solution,
    quad_offset,
    quad_offsets_crossing,
)
from .triangulation import (
    FACES,
    IdealVertex,
    LinkSpec,
    Skeleton,
    Triangulation,
    corner_stack,
    face_omitting,
    omitted_vertex,
    resolve_link,
)

Disk = tuple
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


class _TetPattern:
    """Disk pattern of one tetrahedron of an admissible vector."""

    def __init__(self, tet: int, block: Sequence[int]):
        self.tet = tet
        self.tri = tuple(block[:4])
        quads = [(k, block[k]) for k in (4, 5, 6) if block[k] > 0]
        if len(quads) > 1:
            raise VectorError(
                f"two quad types in tetrahedron block {tet}")
        self.qoff, self.q = quads[0] if quads else (None, 0)

    def arc_count(self, x: int, d: int) -> int:
        """Arcs cutting off corner x on the face omitting d."""
        n = self.tri[x]
        if self.qoff == quad_offset(x, d):
            n += self.q
        return n

    def edge_weight(self, a: int, b: int) -> int:
        w = self.tri[a] + self.tri[b]
        if self.qoff in quad_offsets_crossing(a, b):
            w += self.q
        return w

    def stack(self, x: int, d: int) -> list:
        """Regions and disks met, in turn, walking from corner x across
        the face omitting d (layout in the module docstring)."""
        t, n = self.tet, self.tri[x]
        regions: list[Region] = [("v", t, x, k) for k in range(n)]
        disks: list[Disk] = [("tri", t, x, i) for i in range(1, n + 1)]
        if not self.q:
            return corner_stack(regions + [("c", t)], disks)
        # the two vertex pairs the quads separate, the one with 0 first
        first = (0, self.qoff - 3)
        second = tuple(v for v in (1, 2, 3) if v not in first)
        sides = [("s", t, first), *(("q", t, j) for j in range(1, self.q)),
                 ("s", t, second)]
        quads = [("quad", t, j) for j in range(1, self.q + 1)]
        if x not in first:
            sides, quads = sides[::-1], quads[::-1]
        if self.qoff != quad_offset(x, d):
            # the quads miss this corner; x's side holds the face centre
            sides, quads = sides[:1], []
        return corner_stack(regions + sides, disks + quads)


def _patterns(tri: Triangulation, v: Sequence[int]) -> list[_TetPattern]:
    """Validate the vector as an admissible solution; split by tet."""
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
    return [_TetPattern(t, v[BLOCK * t: BLOCK * (t + 1)])
            for t in range(tri.size)]


def _edge_class_weights(tri: Triangulation, skel: Skeleton,
                        pats: list[_TetPattern]) -> list[int]:
    weights = []
    for ec in skel.edge_classes:
        per_member = {pats[t].edge_weight(a, b) for t, (a, b) in ec.members}
        if len(per_member) != 1:
            raise VectorError(
                f"edge class {ec.index} has inconsistent crossing counts "
                f"{sorted(per_member)}; vector is not a solution")
        weights.append(per_member.pop())
    return weights


def _stacks(pats: list[_TetPattern]) -> dict:
    """Each corner stack by (tet, x, face); every disk and region is in
    some."""
    return {(p.tet, x, face): p.stack(x, omitted_vertex(face))
            for p in pats for face in FACES for x in face}


def analyze(tri: Triangulation, v: Sequence[int]) -> SurfaceReport:
    """Edge weights, Euler characteristic, components, and boundary.

    The Euler characteristic is the global cell count V - E + F of the
    surface: V crossing points with edges, E arcs on faces, F
    elementary disks. Components join disks glued arc-to-arc across
    interior faces; boundary circles are the components of the
    boundary curve on `tri.boundary_surface`.
    """
    pats = _patterns(tri, v)
    skel = tri.skeleton
    edge_weights = _edge_class_weights(tri, skel, pats)
    for ec in skel.edge_classes:
        if ec.inverted and edge_weights[ec.index]:
            raise TriangulationError(
                f"edge class {ec.index} is glued to itself reversed; "
                "surfaces crossing it are not supported")

    vertices = sum(edge_weights)
    disk_count = sum(sum(p.tri) + p.q for p in pats)

    disks = tri.join_stacks(_stacks(pats), 1)
    arcs = sum(pats[t].arc_count(x, omitted_vertex(face))
               for (t, face), _, _ in tri.interior_pairs() for x in face)
    curve = [pats[t].arc_count(x, omitted_vertex(face))
             for t, face in tri.boundary_facets() for x in face]
    arcs += sum(curve)

    components = len(disks.groups()) if disk_count else 0
    circles = curve_components(tri.boundary_surface, curve)
    return SurfaceReport(
        weight=vertices,
        edge_weights=tuple(edge_weights),
        euler=vertices - arcs + disk_count,
        components=components,
        closed=circles == 0,
        boundary_circles=circles,
        disk_count=disk_count)


def euler_coefficients(tri: Triangulation) -> tuple[int, ...]:
    """Integer coefficients c with c . v == analyze(tri, v).euler for
    every admissible solution v.

    analyze counts chi = V - E + F over the surface's cells:
      - F = sum(v): each variable counts +1 as a disk.
      - V is the sum of the edge-class weights. For a solution all
        members of a class are crossed equally often, so each class
        counts the crossing count of its representative (least) member:
        the edge {a, b} of tetrahedron t is crossed by t_a + t_b
        triangles plus the quads of the two types separating a from b.
      - E counts each arc once: on one side of every interior pair and
        on every boundary facet, each arc counting -1. The face of t
        omitting d carries at corner x the t_x triangles plus the quads
        of the type quad_offset(x, d).
    These are _TetPattern's edge_weight and arc_count, which are linear
    in the block as long as it has at most one quad type, as every
    admissible vector does. So c_i is the count at the unit vector e_i:
    1 + (its crossings of representative edges) - (its arcs).
    """
    units = [_TetPattern(0, [int(k == i) for k in range(BLOCK)])
             for i in range(BLOCK)]
    c = [1] * (BLOCK * tri.size)

    def add(t: int, counts) -> None:
        for i, count in enumerate(counts):
            c[BLOCK * t + i] += count

    for ec in tri.skeleton.edge_classes:
        t, (a, b) = min(ec.members)
        add(t, (u.edge_weight(a, b) for u in units))
    faces = [spot for spot, _, _ in tri.interior_pairs()]
    for t, face in faces + list(tri.boundary_facets()):
        d = omitted_vertex(face)
        for x in face:
            add(t, (-u.arc_count(x, d) for u in units))
    return tuple(c)


def complement_regions(tri: Triangulation, v: Sequence[int]) -> RegionGraph:
    """Regions the surface cuts the underlying space into.

    Per tetrahedron the regions are: one stack of corner regions per
    vertex carrying triangles, the slab between consecutive
    quadrilaterals, the two side regions flanking a quadrilateral
    stack, and otherwise a single central region. Regions merge across
    every interior face piece between consecutive arcs; the result is
    the connectivity of the surface complement.
    """
    pats = _patterns(tri, v)
    skel = tri.skeleton
    stacks = _stacks(pats)
    cells = tri.join_stacks(stacks, 0)

    grouped = cells.groups()
    roots = sorted(grouped, key=lambda r: grouped[r][0])
    region_id = {root: i for i, root in enumerate(roots)}

    def locate(cell: Region) -> int:
        return region_id[cells.find(cell)]

    def home(t: int, x: int) -> int:
        """The region of vertex x of tet t: entry 0 of any stack at x."""
        return locate(stacks[t, x, face_omitting(x ^ 1)][0])

    vertex_region = []
    for vc in skel.vertex_classes:
        where = {home(t, x) for t, x in vc.members}
        if len(where) != 1:
            raise NormSurfError(
                f"internal inconsistency: vertex class {vc.index} meets "
                f"regions {sorted(where)}")
        vertex_region.append(where.pop())

    edge_region: dict[int, int] = {}
    for ec in skel.edge_classes:
        if any(pats[t].edge_weight(a, b) for t, (a, b) in ec.members):
            continue
        # an uncrossed edge lies in the region of either end
        where = {home(t, a) for t, (a, _) in ec.members}
        if len(where) != 1:
            raise NormSurfError(
                f"internal inconsistency: edge class {ec.index} meets "
                f"regions {sorted(where)}")
        edge_region[ec.index] = where.pop()

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
        vertex_region=tuple(vertex_region),
        edge_region=edge_region)


def separates(tri: Triangulation, v: Sequence[int], link: LinkSpec) -> bool:
    """Do the two link components end up in different regions?

    The vector must have zero weight on every edge class an EdgeCycle
    component traverses (the surface may not touch the link).
    """
    resolved = resolve_link(tri, link)
    graph = complement_regions(tri, v)

    cycles = iter(resolved.edge_cycles)
    vertices = iter(resolved.vertex_components)
    homes = []
    for comp in resolved.components:
        if isinstance(comp, IdealVertex):
            homes.append(graph.vertex_region[next(vertices)])
            continue
        classes = next(cycles)
        missing = [c for c in classes if c not in graph.edge_region]
        if missing:
            raise VectorError(
                "surface touches the link: nonzero weight on edge "
                f"class(es) {missing}")
        where = {graph.edge_region[c] for c in classes}
        if len(where) != 1:
            raise NormSurfError(
                "internal inconsistency: one edge cycle meets regions "
                f"{sorted(where)}")
        homes.append(where.pop())
    return homes[0] != homes[1]
