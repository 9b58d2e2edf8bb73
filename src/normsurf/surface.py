"""Surface topology reconstructed from a solution vector.

An admissible solution vector describes an embedded normal surface:
per tetrahedron, t_v parallel triangles cutting off each vertex v and
a stack of parallel quadrilaterals of at most one type. This module
rebuilds the surface's cell structure - crossing points on edges, arcs
on faces, elementary disks - to compute edge weights, the Euler
characteristic, connected components and boundary circles, and builds
the complementary region decomposition behind separation tests.

Conventions (shared with the matching equations):
  - On a face, the arcs cutting off corner x are nested and indexed by
    depth 1.. from x; the t_x triangle disks occupy depths 1..t_x and
    the quadrilateral disks the remaining depths.
  - Quadrilaterals of one type are indexed 1..q starting from the side
    of the vertex pair containing vertex 0, so the depth from a corner
    x is t_x + j when x lies in that pair and t_x + (q + 1 - j)
    otherwise. Crossing points along an edge follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NormSurfError, TriangulationError, VectorError
from .matching import (
    BLOCK,
    is_admissible,
    is_solution,
    quad_offset,
    quad_offsets_crossing,
)
from .triangulation import (
    IdealVertex,
    LinkSpec,
    Skeleton,
    Triangulation,
    omitted_vertex,
    resolve_link,
)
from .union_find import UnionFind

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


def _pairs_of(offset: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both vertex pairs a quad type separates, the one with 0 first."""
    first = (0, offset - 3)
    return first, tuple(v for v in (1, 2, 3) if v != offset - 3)


def _pair_of(offset: int, vertex: int) -> tuple[int, int]:
    """The separated vertex pair of a quad type containing vertex."""
    first, second = _pairs_of(offset)
    return first if vertex in first else second


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

    def pair_with_zero(self) -> tuple[int, int]:
        return _pair_of(self.qoff, 0)

    def arc_count(self, x: int, d: int) -> int:
        """Arcs cutting off corner x on the face omitting d."""
        n = self.tri[x]
        if self.qoff == quad_offset(x, d):
            n += self.q
        return n

    def disk_at(self, x: int, d: int, depth: int) -> Disk:
        """The disk owning the arc at the given depth from corner x on
        the face omitting d."""
        if depth <= self.tri[x]:
            return ("tri", self.tet, x, depth)
        j = depth - self.tri[x]
        if x not in self.pair_with_zero():
            j = self.q + 1 - j
        return ("quad", self.tet, j)

    def edge_weight(self, a: int, b: int) -> int:
        w = self.tri[a] + self.tri[b]
        if self.qoff in quad_offsets_crossing(a, b):
            w += self.q
        return w

    def disks(self) -> list[Disk]:
        out: list[Disk] = []
        for x in range(4):
            out.extend(("tri", self.tet, x, i)
                       for i in range(1, self.tri[x] + 1))
        out.extend(("quad", self.tet, j) for j in range(1, self.q + 1))
        return out

    # -- complement regions within this tetrahedron --------------------

    def regions(self) -> list[Region]:
        out: list[Region] = []
        for x in range(4):
            out.extend(("v", self.tet, x, k) for k in range(self.tri[x]))
        if self.q:
            out.extend(("s", self.tet, pair) for pair in _pairs_of(self.qoff))
            out.extend(("q", self.tet, j) for j in range(1, self.q))
        else:
            out.append(("c", self.tet))
        return out

    def _side(self, vertex: int) -> Region:
        return ("s", self.tet, _pair_of(self.qoff, vertex))

    def vertex_region(self, x: int) -> Region:
        """The region containing vertex x."""
        if self.tri[x]:
            return ("v", self.tet, x, 0)
        if self.q:
            return self._side(x)
        return ("c", self.tet)

    def face_piece_region(self, x: int, d: int, k: int) -> Region:
        """Region behind face piece k at corner x, face omitting d.

        Piece 0 touches the vertex; piece k for k >= 1 lies between the
        arcs at depths k and k + 1.
        """
        if k < self.tri[x]:
            return self.vertex_region(x) if k == 0 else ("v", self.tet, x, k)
        if k == self.tri[x]:
            # between the last triangle at x and the quad stack
            return ("s", self.tet, _pair_of(self.qoff, x))
        j = k - self.tri[x]
        if x not in self.pair_with_zero():
            j = self.q - j
        return ("q", self.tet, j)

    def face_center_region(self, d: int) -> Region:
        """Region behind the face piece beyond all arcs."""
        if self.q:
            first, second = _pairs_of(self.qoff)
            return ("s", self.tet, second if d in first else first)
        return ("c", self.tet)

    def edge_region(self, a: int, b: int) -> Region:
        """Region containing the whole edge {a, b} (weight 0 required)."""
        if self.q:
            return ("s", self.tet, _pair_of(self.qoff, a))
        return ("c", self.tet)

    def disk_sides(self, disk: Disk) -> tuple[Region, Region]:
        """The two regions an elementary disk separates locally."""
        if disk[0] == "tri":
            _, _, x, i = disk
            near = ("v", self.tet, x, i - 1)
            if i < self.tri[x]:
                far: Region = ("v", self.tet, x, i)
            elif self.q:
                far = self._side(x)
            else:
                far = ("c", self.tet)
            return near, far
        _, _, j = disk
        first, second = _pairs_of(self.qoff)
        side0 = ("s", self.tet, first) if j == 1 else ("q", self.tet, j - 1)
        side1 = (("s", self.tet, second) if j == self.q
                 else ("q", self.tet, j))
        return side0, side1


def _patterns(tri: Triangulation, v: Sequence[int]) -> list[_TetPattern]:
    """Validate the vector as an admissible solution; split by tet."""
    sys = tri.matching_system
    sys.check_length(v)
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
            for t in range(tri.tet_count)]


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


def _crossing_point(skel: Skeleton, pats: list[_TetPattern],
                    t: int, a: int, b: int, pos_from_a: int
                    ) -> tuple[int, int]:
    """Identify crossing point pos_from_a on edge {a,b} of tet t as
    (edge class, position along the class direction)."""
    edge = (min(a, b), max(a, b))
    ec = skel.edge_classes[skel.edge_class_of[(t, edge)]]
    direction = ec.directions[(t, edge)]
    w = pats[t].edge_weight(a, b)
    if direction == (a, b):
        return ec.index, pos_from_a
    return ec.index, w + 1 - pos_from_a


def analyze(tri: Triangulation, v: Sequence[int]) -> SurfaceReport:
    """Edge weights, Euler characteristic, components, and boundary.

    The Euler characteristic is the global cell count V - E + F of the
    surface: V crossing points with edges, E arcs on faces, F
    elementary disks. Components join disks glued arc-to-arc across
    interior faces; boundary circles join boundary-face arcs at their
    endpoints on boundary edges.
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
    disk_count = sum(v)

    arcs = 0
    disks = UnionFind(d for p in pats for d in p.disks())
    for (ta, fa), (tb, fb), vmap in tri.interior_pairs():
        da, db = omitted_vertex(fa), omitted_vertex(fb)
        for x in fa:
            count = pats[ta].arc_count(x, da)
            arcs += count
            for depth in range(1, count + 1):
                disks.union(pats[ta].disk_at(x, da, depth),
                            pats[tb].disk_at(vmap[x], db, depth))

    boundary_arcs = UnionFind([])
    point_arcs: dict[tuple[int, int], list] = {}
    for (t, face) in tri.boundary_facets():
        d = omitted_vertex(face)
        for x in face:
            count = pats[t].arc_count(x, d)
            arcs += count
            for depth in range(1, count + 1):
                arc = (t, face, x, depth)
                boundary_arcs.add(arc)
                for other in face:
                    if other != x:
                        pt = _crossing_point(skel, pats, t, x, other, depth)
                        point_arcs.setdefault(pt, []).append(arc)
    for pt, incident in point_arcs.items():
        if len(incident) != 2:
            raise NormSurfError(
                f"internal inconsistency: boundary crossing point {pt} "
                f"lies on {len(incident)} arcs")
        boundary_arcs.union(*incident)

    components = len(disks.groups()) if disk_count else 0
    circles = len(boundary_arcs.groups())
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

    cells = UnionFind(r for p in pats for r in p.regions())
    for (ta, fa), (tb, fb), vmap in tri.interior_pairs():
        da, db = omitted_vertex(fa), omitted_vertex(fb)
        for x in fa:
            count = pats[ta].arc_count(x, da)
            for k in range(count):
                cells.union(pats[ta].face_piece_region(x, da, k),
                            pats[tb].face_piece_region(vmap[x], db, k))
        cells.union(pats[ta].face_center_region(da),
                    pats[tb].face_center_region(db))

    grouped = cells.groups()
    roots = sorted(grouped, key=lambda r: grouped[r][0])
    region_id = {root: i for i, root in enumerate(roots)}

    def locate(cell: Region) -> int:
        return region_id[cells.find(cell)]

    vertex_region = []
    for vc in skel.vertex_classes:
        where = {locate(pats[t].vertex_region(x)) for t, x in vc.members}
        if len(where) != 1:
            raise NormSurfError(
                f"internal inconsistency: vertex class {vc.index} meets "
                f"regions {sorted(where)}")
        vertex_region.append(where.pop())

    edge_region: dict[int, int] = {}
    for ec in skel.edge_classes:
        if any(pats[t].edge_weight(a, b) for t, (a, b) in ec.members):
            continue
        where = {locate(pats[t].edge_region(a, b)) for t, (a, b) in ec.members}
        if len(where) != 1:
            raise NormSurfError(
                f"internal inconsistency: edge class {ec.index} meets "
                f"regions {sorted(where)}")
        edge_region[ec.index] = where.pop()

    adjacency = set()
    for p in pats:
        for disk in p.disks():
            s0, s1 = (locate(side) for side in p.disk_sides(disk))
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
