"""Normal curves on triangulated surfaces.

The two-dimensional warm-up for the rest of the package. A normal
curve meets each triangle in elementary arcs; an arc cuts off one
vertex, its two endpoints on the two edges at that vertex, so a curve
is a vector in Z^{3t} with per-triangle blocks [a0, a1, a2]. One
matching equation per interior edge makes the crossing counts agree
across the gluing, and any nonnegative solution is realized by a
disjoint family of arcs and closed curves. There is no admissibility
side-condition in 2D: solutions add coordinatewise.

Two boundary points are joined by a normal path exactly when the
system, constrained to put one arc endpoint on each of their edges and
none on any other boundary edge, has a solution; and then a fundamental
one, because a minimal-weight solution cannot split. (Endpoint totals
are even for every solution, so a decomposition must send both marked
endpoints to the same summand, contradicting minimality.) That makes
connectivity checkable by fundamental enumeration alone.

A surface is a `SurfaceTriangulation`, the 2D case of the gluing class
in `triangulation`, which supplies its constructor, validation and
JSON codec. Each surface validates itself and builds its matching
system once, on first use, and keeps both. Curve components are joined
by `Gluing.join_stacks`, the walk that joins 3D normal disks; it also
counts a normal surface's boundary circles on `boundary_surface`. The
`validate_surface` alias, like the `Gluing` ones, is kept only for the
benchmark scripts.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Optional, Sequence

from .errors import TriangulationError
from .hilbert import DEFAULT_MAX_CANDIDATES, enumerate_fundamental
from .matching import MatchingSystem
from .triangulation import Gluing, corner_stack, validate

CURVE_BLOCK = 3
EDGES_2D = ((0, 1), (0, 2), (1, 2))

CurveVector = tuple[int, ...]
EdgeSpot2D = tuple[int, tuple[int, int]]
EdgeRef = tuple[str, tuple[int, int]]


class SurfaceTriangulation(Gluing):
    """Triangles glued in pairs along edges.

    The 2D case of `triangulation.Gluing`: records are (triangle, edge
    pair, to triangle, image pair). Besides the shared gluing data it
    keeps its matching system (`build_matching_system_2d`), computed on
    first use.
    """

    DIM = 2
    FACETS = EDGES_2D
    NOUN, FACET, KIND = "triangle", "edge", "surface triangulation"
    JSON_KEYS = ("triangles", "tri", "edge")

    triangle_count = Gluing.size
    boundary_edges = Gluing.boundary_facets
    format_edge = Gluing.format_spot

    @cached_property
    def matching_system(self) -> MatchingSystem:
        return build_matching_system_2d(self)


validate_surface = validate


def build_matching_system_2d(surf: SurfaceTriangulation) -> MatchingSystem:
    """One equation per interior edge class.

    For a gluing of triangle A's edge {u, v} onto B's {s(u), s(v)},
    arcs crossing the edge are those cutting off either endpoint, so

        a^A_u + a^A_v = a^B_{s(u)} + a^B_{s(v)}.

    The result reuses MatchingSystem with no quad triples, so the
    fundamental enumerator and solution predicates apply unchanged.
    Each SurfaceTriangulation keeps the result as its `matching_system`.
    """
    surf.require_valid()
    equations = []
    for (i, (u, v)), (j, _), vmap in surf.interior_pairs():
        equations.append((
            CURVE_BLOCK * i + u,
            CURVE_BLOCK * i + v,
            CURVE_BLOCK * j + vmap[u],
            CURVE_BLOCK * j + vmap[v],
        ))
    return MatchingSystem(
        variable_count=CURVE_BLOCK * surf.size,
        equations=tuple(equations),
        forced_zeros=frozenset(),
        quad_triples=())


def _edge_crossings(v: Sequence[int], tri: int, edge: tuple[int, int]) -> int:
    u, w = edge
    return v[CURVE_BLOCK * tri + u] + v[CURVE_BLOCK * tri + w]


def _stack(v: Sequence[int], tri: int, x: int, edge: tuple[int, int]
           ) -> list:
    """Regions and arcs met, in turn, walking the edge from its end x:
    x's arcs by depth, the centre region, the far end's arcs in reverse
    (`triangulation.corner_stack` layout)."""
    y = sum(edge) - x
    nx, ny = v[CURVE_BLOCK * tri + x], v[CURVE_BLOCK * tri + y]
    regions = [*(("v", tri, x, k) for k in range(nx)), ("c", tri),
               *(("v", tri, y, k) for k in range(ny - 1, -1, -1))]
    arcs = [*((tri, x, k) for k in range(1, nx + 1)),
            *((tri, y, k) for k in range(ny, 0, -1))]
    return corner_stack(regions, arcs)


def curve_components(surf: SurfaceTriangulation, v: Sequence[int],
                     parity: int = 1) -> int:
    """Components of the curve of solution vector v, which is not
    checked: arcs crossing glued edges at the same point are joined by
    one corner-stack walk (`Gluing.join_stacks`). At parity 0 the walk
    joins regions instead: the pieces the curve cuts the surface into."""
    stacks = {(i, x, edge): _stack(v, i, x, edge)
              for i in range(surf.size) for edge in EDGES_2D for x in edge}
    return len(surf.join_stacks(stacks, parity).groups())


def _resolve_boundary_edge(surf: SurfaceTriangulation, ref: EdgeRef,
                           what: str) -> EdgeSpot2D:
    name, pair = ref
    spot: EdgeSpot2D = (surf.index(name), tuple(sorted(
        surf._check_labels(pair, f"{what} edge"))))
    if spot not in set(surf.boundary_facets()):
        raise TriangulationError(
            f"{what} edge {surf.format_spot(*spot)} is not a boundary edge")
    return spot


def connect_boundary_points(
    surf: SurfaceTriangulation,
    edge_p: EdgeRef,
    edge_q: EdgeRef,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    time_budget: Optional[float] = None,
) -> Optional[CurveVector]:
    """A normal path joining points on two boundary edges, if one exists.

    Edges are named as (triangle name, vertex pair). Points on the same
    boundary edge are connected along that edge, witnessed by the empty
    curve. Otherwise every other boundary edge is pinned to zero
    endpoints and the fundamental solutions of the constrained system
    are scanned for one with exactly one endpoint on each marked edge;
    the first such vector (lexicographically) is the witness. No
    witness proves the two edges lie on different components of the
    surface, since a connecting path of minimal weight would itself be
    fundamental.
    """
    p = _resolve_boundary_edge(surf, edge_p, "first")
    q = _resolve_boundary_edge(surf, edge_q, "second")
    sys_ = surf.matching_system
    if p == q:
        return tuple([0] * sys_.variable_count)
    zeros = set()
    for (i, (u, w)) in surf.boundary_facets():
        if (i, (u, w)) in (p, q):
            continue
        zeros.add(CURVE_BLOCK * i + u)
        zeros.add(CURVE_BLOCK * i + w)
    fs = enumerate_fundamental(
        replace(sys_, forced_zeros=frozenset(zeros)),
        max_candidates=max_candidates, time_budget=time_budget)
    for v in fs.vectors:
        if _edge_crossings(v, *p) == 1 and _edge_crossings(v, *q) == 1:
            return v
    return None


def parse_surface(text: str) -> SurfaceTriangulation:
    """Read the JSON 2D format.

    Shape mirrors the 3D triangulation format one dimension down:
    {"triangles": ["A", ...], "gluings": [{"tri": "A", "edge": [0,1],
    "to": {"tri": "B", "verts": [2,0]}}, ...]}. Missing reciprocals are
    inferred, conflicting ones rejected.
    """
    return SurfaceTriangulation.from_json(text)


def serialize_surface(surf: SurfaceTriangulation) -> str:
    """Write the JSON format; both directions of each gluing are listed."""
    return surf.to_json()
