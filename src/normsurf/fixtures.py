"""Bundled example triangulations and links.

The figure-eight fixtures encode a 10-tetrahedron triangulation of the
figure-eight knot complement (torus boundary, two boundary faces) and
its 12-tetrahedron closed extension, where two extra tetrahedra h1, h2
cap off the boundary torus and their far vertex class becomes the ideal
vertex. The bundled link pairs that ideal vertex with the boundary
edge b1*(13), a parallel loop that is not 0-framed, so `split-check
--link fig8_link.json` answers for that link only; the knottedness
proof is `unknot --knot fig8_knot.json`, which derives the null b1*(12).
"""

from __future__ import annotations

from .curves2d import SurfaceTriangulation
from .triangulation import FACES, EdgeCycle, IdealVertex, LinkSpec, Triangulation

COORDINATE_NOTE = (
    "per-tetrahedron solution blocks are [t0,t1,t2,t3,q01,q02,q03]; "
    "t_v counts normal triangles cutting off vertex v; q01 counts "
    "quadrilaterals separating vertices {0,1} from {2,3}, q02 separates "
    "{0,2} from {1,3}, q03 separates {0,3} from {1,2}")

TEN_TET_NAMES = ("p", "p'", "1", "3", "4bar", "6bar", "9", "c", "b1*", "b2*")

# Row format: tet -> targets for its faces (012), (013), (023), (123);
# None marks a boundary face. Entry ("3", (3, 2, 0)) on the (012) row of
# p means face p(012) is glued to 3(320): 0->3, 1->2, 2->0.
TEN_TET_ROWS: dict[str, tuple] = {
    "p": (("3", (3, 2, 0)), ("4bar", (1, 3, 2)), ("9", (3, 2, 0)), ("p'", (3, 2, 0))),
    "p'": (("1", (1, 3, 2)), ("9", (1, 2, 3)), ("p", (3, 2, 1)), ("6bar", (0, 3, 2))),
    "1": (("b1*", (1, 2, 0)), ("b2*", (1, 3, 0)), ("3", (3, 1, 2)), ("p'", (0, 2, 1))),
    "3": (("c", (1, 3, 0)), ("6bar", (0, 1, 2)), ("p", (2, 1, 0)), ("1", (2, 3, 0))),
    "4bar": (("c", (0, 2, 1)), ("b1*", (1, 3, 0)), ("6bar", (2, 3, 1)), ("p", (0, 3, 1))),
    "6bar": (("3", (0, 1, 3)), ("c", (0, 2, 3)), ("p'", (1, 3, 2)), ("4bar", (3, 0, 2))),
    "9": (("b2*", (2, 3, 0)), ("c", (1, 3, 2)), ("p", (3, 2, 0)), ("p'", (0, 1, 3))),
    "c": (("4bar", (0, 2, 1)), ("3", (2, 0, 1)), ("6bar", (0, 1, 3)), ("9", (0, 3, 1))),
    "b1*": (("1", (2, 0, 1)), ("4bar", (3, 0, 1)), ("b2*", (0, 2, 1)), None),
    "b2*": (("b1*", (0, 3, 2)), ("1", (3, 0, 1)), ("9", (2, 0, 1)), None),
}

# Closed extension: cap the boundary faces b1*(123), b2*(123) with h1, h2.
CLOSING_ROWS: dict[str, tuple] = {
    "h1": (("h2", (0, 1, 2)), ("h2", (0, 3, 2)), ("h2", (0, 3, 1)), ("b1*", (3, 2, 1))),
    "h2": (("h1", (0, 1, 2)), ("h1", (0, 3, 2)), ("h1", (0, 3, 1)), ("b2*", (1, 2, 3))),
}


def _records(rows: dict[str, tuple]) -> list[tuple]:
    records = []
    for tet, targets in rows.items():
        for face, target in zip(FACES, targets):
            if target is not None:
                records.append((tet, face, target[0], target[1]))
    return records


def fig8_complement() -> Triangulation:
    """10-tetrahedron figure-eight knot complement, torus boundary."""
    return Triangulation(
        TEN_TET_NAMES, _records(TEN_TET_ROWS),
        metadata={"coordinates": COORDINATE_NOTE})


def fig8_closed() -> Triangulation:
    """12-tetrahedron closed extension of the knot complement."""
    rows = dict(TEN_TET_ROWS)
    rows.update(CLOSING_ROWS)
    return Triangulation(
        TEN_TET_NAMES + ("h1", "h2"), _records(rows),
        metadata={"coordinates": COORDINATE_NOTE})


def fig8_pushoff_cycle() -> EdgeCycle:
    """The boundary edge b1*(13), a loop parallel to the knot.

    Its class generates the complement's first homology, so this
    parallel copy is not 0-framed and fails verify_zero_pushoff; see
    fig8_longitude_cycle for the parallel loop that is null-homologous.
    The split-link check itself does not depend on the framing.
    """
    return EdgeCycle(edges=(("b1*", (1, 3)),))


def fig8_longitude_cycle() -> EdgeCycle:
    """The boundary edge b1*(12), a null-homologous loop parallel to
    the knot: a true 0-framed longitude, with an explicit bounding
    2-chain in the complement. `unknot --knot fig8_knot.json` derives
    its class off the knot's cusp, as an edge of a cap's base."""
    return EdgeCycle(edges=(("b1*", (1, 2)),))


def fig8_link() -> LinkSpec:
    """The knot (the ideal vertex class of the closed fixture) and its
    parallel loop b1*(13), which fails verify_zero_pushoff: the split
    check answers for this link only (see fig8_longitude_cycle)."""
    return LinkSpec(components=(
        IdealVertex(tet="h1", vertex=0),
        fig8_pushoff_cycle(),
    ))


def single_tet() -> Triangulation:
    """One unglued tetrahedron: a ball with 4 boundary faces."""
    return Triangulation(("tet",))


def solid_torus() -> Triangulation:
    """One-tetrahedron solid torus: face (012) glued to (013) by
    0->1, 1->3, 2->0.

    One vertex class and three edge classes, all on the boundary torus
    (two boundary faces); first homology is Z, and the edge loop (0,1)
    runs parallel to the core, generating it. The meridian disk shows
    up among the admissible fundamental surfaces as (0,0,1,1,0,1,0):
    Euler characteristic 1, one boundary circle, and cutting along it
    leaves a single ball, so its boundary curve is essential.
    """
    return Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 3, 0))])


def disconnected_pair() -> Triangulation:
    """Two disjoint copies of the closed figure-eight fixture.

    Copy names are prefixed "A." and "B.". Used as a positive control:
    a link with one component in each copy is manifestly split.
    """
    names = []
    records = []
    for prefix in ("A.", "B."):
        rows = dict(TEN_TET_ROWS)
        rows.update(CLOSING_ROWS)
        names.extend(prefix + n for n in TEN_TET_NAMES + ("h1", "h2"))
        for tet, face, to, verts in _records(rows):
            records.append((prefix + tet, face, prefix + to, verts))
    return Triangulation(
        names, records, metadata={"coordinates": COORDINATE_NOTE})


def disconnected_link() -> LinkSpec:
    """One component in each copy of the disconnected pair: the ideal
    vertex of copy A and the b1*(13) loop of copy B."""
    return LinkSpec(components=(
        IdealVertex(tet="A.h1", vertex=0),
        EdgeCycle(edges=(("B.b1*", (1, 3)),)),
    ))


def square_surface() -> SurfaceTriangulation:
    """A square: two triangles sharing their diagonal.

    Corners run P0, P1, P2, P3; triangle A is (P0, P1, P2) and B is
    (P0, P2, P3), so A's edge (0,2) meets B's edge (0,1) along the
    diagonal P0-P2. Four boundary edges remain: the square's sides
    A(01), A(12), B(12), B(02).
    """
    return SurfaceTriangulation(("A", "B"), [("A", (0, 2), "B", (0, 1))])

