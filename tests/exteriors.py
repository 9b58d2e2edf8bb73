"""Closed inputs for the unknot decision, built from bounded exteriors.

`cone(E)` adds one cap tetrahedron per boundary face of E: cap c_k has
apex 0, its face (123) is glued to boundary face k, and the caps are
glued to each other along E's boundary surface. The apex class is then
an ideal vertex whose link is E's boundary, so `cone(E)` with the knot
IdealVertex("c0", 0) is the closed input and E itself the disk input.
"""

from normsurf.triangulation import Triangulation

from tables import SOLID_TORUS_RECORD

# The 3-tet layered solid torus: the 1-tet solid torus s, then two
# layerings. Its boundary torus has the meridian as an edge.
LAYERED_SOLID_TORUS = (
    SOLID_TORUS_RECORD,
    ("L1", (0, 1, 2), "s", (2, 3, 0)),
    ("L1", (0, 1, 3), "s", (2, 3, 1)),
    ("L2", (0, 1, 2), "L1", (0, 3, 2)),
    ("L2", (0, 1, 3), "L1", (2, 1, 3)),
)


def layered_solid_torus() -> Triangulation:
    return Triangulation(("s", "L1", "L2"), LAYERED_SOLID_TORUS)


def cone(exterior: Triangulation) -> Triangulation:
    """exterior with its boundary coned off; the caps are named c0, c1,
    ... in `boundary_facets` order, and cap c_k's vertex m + 1 goes to
    corner m of boundary face k."""
    names = list(exterior.names)
    records = [(exterior.name(i), face, exterior.name(j),
                tuple(vmap[x] for x in face))
               for (i, face), (j, _), vmap in exterior.interior_pairs()]
    for k, (t, face) in enumerate(exterior.boundary_facets()):
        names.append(f"c{k}")
        records.append((f"c{k}", (1, 2, 3), exterior.name(t), face))
    surface = exterior.boundary_surface
    for (k, (a, b)), (k2, _), vmap in surface.interior_pairs():
        records.append((f"c{k}", (0, a + 1, b + 1),
                        f"c{k2}", (0, vmap[a] + 1, vmap[b] + 1)))
    return Triangulation(names, records)
