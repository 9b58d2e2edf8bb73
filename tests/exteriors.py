"""Closed inputs for the unknot decision, built from bounded exteriors.

`cone(E)` adds one cap tetrahedron per boundary face of E: cap c_k has
apex 0, its face (123) is glued to boundary face k, and the caps are
glued to each other along E's boundary surface. The apex class is then
an ideal vertex whose link is E's boundary, so `cone(E)` with the knot
IdealVertex("c0", 0) is the closed input and E itself the disk input.
`grow(E, size, seed)` makes larger triangulations of the same manifold
by seeded interior 2-3 moves.
"""

import random

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


def grow(exterior: Triangulation, size: int, seed: int) -> Triangulation:
    """exterior after interior 2-3 moves (Pachner, Europ. J. Combin. 12,
    1991) until it has `size` tetrahedra.

    Each move shuffles the interior faces with one random.Random(seed)
    and takes the first face between two distinct tetrahedra A and B
    whose other faces are glued to neither of them. A and B, with apexes
    a and b off that face, are replaced by three tetrahedra around the
    new edge ab, one per edge uv of the face: vertices 0, 1, 2, 3 are a,
    b, u, v. Faces (023) and (123) take over A's face auv and B's face
    buv, glued where those were or left on the boundary, and face (013)
    is glued to face (012) of the next one around. So the boundary
    triangles are kept, only moved to new tetrahedra, and `cone` still
    applies. The k-th move names its tetrahedra m<k>.0, m<k>.1 and
    m<k>.2, after the ones it keeps.
    """
    rng = random.Random(seed)
    tri = exterior
    for move in range(size - exterior.size):
        pairs = list(tri.interior_pairs())
        rng.shuffle(pairs)
        for (a, shared), (b, _), vmap in pairs:
            if a != b and all(
                    tri.glued_to(t, f) is None
                    or tri.glued_to(t, f)[0] not in (a, b)
                    for t, own in ((a, shared), (b, tuple(sorted(
                        vmap.values()))))
                    for f in tri.FACETS if f != own):
                break
        else:
            raise ValueError(f"no interior 2-3 move after {move} moves")
        apex_a, = {0, 1, 2, 3} - set(shared)
        apex_b, = {0, 1, 2, 3} - set(vmap.values())
        names = [n for i, n in enumerate(tri.names) if i not in (a, b)]
        records = [(tri.name(i), f, tri.name(j), tuple(m[x] for x in f))
                   for (i, f), (j, _), m in tri.interior_pairs()
                   if not {i, j} & {a, b}]
        new = [f"m{move}.{k}" for k in range(3)]
        for k, (u, v) in enumerate(zip(shared, shared[1:] + shared[:1])):
            for side, corners in ((0, (apex_a, u, v)),
                                  (1, (apex_b, vmap[u], vmap[v]))):
                target = tri.glued_to((a, b)[side], corners)
                if target is not None:
                    image = dict(zip(sorted(corners), target[1]))
                    records.append((new[k], (side, 2, 3), tri.name(target[0]),
                                    tuple(image[x] for x in corners)))
            records.append((new[k], (0, 1, 3), new[(k + 1) % 3], (0, 1, 2)))
        tri = Triangulation(names + new, records)
    return tri
