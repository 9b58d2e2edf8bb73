"""Seeded input generators for the benchmark.

Everything here is a pure function of a `random.Random`, so one seed
always yields the same inputs. The program under test only ever sees
the files these functions write.

- `relabel` reorders the tetrahedra of a triangulation and permutes the
  vertex labels inside each tetrahedron. The same relabelling is applied
  to link components, so a component keeps naming the same vertex or
  edge of the underlying complex.
- `grid_surface` builds a k x k square grid, each cell cut into two
  triangles, with shuffled triangle order and vertex labels;
  `disjoint_grids` puts two such grids side by side.
"""

from __future__ import annotations

import random
from typing import Sequence

from normsurf.triangulation import (
    FACES,
    EdgeCycle,
    IdealVertex,
    LinkComponent,
    Triangulation,
)

Relabelling = tuple[tuple[str, ...], dict[str, tuple[int, ...]]]


def random_relabelling(names: Sequence[str], rng: random.Random) -> Relabelling:
    """A new tetrahedron order and, per tetrahedron, a permutation
    sigma of its vertex labels (old label v becomes sigma[v])."""
    order = list(names)
    rng.shuffle(order)
    perms = {}
    for name in names:
        sigma = [0, 1, 2, 3]
        rng.shuffle(sigma)
        perms[name] = tuple(sigma)
    return tuple(order), perms


def relabel(tri: Triangulation, relabelling: Relabelling) -> Triangulation:
    """The same complex with tetrahedra reordered and vertices renamed.

    Tetrahedra missing from the triangulation are skipped in the order,
    so one relabelling of a closed triangulation also applies to its
    sub-triangulations (the bounded complement inside the closed
    extension).
    """
    order, perms = relabelling
    records = []
    for i in range(tri.tet_count):
        src = tri.name(i)
        for face in FACES:
            target = tri.glued_to(i, face)
            if target is None:
                continue
            j, image = target
            dst = tri.name(j)
            records.append((
                src, tuple(perms[src][v] for v in face),
                dst, tuple(perms[dst][v] for v in image)))
    present = set(tri.tetrahedra)
    return Triangulation(
        [n for n in order if n in present], records, infer_reciprocals=True)


def relabel_component(comp: LinkComponent,
                      relabelling: Relabelling) -> LinkComponent:
    _, perms = relabelling
    if isinstance(comp, IdealVertex):
        return IdealVertex(tet=comp.tet, vertex=perms[comp.tet][comp.vertex])
    return EdgeCycle(edges=tuple(
        (tet, (perms[tet][u], perms[tet][v])) for tet, (u, v) in comp.edges))


# -- 2D grids ---------------------------------------------------------------


def _grid_cells(k: int, prefix: str) -> list[tuple[str, list]]:
    """Triangles of a k x k grid as (name, three corner points); a point
    is (prefix, (x, y)), so the points of two grids never coincide."""
    cells = []
    for x in range(k):
        for y in range(k):
            a, b = (prefix, (x, y)), (prefix, (x + 1, y))
            c, d = (prefix, (x + 1, y + 1)), (prefix, (x, y + 1))
            cells.append((f"{prefix}{x}.{y}L", [a, b, c]))
            cells.append((f"{prefix}{x}.{y}U", [a, c, d]))
    return cells


def _surface_doc(cells: list[tuple[str, list]]) -> tuple[dict, dict]:
    """JSON surface document plus, per named triangle, its corner points
    in local label order. Triangles sharing two points are glued."""
    corners = {name: pts for name, pts in cells}
    owners: dict[frozenset, list[tuple[str, tuple[int, int]]]] = {}
    for name, pts in cells:
        for u, w in ((0, 1), (0, 2), (1, 2)):
            owners.setdefault(frozenset((pts[u], pts[w])), []).append(
                (name, (u, w)))
    gluings = []
    for edge, sides in owners.items():
        if len(sides) != 2:
            continue
        (s, (u, w)), (t, _) = sides
        image = [corners[t].index(corners[s][u]),
                 corners[t].index(corners[s][w])]
        gluings.append({"tri": s, "edge": [u, w],
                        "to": {"tri": t, "verts": image}})
    doc = {"triangles": [name for name, _ in cells], "gluings": gluings}
    return doc, corners


def _shuffled(cells: list[tuple[str, list]], rng: random.Random
              ) -> list[tuple[str, list]]:
    """Cells in a random order, each with its corners in a random order
    (which fixes the triangle's local vertex labels)."""
    rng.shuffle(cells)
    for _, pts in cells:
        rng.shuffle(pts)
    return cells


def _side_edge(corners: dict, prefix: str, side: str, row: int,
               k: int) -> tuple[str, tuple[int, int]]:
    """The boundary edge on the left (x = 0) or right (x = k) side of a
    grid between heights row and row + 1, as (triangle, local pair)."""
    x = 0 if side == "left" else k
    want = {(prefix, (x, row)), (prefix, (x, row + 1))}
    for name, pts in corners.items():
        labels = [i for i, p in enumerate(pts) if p in want]
        if len(labels) == 2:
            return name, (labels[0], labels[1])
    raise ValueError(f"no {side} boundary edge at row {row}")


def grid_surface(k: int, rng: random.Random) -> tuple[dict, tuple, tuple]:
    """A shuffled k x k grid and two boundary edges on opposite sides,
    at seeded heights: (surface document, edge P, edge Q)."""
    cells = _shuffled(_grid_cells(k, "G"), rng)
    doc, corners = _surface_doc(cells)
    p = _side_edge(corners, "G", "left", rng.randrange(k), k)
    q = _side_edge(corners, "G", "right", rng.randrange(k), k)
    return doc, p, q


def disjoint_grids(k: int, rng: random.Random) -> tuple[dict, tuple, tuple]:
    """Two shuffled k x k grids in one file, with edge P on the first and
    edge Q on the second, so no normal path joins them."""
    cells = _shuffled(_grid_cells(k, "A") + _grid_cells(k, "B"), rng)
    doc, corners = _surface_doc(cells)
    p = _side_edge(corners, "A", "left", rng.randrange(k), k)
    q = _side_edge(corners, "B", "right", rng.randrange(k), k)
    return doc, p, q
