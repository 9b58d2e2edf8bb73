"""Surface reading of solution vectors: cells, components, separation.

The frozen cell counts were derived by hand and re-derived by the
orbit-counting oracle in oracles.py, which rebuilds every crossing
point, arc, and disk from the raw gluings without the library's
surface code.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from normsurf.curves2d import analyze_curve
from normsurf.errors import TriangulationError, VectorError
from normsurf.fixtures import fig8_link, single_tet, square_surface
from normsurf.matching import (all_triangles_vector,
                               boundary_meeting_variables, euler_coefficients,
                               haken_sum, is_admissible, is_solution,
                               vertex_link_vector)
from normsurf.surface import (_stacks, analyze, complement_regions,
                              separates)
from normsurf.triangulation import (FACES, IdealVertex, LinkSpec,
                                    Triangulation, resolve_link)

from oracles import (boundary_curve, surface_cell_counts,
                     trace_curve_components)
from tables import reference_solutions


def cells(report):
    V = report.weight
    F = report.disk_count
    E = V + F - report.euler
    return (V, E, F, report.euler, report.components,
            report.boundary_circles)


def test_first_reference_solution(tri12):
    v = reference_solutions(tri12)[0]
    r = analyze(tri12, v)
    assert cells(r) == (18, 47, 29, 0, 1, 0)
    assert r.closed
    assert not separates(tri12, v, fig8_link())
    assert surface_cell_counts(tri12, v) == (18, 47, 29, 0, 1, 0)


def test_separates_refuses_surfaces_touching_the_link(tri12):
    # every triangle at every corner crosses the link's edge cycle
    with pytest.raises(VectorError, match="surface touches the link"):
        separates(tri12, all_triangles_vector(tri12), fig8_link())


def test_second_reference_solution(tri12):
    v = reference_solutions(tri12)[1]
    r = analyze(tri12, v)
    assert cells(r) == (23, 59, 36, 0, 1, 0)
    assert r.closed
    assert separates(tri12, v, fig8_link())
    assert surface_cell_counts(tri12, v) == (23, 59, 36, 0, 1, 0)


def test_third_reference_solution(tri12, skel12):
    v = reference_solutions(tri12)[2]
    r = analyze(tri12, v)
    assert cells(r) == (1, 3, 2, 0, 1, 0)
    assert r.closed
    assert separates(tri12, v, fig8_link())
    graph = complement_regions(tri12, v)
    assert len(graph.regions) == 2
    # the small-degree vertex class sits alone on its side
    ideal = min(skel12.vertex_classes, key=lambda vc: vc.degree).index
    other_regions = {graph.vertex_region[vc.index]
                     for vc in skel12.vertex_classes if vc.index != ideal}
    assert graph.vertex_region[ideal] not in other_regions
    assert surface_cell_counts(tri12, v) == (1, 3, 2, 0, 1, 0)


def test_zero_vector(tri10):
    v = (0,) * 70
    r = analyze(tri10, v)
    assert cells(r) == (0, 0, 0, 0, 0, 0)
    assert r.closed
    assert len(complement_regions(tri10, v).regions) == 1


def test_all_triangles_10tet(tri10):
    v = all_triangles_vector(tri10)
    r = analyze(tri10, v)
    assert cells(r) == (24, 63, 40, 1, r.components, r.boundary_circles)
    assert not r.closed
    assert surface_cell_counts(tri10, v) == cells(r)


def test_single_tet_corner_disk():
    st = single_tet()
    v = (1, 0, 0, 0, 0, 0, 0)
    r = analyze(st, v)
    assert r.euler == 1
    assert r.components == 1
    assert r.boundary_circles == 1
    assert not r.closed
    graph = complement_regions(st, v)
    assert len(graph.regions) == 2
    assert surface_cell_counts(st, v) == cells(r)


def test_single_tet_quad_stack():
    st = single_tet()
    v = (0, 0, 0, 0, 0, 3, 0)
    assert cells(analyze(st, v)) == surface_cell_counts(st, v)


def test_material_vertex_link_is_separating_sphere(tri12, skel12):
    material = max(skel12.vertex_classes, key=lambda vc: vc.degree).index
    v = vertex_link_vector(tri12, material)
    r = analyze(tri12, v)
    assert r.euler == 2 and r.components == 1 and r.closed
    graph = complement_regions(tri12, v)
    assert len(graph.regions) == 2
    others = {graph.vertex_region[vc.index]
              for vc in skel12.vertex_classes if vc.index != material}
    assert graph.vertex_region[material] not in others


def test_ideal_vertex_link_is_torus(tri12, skel12):
    ideal = min(skel12.vertex_classes, key=lambda vc: vc.degree).index
    r = analyze(tri12, vertex_link_vector(tri12, ideal))
    assert r.euler == 0 and r.components == 1 and r.closed


def test_additivity_over_reference_pairs(tri12):
    v1, v2, v3 = reference_solutions(tri12)
    for a, b in ((v1, v2), (v1, v3), (v2, v3)):
        s = haken_sum(a, b)
        ra, rb, rs = analyze(tri12, a), analyze(tri12, b), analyze(tri12, s)
        assert rs.euler == ra.euler + rb.euler
        assert rs.weight == ra.weight + rb.weight


def test_doubling_scales_cells(tri12):
    v = reference_solutions(tri12)[1]
    r1 = analyze(tri12, v)
    r2 = analyze(tri12, tuple(2 * x for x in v))
    assert (r2.euler, r2.weight) == (2 * r1.euler, 2 * r1.weight)


def test_random_sums_match_oracle(tri10, tri12, fund_restricted, fund10):
    rng = random.Random(20260815)
    jobs = ((tri12, fund_restricted.vectors), (tri10, fund10.vectors))
    for tri, vectors in jobs:
        done = 0
        while done < 8:
            picks = rng.sample(vectors, rng.randint(1, 3))
            coeffs = [rng.randint(1, 2) for _ in picks]
            total = tuple(0 for _ in picks[0])
            try:
                for c, p in zip(coeffs, picks):
                    total = haken_sum(total, tuple(c * x for x in p))
            except VectorError:
                continue
            if not is_admissible(total):
                continue
            assert surface_cell_counts(tri, total) == cells(
                analyze(tri, total))
            done += 1


def test_region_count_bounds(tri12, fund_restricted):
    for v in fund_restricted.vectors:
        r = analyze(tri12, v)
        g = complement_regions(tri12, v)
        assert 1 <= len(g.regions) <= r.components + 1


def test_error_paths(tri12):
    v1 = reference_solutions(tri12)[0]
    with pytest.raises(VectorError):
        analyze(tri12, v1[:-1])
    bad = list(v1)
    bad[0] += 1
    with pytest.raises(VectorError):
        analyze(tri12, tuple(bad))
    st = single_tet()
    with pytest.raises(VectorError, match="two quad types"):
        analyze(st, (0, 0, 0, 0, 1, 1, 0))


def test_negative_entries_are_refused():
    with pytest.raises(VectorError, match="negative"):
        analyze(single_tet(), (-1, 0, 0, 0, 0, 0, 0))


def test_vector_entries_are_read_one_way(tri12, torus_tri):
    """Integral entries of any real type read as ints, other reals as
    no solution, and an entry that is no number is a VectorError."""
    v = (0, 0, 1, 1, 0, 1, 0)
    floats = tuple(map(float, v))
    assert analyze(torus_tri, floats) == analyze(torus_tri, v)
    assert complement_regions(torus_tri, floats) \
        == complement_regions(torus_tri, v)
    sphere = reference_solutions(tri12)[1]
    assert separates(tri12, tuple(map(float, sphere)), fig8_link())
    square, curve = square_surface(), (1, 0, 0, 0, 1, 0)
    assert analyze_curve(square, tuple(map(float, curve))) \
        == analyze_curve(square, curve)

    assert not is_solution(torus_tri.matching_system, (0.5,) + (0,) * 6)
    with pytest.raises(VectorError, match="not a solution"):
        analyze_curve(square, (0.5,) * 6)
    for bad in ("0", None, 1j):
        calls = [
            lambda: is_solution(torus_tri.matching_system, (bad,) * 7),
            lambda: analyze(torus_tri, (bad,) * 7),
            lambda: complement_regions(torus_tri, (bad,) * 7),
            lambda: separates(tri12, (bad,) * 84, fig8_link()),
            lambda: analyze_curve(square, (bad,) * 6),
        ]
        for call in calls:
            with pytest.raises(VectorError, match="is not a number"):
                call()


def test_inverted_edge_class_policy():
    # edge s(01) is glued to itself reversed: the triangulation is
    # refused whatever the vector, one of zero weight on it included
    tri = Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))])
    link = LinkSpec(components=(IdealVertex("s", 0), IdealVertex("s", 2)))
    for v in [(1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1), (0,) * 7]:
        for read in (lambda: analyze(tri, v),
                     lambda: separates(tri, v, link)):
            with pytest.raises(TriangulationError, match="reversed"):
                read()


def test_euler_characteristic_and_closedness_are_linear(
        tri10, fund10, tri12, fund_restricted, disc_tri, fund_pair,
        torus_tri, fund_torus):
    """The Euler form (euler_coefficients) gives the oracle's Euler
    characteristic, and zero weight on the boundary-meeting variables
    means the oracle finds no boundary circle, on every admissible
    fundamental vector of four systems, and the admissible sums of
    seeded pairs of them.
    """
    cases = [
        (tri10, fund10.vectors),
        (tri12, fund_restricted.vectors),
        (disc_tri, fund_pair.vectors),
        (torus_tri, fund_torus.vectors),
    ]
    rng = random.Random(4)
    checked = []
    for tri, vectors in cases:
        pairs = [rng.sample(vectors, 2) for _ in range(40)]
        summed = [tuple(x + y for x, y in zip(a, b)) for a, b in pairs]
        checked += [(tri, v) for v in list(vectors) + summed
                    if is_admissible(v)]
    assert [len(vs) for _, vs in cases] == [110, 3, 54, 4]
    assert len(checked) == 171 + 82

    for tri, v in checked:
        c = euler_coefficients(tri)
        assert len(c) == 7 * tri.size
        boundary = boundary_meeting_variables(tri)
        _, _, _, chi, _, circles = surface_cell_counts(tri, v)
        assert sum(a * x for a, x in zip(c, v)) == chi
        assert (not any(v[i] for i in boundary)) == (circles == 0)


# sha256 of the lines test_surface_reading_is_pinned builds: per vector,
# every SurfaceReport field, the RegionGraph (regions, vertex regions,
# sorted edge regions) and, where the system has a link, separates.
SURFACE_SHA256 = (
    "6643b03ef233c8b6140d5f3b6f0011328b0896d76856e7d6d731a4adaf36397b")


def test_surface_reading_is_pinned(tri10, fund10, tri12, fund_restricted,
                                   disc_tri, disc_link, fund_pair,
                                   torus_tri, fund_torus):
    """Pins the full surface reading of the admissible fundamental
    vectors of four systems and of seeded admissible sums of them, so
    a rewrite of the cell and region bookkeeping keeps every output."""
    cases = [
        (tri10, fund10.vectors, None),
        (tri12, fund_restricted.vectors, fig8_link()),
        (disc_tri, fund_pair.vectors, disc_link),
        (torus_tri, fund_torus.vectors, None),
    ]
    rng = random.Random(10)
    lines = []
    for tri, vectors, link in cases:
        sums = [tuple(x + y for x, y in zip(*rng.sample(vectors, 2)))
                for _ in range(100)]
        for v in list(vectors) + [s for s in sums if is_admissible(s)]:
            r = analyze(tri, v)
            g = complement_regions(tri, v)
            row = [list(v), list(dataclasses.astuple(r)), list(g.regions),
                   list(g.vertex_region), sorted(g.edge_region.items())]
            if link is not None:
                row.append(separates(tri, v, link))
            lines.append(json.dumps(row))
    assert len(lines) == 368
    blob = "\n".join(lines).encode()
    assert hashlib.sha256(blob).hexdigest() == SURFACE_SHA256


def test_each_class_meets_one_region(tri10, fund10, tri12, fund_restricted,
                                     disc_tri, disc_link, fund_pair,
                                     torus_tri, fund_torus):
    """complement_regions reads each class at its first member. That is
    sound because each of these starts in one cell of the joined stack
    entries: every stack at every corner of a vertex class; the stacks
    at both ends of every member of an uncrossed edge class; and, when
    the surface misses the link, the stacks at a link component's
    vertex classes."""
    cases = [
        (tri10, fund10.vectors, None),
        (tri12, fund_restricted.vectors, fig8_link()),
        (disc_tri, fund_pair.vectors, disc_link),
        (torus_tri, fund_torus.vectors, None),
    ]

    def one(where):
        assert len(where) == 1
        return where.pop()

    checked = [0, 0, 0]
    for tri, vectors, link in cases:
        skel = tri.skeleton
        comps = resolve_link(tri, link) if link is not None else ()
        for v in vectors:
            stacks = _stacks(v)
            cells = tri.join_stacks(stacks, 0)

            def home(t, x):
                return one({cells.find(stacks[t, x, f][0])
                            for f in FACES if x in f})

            vertex_cell = [one({home(t, x) for t, x in vc.members})
                           for vc in skel.vertex_classes]
            weights = analyze(tri, v).edge_weights
            for ec in skel.edge_classes:
                if not weights[ec.index]:
                    one({home(t, x) for t, pair in ec.members for x in pair})
                    checked[1] += 1
            for comp in comps:
                if not any(weights[c] for c, _ in comp.edges):
                    one({vertex_cell[vc] for vc in comp.vertex_classes})
                    checked[2] += 1
            checked[0] += len(vertex_cell)
    # vertex classes, uncrossed edge classes, missed link components
    assert checked == [336, 970, 114]


def test_boundary_circles_are_the_boundary_curve_components(
        tri10, fund10, torus_tri, fund_torus):
    """The boundary curve's components on the boundary surface, traced
    by the oracle's endpoint arithmetic, are the oracle's boundary
    circles, on the admissible fundamentals of two bounded systems and
    seeded admissible sums of them."""
    rng = random.Random(11)
    circles = []
    for tri, vectors in ((tri10, fund10.vectors),
                         (torus_tri, fund_torus.vectors)):
        sums = [tuple(x + y for x, y in zip(*rng.sample(vectors, 2)))
                for _ in range(40)]
        for v in list(vectors) + [s for s in sums if is_admissible(s)]:
            n = trace_curve_components(tri.boundary_surface,
                                       boundary_curve(tri, v))
            assert n == surface_cell_counts(tri, v)[5]
            assert n == analyze(tri, v).boundary_circles
            circles.append(n)
    assert (len(circles), max(circles)) == (135, 5)
