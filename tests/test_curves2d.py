"""Normal curves on triangulated surfaces, checked against the oracles."""

import importlib
import json
import random
from pathlib import Path

import pytest

from normsurf import curves2d
from normsurf.curves2d import (SurfaceTriangulation, analyze_curve,
                               build_matching_system_2d,
                               connect_boundary_points, parse_surface,
                               serialize_surface, validate_surface)
from normsurf.errors import TriangulationError
from normsurf.fixtures import square_surface
from normsurf.hilbert import enumerate_fundamental
from normsurf.matching import is_solution

from oracles import random_surface, trace_curve_components, triangle_component_uf

SEEDS = range(12)


def surfaces(max_triangles=6):
    return [random_surface(random.Random(seed), max_triangles)
            for seed in SEEDS]


def test_surface_json_round_trip():
    for surf in surfaces() + [square_surface()]:
        text = serialize_surface(surf)
        assert parse_surface(text) == surf
        assert serialize_surface(parse_surface(text)) == text


def test_is_connected_matches_flood_fill():
    shapes = set()
    for surf in surfaces():
        uf = triangle_component_uf(surf)
        expected = len({uf.find(i) for i in range(surf.triangle_count)}) <= 1
        assert surf.is_connected() == expected
        shapes.add(expected)
    assert shapes == {True, False}


def test_component_counts_match_oracle():
    checked = 0
    for surf in surfaces():
        assert validate_surface(surf) == []
        system = build_matching_system_2d(surf)
        for v in enumerate_fundamental(system).vectors:
            assert is_solution(system, v)
            report = analyze_curve(surf, v)
            assert report.components == trace_curve_components(surf, v)
            checked += 1
    assert checked > 20


def test_one_sided_record_gets_its_inverse():
    record = ("A", (0, 1), "B", (0, 2))
    one_sided = SurfaceTriangulation(("A", "B"), [record])
    assert one_sided == SurfaceTriangulation(
        ("A", "B"), [record, ("B", (0, 2), "A", (0, 1))])
    assert validate_surface(one_sided) == []
    assert validate_surface(square_surface()) == []


def test_connect_boundary_points_on_square():
    surf = square_surface()
    assert sorted(surf.format_edge(*spot) for spot in surf.boundary_edges()) \
        == ["A(01)", "A(12)", "B(02)", "B(12)"]
    system = build_matching_system_2d(surf)
    for p, q in ((("A", (0, 1)), ("B", (1, 2))),
                 (("A", (1, 2)), ("B", (2, 0))),
                 (("A", (0, 1)), ("A", (1, 2)))):
        v = connect_boundary_points(surf, p, q)
        assert v is not None and is_solution(system, v)
        crossings = {surf.format_edge(i, (a, b)): v[3 * i + a] + v[3 * i + b]
                     for i, (a, b) in surf.boundary_edges()}
        assert sorted(crossings.values()) == [0, 0, 1, 1]
        assert analyze_curve(surf, v).components == 1
    assert connect_boundary_points(surf, ("B", (1, 2)), ("B", (2, 1))) \
        == (0,) * 6


BENCH = Path(__file__).resolve().parent.parent / "bench"
# (candidates_examined, number of vectors) of the full basis behind
# connect_boundary_points on bench/gen.py's 3 x 3 grids, built with
# random.Random(1), and whether the query found a path: the two queries
# the dual-basis workload times
GRID_WORK = {
    "grid_surface": (4_713, 113, True),
    "disjoint_grids": (4_518, 103, False),
}


@pytest.mark.parametrize("make", sorted(GRID_WORK))
def test_grid_queries_pin_the_completion_work(make, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    seen = []

    def spy(*args, **kwargs):
        seen.append(enumerate_fundamental(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(curves2d, "enumerate_fundamental", spy)
    doc, p, q = getattr(gen, make)(3, random.Random(1))
    v = connect_boundary_points(parse_surface(json.dumps(doc)), p, q)
    [fs] = seen
    assert (fs.candidates_examined, len(fs.vectors), v is not None) == \
        GRID_WORK[make]


def test_connect_rejects_interior_edge():
    with pytest.raises(TriangulationError, match="not a boundary edge"):
        connect_boundary_points(square_surface(), ("A", (0, 2)), ("B", (1, 2)))


def test_edge_labels_must_be_integers():
    doc = {"triangles": ["A", "B"],
           "gluings": [{"tri": "A", "edge": [0, True],
                        "to": {"tri": "B", "verts": [0, 1]}}]}
    with pytest.raises(TriangulationError,
                       match="edge must be two distinct vertex labels"):
        parse_surface(json.dumps(doc))
