"""Gluing structure, validation, skeleton classes, serialization."""

import ast
import json
from pathlib import Path

import pytest

import normsurf
from normsurf.errors import TriangulationError
from normsurf.fixtures import (disconnected_pair, fig8_link, single_tet,
                               solid_torus)
from normsurf.triangulation import (EdgeCycle, IdealVertex, LinkSpec,
                                    Triangulation, compute_skeleton,
                                    parse_cycle, parse_link,
                                    parse_link_component,
                                    parse_triangulation, resolve_link,
                                    serialize_cycle, serialize_link,
                                    serialize_link_component,
                                    serialize_triangulation, validate)

from tables import HAND_EDGE_CLASSES_12, hand_edge_classes_10


def member_names(tri, ec):
    return frozenset(f"{tri.name(t)}({a}{b})" for t, (a, b) in ec.members)


def test_fixture_shapes(tri10, tri12):
    assert tri10.tet_count == 10
    assert tri12.tet_count == 12
    assert len(tri10.boundary_facets()) == 2
    assert tri12.boundary_facets() == []
    assert tri10.is_connected() and tri12.is_connected()
    assert validate(tri10) == []
    assert validate(tri12) == []


def test_name_index_round_trip(tri12):
    for i in range(tri12.tet_count):
        assert tri12.index(tri12.name(i)) == i
    with pytest.raises(TriangulationError):
        tri12.index("nonexistent")


def test_single_tet():
    st = single_tet()
    assert validate(st) == []
    assert len(st.boundary_facets()) == 4
    assert list(st.interior_pairs()) == []
    skel = compute_skeleton(st)
    assert len(skel.vertex_classes) == 4
    assert len(skel.edge_classes) == 6


def test_disconnected_pair():
    pair = disconnected_pair()
    assert validate(pair) == []
    assert pair.tet_count == 24
    assert not pair.is_connected()
    assert pair.boundary_facets() == []
    names = {pair.name(i) for i in range(24)}
    assert {"A.h1", "B.h1", "A.p", "B.b1*"} <= names


def test_skeleton_counts_10(tri10, skel10):
    assert len(skel10.vertex_classes) == 1
    vc = skel10.vertex_classes[0]
    assert vc.degree == 40 and vc.boundary
    assert len(skel10.edge_classes) == 12
    assert sum(ec.degree for ec in skel10.edge_classes) == 60
    assert not any(ec.inverted for ec in skel10.edge_classes)
    assert len(list(tri10.interior_pairs())) == 19


def test_skeleton_counts_12(tri12, skel12):
    assert len(skel12.vertex_classes) == 2
    assert sorted(vc.degree for vc in skel12.vertex_classes) == [2, 46]
    assert len(skel12.edge_classes) == 13
    assert sum(ec.degree for ec in skel12.edge_classes) == 72
    assert not any(ec.inverted for ec in skel12.edge_classes)
    assert len(list(tri12.interior_pairs())) == 24


def test_edge_classes_match_hand_table_12(tri12, skel12):
    computed = {member_names(tri12, ec) for ec in skel12.edge_classes}
    hand = {frozenset(v) for v in HAND_EDGE_CLASSES_12.values()}
    assert computed == hand


def test_edge_classes_match_hand_table_10(tri10, skel10):
    computed = {member_names(tri10, ec) for ec in skel10.edge_classes}
    hand = {frozenset(v) for v in hand_edge_classes_10().values()}
    assert computed == hand


def test_b1star13_class_has_ten_members_when_closed(tri12, skel12):
    # the closed fixture extends this class by one edge of each filling tet
    t = tri12.index("b1*")
    ec = skel12.edge_classes[skel12.edge_class_of[(t, (1, 3))]]
    got = member_names(tri12, ec)
    assert got == frozenset(HAND_EDGE_CLASSES_12["A"])
    assert len(got) == 10


def test_solid_torus_skeleton():
    stor = solid_torus()
    assert validate(stor) == []
    assert len(stor.boundary_facets()) == 2
    skel = compute_skeleton(stor)
    assert len(skel.vertex_classes) == 1
    assert len(skel.edge_classes) == 3
    assert all(ec.boundary for ec in skel.edge_classes)


def test_inverted_edge_class_detected():
    tri = Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))],
                        infer_reciprocals=True)
    assert validate(tri) == []
    skel = compute_skeleton(tri)
    inverted = [ec for ec in skel.edge_classes if ec.inverted]
    assert [member_names(tri, ec) for ec in inverted] == [
        frozenset({"s(01)"})]


def test_validate_self_gluing():
    tri = Triangulation(("a",), [("a", (0, 1, 2), "a", (0, 2, 1))],
                        infer_reciprocals=True)
    problems = validate(tri)
    assert len(problems) == 1 and "glued to itself" in problems[0]


def test_validate_missing_reciprocal():
    tri = Triangulation(("a", "b"), [("a", (0, 1, 2), "b", (0, 1, 2))])
    problems = validate(tri)
    assert any("no reciprocal" in p for p in problems)


def test_validate_non_inverse_pair():
    tri = Triangulation(("a", "b"), [("a", (0, 1, 2), "b", (0, 1, 2)),
                                     ("b", (0, 1, 2), "a", (0, 2, 1))])
    problems = validate(tri)
    assert any("not the inverse" in p for p in problems)


def test_constructor_rejects_bad_face():
    with pytest.raises(TriangulationError):
        Triangulation(("a",), [("a", (0, 1, 1), "a", (1, 2, 3))],
                      infer_reciprocals=True)
    with pytest.raises(TriangulationError):
        Triangulation(("a", "a"))


def test_triangulation_json_round_trip(tri10, tri12):
    for tri in (tri10, tri12, single_tet(), solid_torus()):
        assert parse_triangulation(serialize_triangulation(tri)) == tri


def test_parse_rejects_conflicting_gluings():
    doc = {"tetrahedra": ["a", "b"],
           "gluings": [
               {"tet": "a", "face": [0, 1, 2],
                "to": {"tet": "b", "verts": [0, 1, 2]}},
               {"tet": "b", "face": [0, 1, 2],
                "to": {"tet": "a", "verts": [1, 0, 2]}}]}
    with pytest.raises(TriangulationError, match="duplicate gluing"):
        parse_triangulation(json.dumps(doc))


def test_parse_rejects_unknown_tet():
    doc = {"tetrahedra": ["a"],
           "gluings": [{"tet": "a", "face": [0, 1, 2],
                        "to": {"tet": "zz", "verts": [0, 1, 2]}}]}
    with pytest.raises(TriangulationError):
        parse_triangulation(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(TriangulationError):
        parse_triangulation("{not json")


def test_link_round_trip():
    link = fig8_link()
    assert parse_link(serialize_link(link)) == link
    for comp in link.components:
        assert parse_link_component(serialize_link_component(comp)) == comp


def test_cycle_round_trip():
    cyc = EdgeCycle(edges=(("b1*", (1, 3)), ("p", (0, 2))))
    assert parse_cycle(serialize_cycle(cyc)) == cyc


def test_parse_link_component_rejects_unknown_shape():
    with pytest.raises(TriangulationError):
        parse_link_component('{"somethingElse": 1}')


def test_resolve_link(tri12, skel12):
    link = fig8_link()
    resolved = resolve_link(tri12, link)
    assert resolved.components == link.components
    assert len(resolved.vertex_components) == 1
    assert len(resolved.edge_cycles) == 1
    # the cycle resolves to the ten-member class
    (classes,) = resolved.edge_cycles
    t = tri12.index("b1*")
    assert classes == (skel12.edge_class_of[(t, (1, 3))],)


def test_resolve_link_requires_two_components(tri12):
    single = LinkSpec(components=(IdealVertex("h1", 0),))
    with pytest.raises(TriangulationError, match="exactly 2 components"):
        resolve_link(tri12, single)
    resolved = resolve_link(tri12, single, require_two_components=False)
    assert len(resolved.vertex_components) == 1


def test_resolve_link_rejects_bad_references(tri12):
    bad_tet = LinkSpec(components=(IdealVertex("nope", 0),
                                   EdgeCycle(edges=(("p", (1, 0)),))))
    with pytest.raises(TriangulationError):
        resolve_link(tri12, bad_tet)
    bad_cycle = LinkSpec(components=(IdealVertex("h1", 0),
                                     EdgeCycle(edges=())))
    with pytest.raises(TriangulationError):
        resolve_link(tri12, bad_cycle)


def test_resolve_link_vertex_label_must_be_int(tri12):
    link = LinkSpec(components=(IdealVertex("h1", True),))
    with pytest.raises(TriangulationError,
                       match="vertex label must be in 0..3"):
        resolve_link(tri12, link, require_two_components=False)


def test_resolve_link_edge_labels_must_be_ints(tri12):
    link = LinkSpec(components=(EdgeCycle(edges=(("b1*", (True, 3)),)),))
    with pytest.raises(TriangulationError, match="bad edge reference"):
        resolve_link(tri12, link, require_two_components=False)


@pytest.mark.parametrize("component", [
    {"edgeCycle": [{"tet": "p", "edge": [1.9, 2.7]}]},
    {"edgeCycle": [{"tet": "p", "edge": ["1", 2]}]},
    {"edgeCycle": [{"tet": "p", "edge": [True, 2]}]},
    {"idealVertex": {"tet": "h1", "vertex": 0.6}},
    {"idealVertex": {"tet": "h1", "vertex": "3"}},
    {"idealVertex": {"tet": "h1", "vertex": True}},
])
def test_component_labels_must_be_integers(component):
    with pytest.raises(TriangulationError,
                       match="^bad (edge cycle step|idealVertex component)"):
        parse_link_component(json.dumps(component))


def test_gluing_labels_must_be_integers():
    doc = {"tetrahedra": ["a", "b"],
           "gluings": [{"tet": "a", "face": [0, 1, 2],
                        "to": {"tet": "b", "verts": [0, 1.0, 3]}}]}
    with pytest.raises(TriangulationError,
                       match="glued vertex triple must be three distinct"):
        parse_triangulation(json.dumps(doc))


def test_boundary_surface_structure(tri10, tri12):
    """One triangle per boundary face, in boundary_facets order; the
    boundary of a 3-manifold is a closed surface."""
    cases = [(single_tet(), 4), (tri10, 2), (solid_torus(), 2), (tri12, 0)]
    for tri, triangles in cases:
        surf = tri.boundary_surface
        assert surf is tri.boundary_surface
        assert surf.size == triangles
        assert surf.names == tuple(tri.format_spot(*spot)
                                   for spot in tri.boundary_facets())
        assert validate(surf) == []
        assert surf.is_connected()
        assert surf.boundary_facets() == []


# Kept on Gluing and SurfaceTriangulation only for the benchmark scripts.
BENCH_ALIASES = {"tetrahedra", "tet_count", "triangle_count",
                 "boundary_edges", "format_edge"}


def test_package_reads_no_bench_alias():
    """The package itself uses the Gluing names, so the aliases can go
    once the benchmark scripts stop reading them."""
    uses = []
    for path in sorted(Path(normsurf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in BENCH_ALIASES:
                uses.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert uses == []
