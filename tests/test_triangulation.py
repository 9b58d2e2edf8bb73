"""Gluing structure, validation, skeleton classes, serialization."""

import ast
import json
import re
import types
from pathlib import Path

import pytest

import normsurf
from normsurf.curves2d import parse_surface
from normsurf.errors import TriangulationError
from normsurf.fixtures import (disconnected_pair, fig8_link,
                               fig8_longitude_cycle, fig8_pushoff_cycle,
                               single_tet, solid_torus)
from normsurf.triangulation import (EdgeCycle, IdealVertex, LinkSpec,
                                    Triangulation, compute_skeleton,
                                    parse_link, parse_link_component,
                                    parse_triangulation, resolve_link,
                                    serialize_link,
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
    assert len(list(tri10.interior_pairs())) == 19


def test_skeleton_counts_12(tri12, skel12):
    assert len(skel12.vertex_classes) == 2
    assert sorted(vc.degree for vc in skel12.vertex_classes) == [2, 46]
    assert len(skel12.edge_classes) == 13
    assert sum(ec.degree for ec in skel12.edge_classes) == 72
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
    tri = Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))])
    # the gluings are consistent, but the one edge class of s(01) is
    # glued to itself reversed, so no 3-manifold has this triangulation
    message = "edge class of s(01) is glued to itself reversed"
    assert validate(tri) == [message]
    with pytest.raises(TriangulationError, match=re.escape(message)):
        compute_skeleton(tri)
    refusal = re.escape(f"invalid triangulation: {message}")
    for refused in (tri.require_valid, lambda: tri.skeleton):
        with pytest.raises(TriangulationError, match=refusal):
            refused()


def test_validate_self_gluing():
    tri = Triangulation(("a",), [("a", (0, 1, 2), "a", (0, 2, 1))])
    problems = validate(tri)
    assert len(problems) == 1 and "glued to itself" in problems[0]


def test_one_sided_record_gets_its_inverse():
    record = ("a", (0, 1, 2), "b", (1, 2, 0))
    one_sided = Triangulation(("a", "b"), [record])
    two_sided = Triangulation(("a", "b"),
                              [record, ("b", (0, 1, 2), "a", (2, 0, 1))])
    assert one_sided == two_sided
    assert one_sided.glued_to(1, (0, 1, 2)) == (0, (2, 0, 1))
    assert validate(one_sided) == []


def test_non_inverse_pair_is_refused():
    with pytest.raises(TriangulationError, match="conflicts with"):
        Triangulation(("a", "b"), [("a", (0, 1, 2), "b", (0, 1, 2)),
                                   ("b", (0, 1, 2), "a", (0, 2, 1))])


def test_constructor_rejects_bad_face():
    with pytest.raises(TriangulationError):
        Triangulation(("a",), [("a", (0, 1, 1), "a", (1, 2, 3))])
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
    assert parse_link_component(serialize_link_component(cyc)) == cyc
    for cyc in (fig8_pushoff_cycle(), fig8_longitude_cycle()):
        assert parse_link_component(serialize_link_component(cyc)) == cyc


def test_parse_link_component_rejects_unknown_shape():
    with pytest.raises(TriangulationError):
        parse_link_component('{"somethingElse": 1}')


def _with_key(doc, path, key):
    """doc with `key` added to the object at `path`, a list of keys
    and indices from the top."""
    obj = doc
    for step in path:
        obj = obj[step]
    obj[key] = []
    return doc


def _solid_torus_doc():
    return json.loads(serialize_triangulation(solid_torus()))


def _link_doc():
    return json.loads(serialize_link(fig8_link()))


@pytest.mark.parametrize("parse, doc, message", [
    # "gluing" for "gluings": read as missing, it made the file a lone
    # tetrahedron with four boundary faces
    (parse_triangulation,
     {"tetrahedra": ["s"], "gluing": _solid_torus_doc()["gluings"]},
     "unknown keys ['gluing'] in triangulation file"),
    (parse_triangulation,
     _with_key(_solid_torus_doc(), ("gluings", 0), "Face"),
     "unknown keys ['Face'] in gluing record 0"),
    (parse_triangulation,
     _with_key(_solid_torus_doc(), ("gluings", 1, "to"), "vert"),
     "unknown keys ['vert'] in \"to\" of gluing record 1"),
    (parse_surface, {"triangles": ["A"], "gluings": [], "metadat": {}},
     "unknown keys ['metadat'] in surface triangulation file"),
    (parse_link, _with_key(_link_doc(), (), "component"),
     "unknown keys ['component'] in link file"),
    (parse_link, _with_key(_link_doc(), ("components", 1, "edgeCycle", 0),
                           "edges"),
     "unknown keys ['edges'] in edge cycle step"),
    (parse_link, _with_key(_link_doc(), ("components", 0, "idealVertex"),
                           "vertx"),
     "unknown keys ['vertx'] in idealVertex component"),
    (parse_link_component,
     {"idealVertex": {"tet": "h1", "vertex": 0, "vertx": 1}},
     "unknown keys ['vertx'] in idealVertex component"),
])
def test_input_files_refuse_unknown_keys(parse, doc, message):
    # a misspelt key is refused, not read as a missing optional one
    with pytest.raises(TriangulationError, match="^" + re.escape(message)):
        parse(json.dumps(doc))


def parse_link_entry(text):
    return parse_link(json.dumps({"components": [json.loads(text)]}))


@pytest.mark.parametrize("parse", [parse_link_component, parse_link_entry])
@pytest.mark.parametrize("extra", [
    {"idealVertex": {"tet": "h1", "vertex": 0}},
    {"note": "parallel loop"},
])
def test_component_files_hold_one_key(parse, extra):
    # a component file is read as one entry of a link file
    doc = {"edgeCycle": [{"tet": "b1*", "edge": [1, 2]}], **extra}
    with pytest.raises(TriangulationError,
                       match="^each link component must be"):
        parse(json.dumps(doc))


def test_repr_counts_simplices_and_directed_gluings(doubled10):
    assert repr(doubled10) == (
        "Triangulation(20 tetrahedra, 76 directed gluings)")


def test_resolve_link(tri12, skel12):
    link = fig8_link()
    vertex, cycle = resolve_link(tri12, link)
    assert vertex.edges == () and len(vertex.vertex_classes) == 1
    # the cycle resolves to the ten-member class
    t = tri12.index("b1*")
    assert [c for c, _ in cycle.edges] == [skel12.edge_class_of[(t, (1, 3))]]


def test_resolve_link_requires_two_components(tri12):
    single = LinkSpec(components=(IdealVertex("h1", 0),))
    with pytest.raises(TriangulationError, match="exactly 2 components"):
        resolve_link(tri12, single)
    (vertex,) = resolve_link(tri12, single, require_two_components=False)
    assert vertex.edges == () and len(vertex.vertex_classes) == 1


def test_link_cycles_are_simple_closed_curves(tri12):
    knot = IdealVertex("h1", 0)
    # back along the same edge class; two loops at one vertex class
    for steps in ((("p", (0, 1)), ("p", (1, 0))),
                  (("p", (0, 1)), ("3", (3, 2)))):
        walk = EdgeCycle(edges=steps)
        with pytest.raises(TriangulationError,
                           match="not a simple closed curve"):
            resolve_link(tri12, LinkSpec(components=(knot, walk)))
        # a chain or a restriction takes any closed walk
        (comp,) = resolve_link(tri12, LinkSpec(components=(walk,)),
                               require_two_components=False)
        assert len(comp.edges) == 2 and len(comp.vertex_classes) == 1
    # a one-step loop is a simple closed curve
    loop = EdgeCycle(edges=(("p", (0, 1)),))
    assert len(resolve_link(tri12, LinkSpec(components=(knot, loop)))) == 2


def test_resolve_link_rejects_bad_references(tri12):
    bad_tet = LinkSpec(components=(IdealVertex("nope", 0),
                                   EdgeCycle(edges=(("p", (1, 0)),))))
    with pytest.raises(TriangulationError):
        resolve_link(tri12, bad_tet)
    bad_cycle = LinkSpec(components=(IdealVertex("h1", 0),
                                     EdgeCycle(edges=())))
    with pytest.raises(TriangulationError):
        resolve_link(tri12, bad_cycle)


def test_resolve_link_rejects_shared_edge_classes(tri12):
    link = LinkSpec(components=(EdgeCycle(edges=(("b1*", (1, 3)),)),
                                EdgeCycle(edges=(("b1*", (3, 1)),))))
    with pytest.raises(TriangulationError, match="shared edge class"):
        resolve_link(tri12, link)


def test_resolve_link_rejects_shared_vertex_classes(tri12):
    knot = IdealVertex("h1", 0)
    with pytest.raises(TriangulationError, match="shared vertex class"):
        resolve_link(tri12, LinkSpec(components=(knot, knot)))


def test_resolve_link_rejects_open_cycles():
    # the four vertices of a lone tetrahedron lie in four classes
    link = LinkSpec(components=(EdgeCycle(edges=(("tet", (0, 1)),)),))
    with pytest.raises(TriangulationError, match="does not close up"):
        resolve_link(single_tet(), link, require_two_components=False)


def test_resolve_link_rejects_unknown_components(tri12):
    link = LinkSpec(components=("h1", fig8_link().components[1]))
    with pytest.raises(TriangulationError, match="unknown link component"):
        resolve_link(tri12, link)


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
    """The package itself uses the Gluing names and never passes the
    ignored constructor keyword, so the aliases can go once the
    benchmark scripts stop reading them."""
    uses = []
    for path in sorted(Path(normsurf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in BENCH_ALIASES:
                uses.append(f"{path.name}:{node.lineno} .{node.attr}")
            if (isinstance(node, ast.keyword)
                    and node.arg == "infer_reciprocals"):
                uses.append(f"{path.name}:{node.lineno} infer_reciprocals=")
    assert uses == []


def test_all_lists_every_public_binding():
    """The package's imports and __all__ name the same objects, so a
    deletion that edits one list and not the other fails here."""
    public = [name for name, value in vars(normsurf).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(normsurf.__all__) == sorted(public)
