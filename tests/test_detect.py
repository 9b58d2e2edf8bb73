"""Split-link search and the unknot check built on top of it."""

import sys

import pytest

from normsurf import detect, matching, surface, triangulation
from normsurf.detect import (filter_unknotting_disks, split_link_check,
                             unknot_via_pushoff)
from normsurf.errors import HomologyError, TriangulationError
from normsurf.fixtures import (disconnected_link, disconnected_pair,
                               fig8_closed, fig8_link, fig8_longitude_cycle,
                               fig8_pushoff_cycle, single_tet, solid_torus)
from normsurf.hilbert import enumerate_fundamental
from normsurf.homology import cycle_chain, h1
from normsurf.matching import (boundary_meeting_variables,
                               build_matching_system, is_admissible,
                               vertex_link_vector)
from normsurf.surface import analyze, separates
from normsurf.triangulation import (EdgeCycle, IdealVertex, LinkSpec,
                                    Triangulation, compute_skeleton,
                                    validate)

from oracles import surface_cell_counts
from tables import (SOLID_TORUS_FUNDAMENTALS, SOLID_TORUS_MERIDIAN,
                    SOLID_TORUS_MERIDIAN_PATTERN, SOLID_TORUS_RECORD,
                    one_tet_two_face_gluings)


def test_knot_is_not_split(tri12):
    verdict = split_link_check(tri12, fig8_link())
    assert verdict.answer == "NOT_SPLIT"
    assert verdict.witness is None
    assert verdict.searched_count == 3
    assert verdict.diagnostics is None


def count_calls(monkeypatch, fn):
    """Replace fn wherever a normsurf module binds it by a wrapper that
    counts its calls; returns the list the calls are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "normsurf" or name.startswith("normsurf."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_split_check_derives_each_datum_once(monkeypatch):
    tri = disconnected_pair()
    validated = count_calls(monkeypatch, triangulation.validate)
    skeletons = count_calls(monkeypatch, triangulation.compute_skeleton)
    systems = count_calls(monkeypatch, matching.build_matching_system)
    verdict = split_link_check(tri, disconnected_link())
    assert verdict.answer == "SPLIT" and verdict.searched_count == 53
    assert (len(validated), len(skeletons), len(systems)) == (1, 1, 1)


def test_split_scan_analyzes_only_screened_vectors(monkeypatch, disc_tri,
                                                   disc_link):
    # of the 53 fundamental surfaces scanned, only the witness is a
    # closed surface of Euler characteristic 2
    analyzed = count_calls(monkeypatch, surface.analyze)
    verdict = split_link_check(disc_tri, disc_link)
    assert verdict.answer == "SPLIT" and verdict.searched_count == 53
    assert [args[1] for args in analyzed] == [verdict.witness]


def test_split_scan_refuses_surfaces_crossing_inverted_edges():
    # edge 01 is glued to itself reversed, and the first fundamental
    # surface, a quad meeting the boundary, crosses it
    tri = Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))],
                        infer_reciprocals=True)
    link = LinkSpec(components=(IdealVertex("s", 0), IdealVertex("s", 2)))
    with pytest.raises(TriangulationError, match="reversed"):
        split_link_check(tri, link)


def test_component_order_does_not_matter(tri12):
    link = fig8_link()
    swapped = LinkSpec(components=tuple(reversed(link.components)))
    assert split_link_check(tri12, swapped).answer == "NOT_SPLIT"


def test_disconnected_pair_is_split(disc_tri, disc_link):
    verdict = split_link_check(disc_tri, disc_link)
    assert verdict.answer == "SPLIT"
    v = verdict.witness
    assert v is not None
    r = analyze(disc_tri, v)
    assert r.closed and r.euler == 2 and r.components == 1
    assert separates(disc_tri, v, disc_link)
    assert surface_cell_counts(disc_tri, v)[3:5] == (2, 1)
    # the witness is one of the material vertex links
    skel = compute_skeleton(disc_tri)
    links = {vertex_link_vector(disc_tri, vc.index)
             for vc in skel.vertex_classes}
    assert v in links


@pytest.mark.parametrize("kept", [0, 1])
def test_link_must_have_two_components(tri12, kept, monkeypatch):
    """Checked before enumerating: restrict_to_link takes one component,
    and on the edge cycle alone the scan would report NOT_SPLIT."""
    def never(*args, **kwargs):
        raise AssertionError("enumerated a one-component link")

    monkeypatch.setattr(detect, "enumerate_fundamental", never)
    lone = LinkSpec(components=(fig8_link().components[kept],))
    with pytest.raises(TriangulationError, match="exactly 2 components"):
        split_link_check(tri12, lone)


def test_budget_gives_unknown(tri12):
    verdict = split_link_check(tri12, fig8_link(), max_candidates=5)
    assert verdict.answer == "UNKNOWN"
    assert verdict.witness is None
    assert "budget" in verdict.diagnostics


def test_unknot_requires_verified_pushoff(tri12, tri10):
    knot, pushoff = fig8_link().components
    # the closed fixture cannot verify on its own (lenient H1 collapses)
    with pytest.raises(HomologyError, match="could not verify"):
        unknot_via_pushoff(tri12, knot, pushoff)
    # verified against the complement, the pushoff is visibly non-null
    with pytest.raises(HomologyError, match="not null-homologous"):
        unknot_via_pushoff(tri12, knot, pushoff, homology_tri=tri10)


def test_unknot_waived_check_says_knotted(tri12):
    knot, pushoff = fig8_link().components
    verdict = unknot_via_pushoff(tri12, knot, pushoff,
                                 waive_pushoff_check=True)
    assert verdict.answer == "KNOTTED"
    assert verdict.searched_count == 3


def test_unknot_with_true_longitude(tri12, tri10):
    knot = fig8_link().components[0]
    longitude = fig8_longitude_cycle()
    verdict = unknot_via_pushoff(tri12, knot, longitude,
                                 homology_tri=tri10)
    assert verdict.answer == "KNOTTED"
    assert verdict.witness is None


def test_unknot_ideal_vertex_pushoff_rejected(tri12):
    knot = fig8_link().components[0]
    with pytest.raises(HomologyError, match="ideal-vertex pushoff"):
        unknot_via_pushoff(tri12, knot, IdealVertex(tet="p", vertex=0))


def test_unknotted_control(disc_tri, disc_link):
    a, b = disc_link.components
    verdict = unknot_via_pushoff(disc_tri, a, b, waive_pushoff_check=True)
    assert verdict.answer == "UNKNOTTED"
    assert verdict.witness is not None


def test_unknot_budget_unknown(tri12):
    knot, pushoff = fig8_link().components
    verdict = unknot_via_pushoff(tri12, knot, pushoff,
                                 waive_pushoff_check=True, max_candidates=5)
    assert verdict.answer == "UNKNOWN"
    assert "candidates" in verdict.diagnostics


def test_boundary_meeting_variables():
    assert boundary_meeting_variables(single_tet()) == frozenset(range(7))
    assert boundary_meeting_variables(fig8_closed()) == frozenset()


def test_filter_disks_rejects_closed(tri12, fund_restricted):
    with pytest.raises(TriangulationError, match="closed"):
        filter_unknotting_disks(tri12, fund_restricted, range(84))


def test_filter_disks_single_tet():
    st = single_tet()
    fs = enumerate_fundamental(build_matching_system(st),
                               admissible_only=True)
    assert len(fs.vectors) == 7
    disks = filter_unknotting_disks(st, fs, range(7))
    assert disks == list(fs.vectors)
    assert filter_unknotting_disks(st, fs, ()) == []


def disks_by_analysis(tri, fs, allowed):
    """filter_unknotting_disks without the linear screen: every vector
    off the banned variables goes through analyze."""
    banned = boundary_meeting_variables(tri) - frozenset(allowed)
    out = []
    for v in fs.vectors:
        if not any(v) or any(v[i] for i in banned):
            continue
        r = analyze(tri, v)
        if (r.euler, r.components, r.closed, r.boundary_circles) == (
                1, 1, False, 1):
            out.append(v)
    return out


def test_screened_disk_filter_keeps_every_disk(tri10, fund10):
    st = solid_torus()
    fs_st = enumerate_fundamental(build_matching_system(st),
                                  admissible_only=True)
    for tri, fs, count in ((tri10, fund10, 1), (st, fs_st, 2)):
        allowed = boundary_meeting_variables(tri)
        disks = filter_unknotting_disks(tri, fs, allowed)
        assert len(disks) == count
        assert disks == disks_by_analysis(tri, fs, allowed)


def test_filter_disks_complement(tri10, fund10):
    allowed = boundary_meeting_variables(tri10)
    disks = filter_unknotting_disks(tri10, fund10, allowed)
    for v in disks:
        r = analyze(tri10, v)
        assert (r.euler, r.components, r.boundary_circles) == (1, 1, 1)
        assert not r.closed
    spheres = [v for v in fund10.vectors
               if analyze(tri10, v).euler == 2]
    assert not set(map(tuple, disks)) & set(map(tuple, spheres))


def test_solid_torus_is_the_expected_gluing():
    """An exhaustive scan over one-tet, one-gluing triangulations.

    The bundled solid torus is one of the records whose complex is
    valid, oriented (no reversed self-gluing), connected along the
    boundary, and has a single vertex class; the scan pins down the
    frozen record as such a gluing and its fundamental list as frozen.
    """
    hits = []
    for name, fa, name2, img in one_tet_two_face_gluings():
        tri = Triangulation((name,), [(name, fa, name2, img)],
                            infer_reciprocals=True)
        if validate(tri):
            continue
        skel = compute_skeleton(tri)
        if any(ec.inverted for ec in skel.edge_classes):
            continue
        if len(skel.vertex_classes) != 1:
            continue
        sys = build_matching_system(tri)
        fs = enumerate_fundamental(sys, admissible_only=True)
        hits.append(((name, fa, name2, img), frozenset(fs.vectors)))
    frozen = frozenset(SOLID_TORUS_FUNDAMENTALS)
    matching = [rec for rec, vecs in hits if vecs == frozen]
    assert SOLID_TORUS_RECORD in matching
    assert len(hits) == 12


def test_solid_torus_fundamentals():
    tri = solid_torus()
    fs = enumerate_fundamental(build_matching_system(tri),
                               admissible_only=True)
    assert set(fs.vectors) == set(SOLID_TORUS_FUNDAMENTALS)
    for v in fs.vectors:
        assert is_admissible(v)


def test_solid_torus_meridian_is_the_unknotting_disk():
    tri = solid_torus()
    fs = enumerate_fundamental(build_matching_system(tri),
                               admissible_only=True)
    disks = filter_unknotting_disks(tri, fs, SOLID_TORUS_MERIDIAN_PATTERN)
    assert disks == [SOLID_TORUS_MERIDIAN]
    r = analyze(tri, SOLID_TORUS_MERIDIAN)
    assert (r.euler, r.components, r.boundary_circles) == (1, 1, 1)


def test_solid_torus_core_relations():
    tri = solid_torus()
    s = h1(tri)
    assert (s.free_rank, s.torsion) == (1, ())

    def cls(pair):
        return s.class_of(cycle_chain(tri, EdgeCycle(edges=(("s", pair),))))

    core = cls((0, 1))
    assert abs(core.values[0]) == 1
    assert cls((0, 3)).values == (2 * core).values
    assert cls((2, 3)).values == (3 * core).values
