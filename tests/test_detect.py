"""Split-link search and the unknot check built on top of it."""

import sys

import pytest

from normsurf import detect, hilbert, matching, surface, triangulation
from normsurf.detect import (filter_unknotting_disks, split_link_check,
                             unknot_via_pushoff)
from normsurf.errors import TriangulationError
from normsurf.fixtures import (disconnected_link, disconnected_pair,
                               fig8_closed, fig8_link, fig8_longitude_cycle,
                               fig8_pushoff_cycle, single_tet, solid_torus)
from normsurf.hilbert import enumerate_fundamental
from normsurf.homology import cycle_chain, h1, verify_zero_pushoff
from normsurf.matching import (boundary_meeting_variables,
                               build_matching_system, is_admissible,
                               is_solution, vertex_link_vector)
from normsurf.surface import analyze, complement_regions, separates
from normsurf.triangulation import (EdgeCycle, IdealVertex, LinkSpec,
                                    Triangulation, compute_skeleton,
                                    validate)

from exteriors import cone, layered_solid_torus
from oracles import boundary_curve, surface_cell_counts, trace_curve_regions
from tables import (SOLID_TORUS_FUNDAMENTALS, SOLID_TORUS_MERIDIAN,
                    SOLID_TORUS_RECORD, one_tet_two_face_gluings)


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


def test_non_manifold_is_refused_before_enumeration(monkeypatch):
    # edge s(01) is glued to itself reversed, so the gluing is no
    # 3-manifold's; the first fundamental surface, a quad meeting the
    # boundary, would cross it. Each entry point gets a fresh object, so
    # none relies on a refusal cached by another.
    def reversed_edge():
        return Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))])

    link = LinkSpec(components=(IdealVertex("s", 0), IdealVertex("s", 2)))
    enumerations = count_calls(monkeypatch, hilbert.enumerate_fundamental)
    calls = [
        lambda: split_link_check(reversed_edge(), link),
        lambda: filter_unknotting_disks(reversed_edge()),
        lambda: unknot_via_pushoff(reversed_edge(), link.components[0]),
        lambda: build_matching_system(reversed_edge()),
    ]
    for call in calls:
        with pytest.raises(TriangulationError, match=(
                r"invalid triangulation: edge class of s\(01\) is glued "
                "to itself reversed")):
            call()
    assert enumerations == []


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
    monkeypatch.setattr(detect, "_admissible_stages", never)
    lone = LinkSpec(components=(fig8_link().components[kept],))
    with pytest.raises(TriangulationError, match="exactly 2 components"):
        split_link_check(tri12, lone)


def test_budget_gives_unknown(tri12):
    verdict = split_link_check(tri12, fig8_link(), max_candidates=5)
    assert verdict.answer == "UNKNOWN"
    assert verdict.witness is None
    assert "budget" in verdict.diagnostics


# The split-pair witness: the vertex link sphere of copy A, every
# coordinate 0 or 1. On disconnected_pair the double description of both
# summands charges 230,207 candidates, and the whole admissible
# enumeration 230,448.
PAIR_WITNESS_SUPPORT = (
    0, 1, 2, 3, 7, 8, 9, 10, 14, 15, 16, 17, 21, 22, 23, 24, 28, 29, 30, 31,
    35, 36, 37, 38, 42, 43, 44, 45, 49, 50, 51, 52, 56, 57, 58, 59, 63, 64,
    65, 66, 71, 72, 73, 78, 79, 80)


@pytest.mark.parametrize("cap", [230_207, 230_300, 230_447])
def test_split_found_among_vertex_solutions_within_the_cap(cap, disc_tri,
                                                           disc_link):
    # the witness is a vertex solution, so a cap that the double
    # description fits but the face stage would pass still gives SPLIT
    verdict = split_link_check(disc_tri, disc_link, max_candidates=cap)
    assert (verdict.answer, verdict.searched_count) == ("SPLIT", 53)
    assert [i for i, x in enumerate(verdict.witness) if x] == \
        list(PAIR_WITNESS_SUPPORT)
    assert set(verdict.witness) == {0, 1}


def test_split_found_in_the_fundamental_scan(disc_tri, disc_link,
                                             monkeypatch):
    # with the witness (position 52 of both stages' 54 vectors) dropped
    # from the vertex solutions, the vertex scan finds no splitting
    # sphere and the fundamental scan finds it, analyzing nothing twice
    def support(v):
        return tuple(i for i, x in enumerate(v) if x)

    stages = detect._admissible_stages

    def witness_dropped(*args):
        both = stages(*args)
        yield [v for v in next(both) if support(v) != PAIR_WITNESS_SUPPORT]
        yield from both

    monkeypatch.setattr(detect, "_admissible_stages", witness_dropped)
    analyzed = count_calls(monkeypatch, surface.analyze)
    verdict = split_link_check(disc_tri, disc_link)
    assert (verdict.answer, verdict.searched_count) == ("SPLIT", 53)
    assert support(verdict.witness) == PAIR_WITNESS_SUPPORT
    vectors = [args[1] for args in analyzed]
    assert len(vectors) == len(set(vectors))


def test_vertex_stage_overrun_is_unknown(disc_tri, disc_link):
    verdict = split_link_check(disc_tri, disc_link, max_candidates=230_206)
    assert (verdict.answer, verdict.witness, verdict.searched_count) == \
        ("UNKNOWN", None, 0)
    assert "vertex stage (double description) exceeded" in \
        verdict.diagnostics
    assert "230207 candidates" in verdict.diagnostics


def test_face_stage_overrun_reports_the_vertex_scan(tri12):
    # the restricted 12-tet's double description charges 64 candidates
    # and its 3 vertex solutions do not split, so the first face passes
    # the cap
    verdict = split_link_check(tri12, fig8_link(), max_candidates=64)
    assert (verdict.answer, verdict.witness, verdict.searched_count) == \
        ("UNKNOWN", None, 3)
    assert verdict.diagnostics.startswith(
        "none of the 3 vertex solutions splits; the face stage exceeded")


@pytest.mark.parametrize("decide", ["knot", "longitude", "pair in one copy"])
def test_no_work_is_done_twice(decide, tri12, disc_tri, monkeypatch):
    # "pair in one copy" puts the knot and its pushoff in copy A: copy B's
    # vertex link sphere passes the screen in the vertex scan and fails
    # separates, and is met again, unanalyzed, in the fundamental scan
    tri, link, expected = {
        "knot": (tri12, fig8_link(), ("NOT_SPLIT", 3)),
        "longitude": (tri12, LinkSpec(components=(
            fig8_link().components[0], fig8_longitude_cycle())),
            ("NOT_SPLIT", 12)),
        "pair in one copy": (disc_tri, LinkSpec(components=(
            IdealVertex(tet="A.h1", vertex=0),
            EdgeCycle(edges=(("A.b1*", (1, 3)),)))), ("NOT_SPLIT", 54)),
    }[decide]
    summands = len(hilbert._summands(
        matching.restrict_to_link(tri.matching_system, tri, link)))
    double_descriptions = count_calls(monkeypatch, hilbert._extreme_rays)
    analyzed = count_calls(monkeypatch, surface.analyze)
    verdict = split_link_check(tri, link)
    assert (verdict.answer, verdict.searched_count) == expected
    assert len(double_descriptions) == summands
    vectors = [args[1] for args in analyzed]
    assert len(vectors) == len(set(vectors))
    assert len(vectors) == (decide == "pair in one copy")


def test_unknot_with_true_longitude(tri12):
    # the 0-pushoff read off the cusp, an edge of a cap's base, is in
    # the class of the longitude b1*(12), which is null in the knot's
    # own exterior, unlike the fixture's pushoff b1*(13)
    knot = fig8_link().components[0]
    longitude = fig8_longitude_cycle()
    assert verify_zero_pushoff(tri12, longitude)
    assert not verify_zero_pushoff(tri12, fig8_pushoff_cycle())
    pushoff = detect._zero_pushoff(tri12, knot)
    assert len(pushoff.edges) == 1 and pushoff.edges[0][0] in ("h1", "h2")
    assert cycle_chain(tri12, pushoff) == cycle_chain(tri12, longitude)


def test_unknot_verifies_the_longitude_on_the_closed_fixture(tri12):
    knot = fig8_link().components[0]
    verdict = unknot_via_pushoff(tri12, knot)
    assert (verdict.answer, verdict.searched_count) == ("KNOTTED", 12)
    assert verdict.witness is None


def never(*args, **kwargs):
    raise AssertionError("ran h1 or the enumeration")


@pytest.mark.parametrize("knot", [
    EdgeCycle(edges=(("A.b1*", (1, 3)),)),
    IdealVertex(tet="A.b1*", vertex=1),  # its link is a sphere
], ids=["edge cycle", "material vertex"])
def test_unknot_refuses_a_knot_h1_does_not_truncate(knot, disc_tri,
                                                    monkeypatch):
    # neither knot has a torus cusp to read a 0-pushoff off, so both are
    # refused before any homology or enumeration
    monkeypatch.setattr(detect, "h1", never)
    monkeypatch.setattr(detect, "_admissible_stages", never)
    with pytest.raises(TriangulationError, match=(
            "the knot must be an ideal vertex whose link is a torus of two "
            "triangles")):
        unknot_via_pushoff(disc_tri, knot)


def test_unknot_refuses_a_cusp_with_no_null_edge(monkeypatch):
    # the coned 1-tet solid torus: the cusp torus's three edges have
    # slopes 1, 2 and 3, none the meridian, so none is null
    monkeypatch.setattr(detect, "_admissible_stages", never)
    with pytest.raises(TriangulationError, match=(
            "0 of the 3 edges of the knot's link torus are null, not 1")):
        unknot_via_pushoff(cone(solid_torus()), IdealVertex("c0", 0))


def test_unknot_refuses_a_cusp_of_four_triangles(monkeypatch):
    # a tetrahedron stacked on a boundary face of the 1-tet solid torus
    # leaves a torus of four triangles and two vertices, so the coned
    # apex has degree 4 and its base edges are no loops
    (t, face), _ = solid_torus().boundary_facets()
    exterior = Triangulation(("s", "T"), [SOLID_TORUS_RECORD,
                                          ("T", (0, 1, 2), "s", face)])
    monkeypatch.setattr(detect, "h1", never)
    with pytest.raises(TriangulationError, match="link is a torus of two"):
        unknot_via_pushoff(cone(exterior), IdealVertex("c0", 0))


def test_doubled_back_walk_is_no_link_component(tri12, tri10):
    # p(01) then p(10) has chain 0 and passes the null-homology check,
    # but it is no simple closed curve, so no link component
    knot = fig8_link().components[0]
    walk = EdgeCycle(edges=(("p", (0, 1)), ("p", (1, 0))))
    assert verify_zero_pushoff(tri10, walk)
    with pytest.raises(TriangulationError, match="not a simple closed"):
        split_link_check(tri12, LinkSpec(components=(knot, walk)))


def test_unknotted_control():
    # the coned 3-tet layered solid torus is a real unknot: its cusp's
    # null edge is the solid torus's meridian, and both algorithms find
    # it trivial
    exterior = layered_solid_torus()
    tri, knot = cone(exterior), IdealVertex("c0", 0)
    verdict = unknot_via_pushoff(tri, knot)
    assert (verdict.answer, verdict.searched_count) == ("UNKNOTTED", 3)
    v = verdict.witness
    link = LinkSpec(components=(knot, detect._zero_pushoff(tri, knot)))
    assert is_admissible(v) and is_solution(
        matching.restrict_to_link(tri.matching_system, tri, link), v)
    r = analyze(tri, v)
    assert r.closed and r.components == 1 and r.euler == 2
    assert separates(tri, v, link)
    assert len(filter_unknotting_disks(exterior)) == 1


def test_knot_in_one_copy_of_the_pair_is_knotted(disc_tri):
    # copy A's figure-eight is decided against the longitude read off
    # its own cusp; copy B's longitude, null in the pair but not parallel
    # to the knot, once served as its pushoff and answered UNKNOTTED, 62
    verdict = unknot_via_pushoff(disc_tri, IdealVertex("A.h1", 0))
    assert (verdict.answer, verdict.searched_count) == ("KNOTTED", 63)


def test_unknot_budget_unknown(tri12):
    knot = fig8_link().components[0]
    verdict = unknot_via_pushoff(tri12, knot, max_candidates=5)
    assert (verdict.answer, verdict.searched_count) == ("UNKNOWN", 0)
    assert verdict.diagnostics.startswith(
        "the vertex stage (double description) exceeded its budget after "
        "18 candidates")


def test_boundary_meeting_variables():
    assert boundary_meeting_variables(single_tet()) == frozenset(range(7))
    assert boundary_meeting_variables(fig8_closed()) == frozenset()


def test_filter_disks_rejects_closed(tri12):
    with pytest.raises(TriangulationError, match="closed"):
        filter_unknotting_disks(tri12)


def is_disk(report):
    return (report.euler, report.components, report.closed,
            report.boundary_circles) == (1, 1, False, 1)


def disks_by_analysis(tri, fs):
    """filter_unknotting_disks on the enumeration fs, without the linear
    screen: every nonzero admissible vector goes through analyze, and a
    disk is kept when its boundary curve leaves the boundary in as many
    pieces as it had."""
    surf = tri.boundary_surface
    uncut = trace_curve_regions(surf, [0] * (3 * surf.size))
    return [v for v in fs.vectors
            if any(v) and is_admissible(v) and is_disk(analyze(tri, v))
            and trace_curve_regions(surf, boundary_curve(tri, v)) == uncut]


def test_filter_disks_single_tet():
    # all seven fundamentals are disks, but a ball has no compressing
    # disk: each boundary curve separates the boundary sphere
    st = single_tet()
    fs = enumerate_fundamental(build_matching_system(st),
                               admissible_only=True)
    assert len(fs.vectors) == 7
    assert all(is_disk(analyze(st, v)) for v in fs.vectors)
    assert filter_unknotting_disks(st) == disks_by_analysis(st, fs) == []


def test_screened_disk_filter_keeps_every_disk(tri10, fund10):
    st = solid_torus()
    fs_st = enumerate_fundamental(build_matching_system(st),
                                  admissible_only=True)
    for tri, fs, count in ((tri10, fund10, 0), (st, fs_st, 1)):
        disks = filter_unknotting_disks(tri)
        assert len(disks) == count
        assert disks == disks_by_analysis(tri, fs)


def one_tet_complements():
    """The 30 valid one-tet two-face gluings (no edge class glued to
    itself reversed), with their admissible fundamental sets."""
    out = []
    for record in one_tet_two_face_gluings():
        tri = Triangulation(("s",), [record])
        if validate(tri):
            continue
        out.append((tri, enumerate_fundamental(tri.matching_system,
                                               admissible_only=True)))
    assert len(out) == 30
    return out


def test_kept_disks_are_the_nonseparating_ones():
    # a disk is kept exactly when cutting along it leaves the one-tet
    # complement connected
    kept = dropped = 0
    for tri, fs in one_tet_complements():
        disks = filter_unknotting_disks(tri)
        assert disks == disks_by_analysis(tri, fs)
        for v in fs.vectors:
            if is_disk(analyze(tri, v)):
                regions = len(complement_regions(tri, v).regions)
                assert regions == (1 if v in disks else 2)
                kept += v in disks
                dropped += v not in disks
    assert (kept, dropped) == (12, 42)


def test_filter_disks_complement(tri10, fund10):
    # the one fundamental disk of the figure-eight knot complement has an
    # inessential boundary, so the disk algorithm alone says KNOTTED
    disks = [v for v in fund10.vectors if is_disk(analyze(tri10, v))]
    assert len(disks) == 1
    assert len(complement_regions(tri10, disks[0]).regions) == 2
    assert (filter_unknotting_disks(tri10)
            == disks_by_analysis(tri10, fund10) == [])


def test_solid_torus_is_the_expected_gluing():
    """An exhaustive scan over one-tet, one-gluing triangulations.

    The bundled solid torus is one of the records whose complex is
    valid (no edge class glued to itself reversed), connected along the
    boundary, and has a single vertex class; the scan pins down the
    frozen record as such a gluing and its fundamental list as frozen.
    """
    hits = []
    for name, fa, name2, img in one_tet_two_face_gluings():
        tri = Triangulation((name,), [(name, fa, name2, img)])
        if validate(tri):
            continue
        skel = compute_skeleton(tri)
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
    assert (filter_unknotting_disks(tri) == disks_by_analysis(tri, fs)
            == [SOLID_TORUS_MERIDIAN])
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
    assert cls((0, 3)).values == (2 * core.values[0],)
    assert cls((2, 3)).values == (3 * core.values[0],)
