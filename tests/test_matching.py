"""Matching systems: equation generation, vectors, sums, restriction."""

import itertools
import random

import pytest

from normsurf.errors import VectorError
from normsurf.fixtures import (disconnected_pair, fig8_closed,
                               fig8_complement, fig8_link, single_tet,
                               solid_torus)
from normsurf.matching import (BLOCK, all_triangles_vector,
                               boundary_arc_variables, build_matching_system,
                               edge_crossing_variables, haken_sum,
                               is_admissible, is_solution, tet_block,
                               variable_name, vertex_link_vector,
                               zero_vector)
from normsurf.matching import _arcs, _crossing, quad_offset

from oracles import _arc_count, _edge_w, boundary_curve
from tables import (PRINTED_EQUATIONS, PRINTED_ITEM7_CORRECTED,
                    RESTRICTED_FORCED_ZERO_NAMES, reference_solutions)


def test_system_shapes(tri10, tri12, sys12):
    sys10 = build_matching_system(tri10)
    assert sys10.variable_count == 70
    assert len(sys10.equations) == 57
    assert sys12.variable_count == 84
    assert len(sys12.equations) == 72
    # one quad triple per tetrahedron, at offsets 4..6
    assert sys12.quad_triples == tuple(
        (7 * t + 4, 7 * t + 5, 7 * t + 6) for t in range(12))
    assert sys10.forced_zeros == frozenset()


def _generated_by_gluing(tri, sys):
    """Group generated equations by their gluing, labelled as the
    listing labels it, sides as sets; each interior pair gives three
    equations in turn."""
    out = {}
    for n, ((i, face), (j, _), vmap) in enumerate(tri.interior_pairs()):
        image = tuple(vmap[x] for x in face)
        label = f"{tri.format_spot(i, face)} ~ {tri.format_spot(j, image)}"
        out[label] = {(frozenset(eq[:2]), frozenset(eq[2:]))
                      for eq in sys.equations[3 * n:3 * n + 3]}
    return out


def _printed_sides(tri, eqs):
    def side(tet, i, j):
        t = tri.index(tet)
        return frozenset({BLOCK * t + (i - 1), BLOCK * t + (j - 1)})

    return {(side(*lhs), side(*rhs)) for lhs, rhs in eqs}


def test_equations_match_reference_listing(tri12, sys12):
    """Every reference item except the misprinted one matches literally."""
    generated = _generated_by_gluing(tri12, sys12)
    for n, (label, eqs) in enumerate(PRINTED_EQUATIONS, 1):
        if n == 7:
            continue
        assert generated[label] == _printed_sides(tri12, eqs), f"item {n}"


def test_item7_misprint_is_real_and_corrected(tri12, sys12):
    """Item 7 as printed names the wrong tetrahedron on its left sides;
    with the row label corrected the generated equations match exactly.
    """
    generated = _generated_by_gluing(tri12, sys12)
    label, printed = PRINTED_EQUATIONS[6]
    clabel, corrected = PRINTED_ITEM7_CORRECTED
    assert label == clabel
    assert generated[label] != _printed_sides(tri12, printed)
    assert generated[label] == _printed_sides(tri12, corrected)


def test_generation_order_follows_listing(tri12, sys12):
    seen = list(_generated_by_gluing(tri12, sys12))
    want = [label for label, _ in PRINTED_EQUATIONS]
    assert seen[:21] == want[:21]
    assert set(seen[21:]) == set(want[21:])


def test_variable_names(tri12):
    assert variable_name(tri12, 0) == "p.t0"
    assert variable_name(tri12, 4) == "p.q01"
    assert variable_name(tri12, 7) == "p'.t0"
    assert variable_name(tri12, 83) == "h2.q03"


def test_tet_block(tri12):
    vecs = reference_solutions(tri12)
    c = tri12.index("c")
    assert tet_block(vecs[0], c) == (0, 0, 0, 0, 0, 2, 0)
    assert tet_block(vecs[2], tri12.index("h1")) == (1, 0, 0, 0, 0, 0, 0)


def test_reference_vectors_are_admissible_solutions(tri12, sys12):
    for v in reference_solutions(tri12):
        assert is_solution(sys12, v)
        assert is_admissible(v)
    assert not is_solution(sys12, (1,) + (0,) * 83)


def test_zero_and_all_triangles(tri10, tri12, sys12):
    assert zero_vector(sys12) == (0,) * 84
    ones = all_triangles_vector(tri12)
    assert is_solution(sys12, ones)
    assert all(tet_block(ones, t) == (1, 1, 1, 1, 0, 0, 0)
               for t in range(12))
    sys10 = build_matching_system(tri10)
    assert is_solution(sys10, all_triangles_vector(tri10))


def test_vertex_link_vectors_are_solutions(tri12, skel12, sys12):
    for vc in skel12.vertex_classes:
        v = vertex_link_vector(tri12, vc.index)
        assert is_solution(sys12, v)
        assert sum(v) == vc.degree
        assert is_admissible(v)


def test_haken_sum(tri12, sys12):
    v1, v2, v3 = reference_solutions(tri12)
    s = haken_sum(v1, v2)
    assert s == tuple(a + b for a, b in zip(v1, v2))
    assert is_solution(sys12, s)
    # incompatible quad choices conflict
    with pytest.raises(VectorError, match="quad"):
        haken_sum((0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0))


def test_is_admissible():
    assert is_admissible((0, 0, 0, 0, 3, 0, 0))
    assert not is_admissible((0, 0, 0, 0, 1, 1, 0))
    assert is_admissible(zero_vector(build_matching_system(single_tet())))


def test_is_admissible_refuses_partial_blocks():
    with pytest.raises(VectorError, match="not a multiple"):
        is_admissible((0,) * 8)


def test_haken_sum_refuses_inadmissible_vectors():
    """Two quad types in one tetrahedron make the sum inadmissible,
    also when the other summand adds no quad at all."""
    two_quads = (0, 0, 0, 0, 1, 1, 0)
    for other in ((0,) * 7, (0, 0, 0, 0, 1, 0, 0), two_quads):
        for a, b in ((two_quads, other), (other, two_quads)):
            with pytest.raises(VectorError, match="quad"):
                haken_sum(a, b)


def test_haken_sum_refuses_length_mismatch():
    with pytest.raises(VectorError, match="length mismatch"):
        haken_sum((0,) * 7, (0,) * 14)


def test_quad_offset():
    edges = ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
    assert [quad_offset(a, b) for a, b in edges] == [4, 5, 6, 4, 5, 6]
    assert [quad_offset(b, a) for a, b in edges] == [4, 5, 6, 4, 5, 6]
    for a, b in ((2, 2), (0, 4)):
        with pytest.raises(ValueError, match="not a tetrahedron edge"):
            quad_offset(a, b)


def test_incidences_match_oracle():
    """Summed over _crossing and _arcs, every admissible block with
    entries up to 2 gives the oracle's independently stated edge
    weights and face-corner arc counts. On every bundled triangulation,
    seeded vectors of such blocks, summed over edge_crossing_variables
    and boundary_arc_variables, give the oracle's weight of each edge
    class's least member and its boundary curve."""
    blocks = [tris + tuple(q if k == quad else 0 for k in (4, 5, 6))
              for tris in itertools.product(range(3), repeat=4)
              for quad, q in itertools.product((4, 5, 6), range(3))]
    for block in blocks:
        for a, b in itertools.combinations(range(4), 2):
            assert sum(block[k] for k in _crossing(a, b)) \
                == _edge_w(block, a, b)
        for x, d in itertools.permutations(range(4), 2):
            assert sum(block[k] for k in _arcs(x, d)) \
                == _arc_count(block, x, d)
    rng = random.Random(19)
    for tri in (single_tet(), solid_torus(), disconnected_pair(),
                fig8_complement(), fig8_closed()):
        crossing = edge_crossing_variables(tri)
        arcs = boundary_arc_variables(tri)
        least = [min(ec.members) for ec in tri.skeleton.edge_classes]
        for _ in range(40):
            v = sum((rng.choice(blocks) for _ in range(tri.size)), ())
            assert [sum(v[i] for i in c) for c in crossing] == [
                _edge_w(v[7 * t: 7 * t + 7], a, b) for t, (a, b) in least]
            assert tuple(sum(v[i] for i in arc) for arc in arcs) \
                == boundary_curve(tri, v)


def test_restriction_forces_expected_zeros(tri12, restricted12):
    names = {variable_name(tri12, i) for i in restricted12.forced_zeros}
    assert names == RESTRICTED_FORCED_ZERO_NAMES
    # restriction leaves the equations themselves untouched
    assert restricted12.equations == build_matching_system(tri12).equations


def test_restricted_solutions(tri12, restricted12):
    v1, v2, v3 = reference_solutions(tri12)
    for v in (v1, v2, v3):
        assert is_solution(restricted12, v)
    # the all-triangles vector hits forced zeros
    assert not is_solution(restricted12, all_triangles_vector(tri12))


def test_link_components_shape():
    link = fig8_link()
    assert len(link.components) == 2
