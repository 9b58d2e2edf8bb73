"""Fundamental-solution enumeration against independent brute force."""

import collections
import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

import normsurf
from normsurf import fixtures, hilbert
from normsurf.errors import IntegerOverflow, ResourceLimitExceeded
from normsurf.hilbert import (_Budget, _extreme_rays, _integer_kernel,
                              enumerate_fundamental)
from normsurf.homology import _smith, _sparse
from normsurf.matching import (BLOCK, MatchingSystem, is_admissible,
                               is_solution, restrict_to_link)
from normsurf.triangulation import LinkSpec

from exteriors import cone, layered_solid_torus
from oracles import (admissible_by_completion, bounded_solutions,
                     brute_force_solutions, canonical_coordinates,
                     cone_extreme_rays, decomposes_over, faces_reference,
                     filter_admissible, hilbert_by_subset_cover,
                     lift_reference, maximal_cliques_recursive,
                     minimal_nonzero, parallelepiped_reference,
                     random_quad_system, simplex_index, smith_reference)

from tables import reference_solutions


def plain_system(n, equations, forced=frozenset()):
    return MatchingSystem(
        variable_count=n, equations=tuple(equations),
        forced_zeros=frozenset(forced), quad_triples=())


def test_empty_system_basis_is_unit_vectors():
    fs = enumerate_fundamental(plain_system(4, []))
    assert fs.vectors == ((0, 0, 0, 1), (0, 0, 1, 0),
                          (0, 1, 0, 0), (1, 0, 0, 0))


def test_single_equation_basis():
    # x0 + x1 = x2 + x3 has the four obvious pairings and nothing else
    fs = enumerate_fundamental(plain_system(4, [(0, 1, 2, 3)]))
    assert fs.vectors == ((0, 1, 0, 1), (0, 1, 1, 0),
                          (1, 0, 0, 1), (1, 0, 1, 0))


def test_forced_zeros_collapse_one_side():
    # with x2 = x3 = 0 the equation reads x0 + x1 = 0: no nonzero solution
    fs = enumerate_fundamental(plain_system(4, [(0, 1, 2, 3)],
                                            forced={2, 3}))
    assert fs.vectors == ()


def test_two_term_equality_merges_variables():
    # with x1 = x3 = 0 the equation reads x0 = x2
    fs = enumerate_fundamental(plain_system(4, [(0, 1, 2, 3)],
                                            forced={1, 3}))
    assert fs.vectors == ((1, 0, 1, 0),)


def test_vectors_are_lex_sorted():
    a = enumerate_fundamental(plain_system(4, [(0, 1, 2, 3)]))
    assert a.vectors == tuple(sorted(a.vectors))


def test_candidate_cap_raises():
    sys = plain_system(
        12, [(i, (i + 1) % 12, (i + 2) % 12, (i + 3) % 12)
             for i in range(6)])
    with pytest.raises(ResourceLimitExceeded) as info:
        enumerate_fundamental(sys, max_candidates=3)
    assert info.value.candidates > 3
    assert info.value.elapsed >= 0.0


def test_time_budget_raises():
    sys = plain_system(
        12, [(i, (i + 1) % 12, (i + 2) % 12, (i + 3) % 12)
             for i in range(6)])
    with pytest.raises(ResourceLimitExceeded):
        enumerate_fundamental(sys, time_budget=0.0)


def test_nan_time_budget_is_refused():
    # every comparison with NaN is false, so a NaN deadline never passes
    sys = plain_system(4, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="NaN"):
        enumerate_fundamental(sys, time_budget=float("nan"))


def test_candidate_cap_must_be_positive():
    sys = plain_system(4, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="positive"):
        enumerate_fundamental(sys, max_candidates=0)


def test_random_systems_match_brute_force():
    """Quick version of the deep oracle run in the acceptance suite."""
    rng = random.Random(1)
    for _ in range(30):
        sys = random_quad_system(rng, max_vars=6)
        sols = bounded_solutions(sys, 4)
        if len(sols) > 1200:
            continue
        basis = enumerate_fundamental(sys).vectors
        assert {b for b in basis if max(b) <= 4} == minimal_nonzero(sols)


def test_package_brute_force_agrees_with_oracle():
    rng = random.Random(7)
    for _ in range(20):
        sys = random_quad_system(rng, max_vars=5)
        oracle_set = bounded_solutions(sys, 3)
        if len(oracle_set) > 800:
            continue
        assert brute_force_solutions(sys, 3) == oracle_set


def test_every_bounded_solution_decomposes():
    rng = random.Random(3)
    checked = 0
    while checked < 10:
        sys = random_quad_system(rng, max_vars=5)
        sols = bounded_solutions(sys, 3)
        if not 1 < len(sols) <= 400:
            continue
        basis = enumerate_fundamental(sys).vectors
        for s in sols:
            assert decomposes_over(s, basis), (sys, s)
        checked += 1


def test_admissible_only_equals_filtered_full_basis():
    rng = random.Random(11)
    for _ in range(15):
        n_blocks = rng.randint(1, 2)
        n = 7 * n_blocks
        eqs = []
        for _ in range(rng.randint(2, 6)):
            eqs.append(tuple(rng.randrange(n) for _ in range(4)))
        sys = MatchingSystem(
            variable_count=n, equations=tuple(eqs),
            forced_zeros=frozenset(),
            quad_triples=tuple((7 * t + 4, 7 * t + 5, 7 * t + 6)
                               for t in range(n_blocks)))
        full = enumerate_fundamental(sys)
        only = enumerate_fundamental(sys, admissible_only=True)
        assert only.vectors == filter_admissible(full).vectors
        assert all(is_admissible(v) for v in only.vectors)


def fixture_systems():
    """The bundled matching systems, by name, with quad triples."""
    tri12, link = fixtures.fig8_closed(), fixtures.fig8_link()
    knot_and_longitude = LinkSpec(components=(
        link.components[0], fixtures.fig8_longitude_cycle()))
    pair = fixtures.disconnected_pair()
    return {
        "10-tet": fixtures.fig8_complement().matching_system,
        "12-tet": tri12.matching_system,
        "12-tet off the link":
            restrict_to_link(tri12.matching_system, tri12, link),
        "12-tet off knot and longitude":
            restrict_to_link(tri12.matching_system, tri12,
                             knot_and_longitude),
        "pair off the link": restrict_to_link(
            pair.matching_system, pair, fixtures.disconnected_link()),
        "solid torus": fixtures.solid_torus().matching_system,
        "single tet": fixtures.single_tet().matching_system,
    }


@pytest.mark.parametrize("name", sorted(fixture_systems()))
def test_vertex_solutions_are_fundamental(name, monkeypatch):
    # block pruning may keep group-respecting rays that are not extreme,
    # whose vectors need not be fundamental; on the fixtures it keeps none
    sys = fixture_systems()[name]
    face_bases = []
    face_basis = hilbert._face_basis

    def counted(*args):
        face_bases.append(args)
        return face_basis(*args)

    monkeypatch.setattr(hilbert, "_face_basis", counted)
    budget = _Budget(hilbert.DEFAULT_MAX_CANDIDATES, None)
    stages = hilbert._admissible_stages(sys, budget)
    vertices = next(stages)
    stages.close()
    assert face_bases == []
    fs = enumerate_fundamental(sys, admissible_only=True)
    assert vertices and set(vertices) <= set(fs.vectors)
    assert budget.examined < fs.candidates_examined
    # each stage is yielded sorted and distinct, the last is the basis
    both = list(hilbert._admissible_stages(
        sys, _Budget(hilbert.DEFAULT_MAX_CANDIDATES, None)))
    assert both == [vertices, list(fs.vectors)]
    assert all(stage == sorted(set(stage)) for stage in both)
    assert face_bases


@pytest.mark.parametrize("name", sorted(fixture_systems()))
def test_admissible_basis_matches_the_completion_search(name):
    sys = fixture_systems()[name]
    assert sys.quad_triples
    assert enumerate_fundamental(sys, admissible_only=True).vectors == \
        admissible_by_completion(sys)


def with_quad_triples(rng, sys):
    """sys with random disjoint quad triples over its variables."""
    spots = list(range(sys.variable_count))
    rng.shuffle(spots)
    return replace(sys, quad_triples=tuple(
        tuple(sorted(spots[3 * t:3 * t + 3]))
        for t in range(rng.randint(1, sys.variable_count // 3))))


def doubled_system(rng):
    """A random system with quad triples and equations 2 x_i = x_j + x_k,
    whose cones have simplices of index 2 and more: the solutions x_i =
    1, x_j = x_k = 1 of one such equation lie halfway between its rays
    (1, 2, 0) and (1, 0, 2)."""
    n = rng.randint(4, 9)
    eqs = [tuple(rng.randrange(n) for _ in range(4))
           for _ in range(rng.randint(0, 2))]
    eqs += [(i, i, j, k) for i, j, k in
            (rng.sample(range(n), 3) for _ in range(rng.randint(1, 3)))]
    return with_quad_triples(rng, plain_system(n, eqs))


def count_indexed_simplices(monkeypatch):
    """A list that grows by one for every simplex of index > 1 built."""
    found = []
    parallelepiped = hilbert._parallelepiped

    def recording(*args):
        points = parallelepiped(*args)
        if points:
            found.append(len(points))
        return points

    monkeypatch.setattr(hilbert, "_parallelepiped", recording)
    return found


def seeded_quad_systems():
    """150 random systems with random quad triples, then 150 doubled
    ones, from one seeded generator."""
    rng = random.Random(13)
    plain = [with_quad_triples(rng, random_quad_system(rng, max_vars=9))
             for _ in range(150)]
    return plain + [doubled_system(rng) for _ in range(150)]


def test_admissible_basis_is_the_admissible_part_of_the_full_one(
        monkeypatch):
    # admissible under sys.quad_triples, not filter_admissible's fixed
    # 7-slot blocks
    found = count_indexed_simplices(monkeypatch)
    indexed = 0
    for sys in seeded_quad_systems():
        before = len(found)
        only = enumerate_fundamental(sys, admissible_only=True).vectors
        indexed += len(found) > before
        full = enumerate_fundamental(sys).vectors
        assert only == tuple(v for v in full if all(
            sum(1 for q in triple if v[q]) <= 1
            for triple in sys.quad_triples)), sys
    assert indexed >= 20


def test_triangulated_faces_match_the_subset_cover(monkeypatch):
    # the cover is taken over the whole cone, the enumeration goes one
    # interaction component at a time
    found = count_indexed_simplices(monkeypatch)
    rng = random.Random(19)
    indexed = 0
    for _ in range(150):
        sys = doubled_system(rng)
        before = len(found)
        only = enumerate_fundamental(sys, admissible_only=True).vectors
        indexed += len(found) > before
        budget = _Budget(10 ** 9, None)
        _, normals, patterns = hilbert._admissible_rays(sys, budget)
        cover = set()
        for face in hilbert._faces(patterns, sys.quad_triples, budget):
            cover |= hilbert_by_subset_cover(
                [v for r, v in enumerate(normals) if face >> r & 1])
        assert set(only) == cover, sys
    assert indexed >= 22


def test_ten_tet_face_stage_is_pinned(tri10, monkeypatch):
    # the faces, and the distinct simplices their triangulations build,
    # each one's index taken from the reference Smith form
    faces, simplices = [], []
    found_faces, parallelepiped = hilbert._faces, hilbert._parallelepiped

    def recording_faces(*args):
        out = found_faces(*args)
        faces.extend(out)
        return out

    def recording(kernel_rays, *args):
        simplices.append(tuple(tuple(int(x) for x in ray)
                               for ray in kernel_rays))
        return parallelepiped(kernel_rays, *args)

    monkeypatch.setattr(hilbert, "_faces", recording_faces)
    monkeypatch.setattr(hilbert, "_parallelepiped", recording)
    enumerate_fundamental(tri10.matching_system, admissible_only=True)
    indices = [simplex_index(rays) for rays in set(simplices)]
    assert len(faces) == 108
    assert len(simplices) == len(indices) == 186
    assert indices.count(1) == 166
    assert sum(indices) == 208


@pytest.fixture(scope="module")
def simplex_calls():
    """The arguments of every _parallelepiped call, budget aside, in the
    enumerations of the 10-tet, the 12-tet and the pair off their links
    and the solid torus, then of seeded_quad_systems: each simplex's
    kernel rays, normal rows and masks."""
    tri12, pair = fixtures.fig8_closed(), fixtures.disconnected_pair()
    systems = [
        fixtures.fig8_complement().matching_system,
        restrict_to_link(tri12.matching_system, tri12, fixtures.fig8_link()),
        restrict_to_link(pair.matching_system, pair,
                         fixtures.disconnected_link()),
        fixtures.solid_torus().matching_system,
    ] + seeded_quad_systems()
    seen = []
    parallelepiped = hilbert._parallelepiped

    def recording(*args):
        seen.append(args[:-1])
        return parallelepiped(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_parallelepiped", recording)
        for system in systems:
            enumerate_fundamental(system, admissible_only=True)
    return seen


def test_parallelepipeds_match_the_reference(simplex_calls):
    # peeling (_unimodular) settles a simplex only when its index is 1;
    # every other one takes the Smith form, and each simplex's points are
    # those the reference Smith form gives, in exact fractions
    settled = collections.Counter()
    for rays, normals, masks in simplex_calls:
        index = simplex_index(rays)
        peeled = hilbert._unimodular(masks)
        assert index == 1 or not peeled
        settled[index > 1, peeled] += 1
        points = hilbert._parallelepiped(rays, normals, masks,
                                         _Budget(10 ** 9, None))
        assert len(points) == index - 1
        assert set(points) == parallelepiped_reference(rays, normals.tolist())
    assert settled == {(False, True): 652, (False, False): 9,
                       (True, False): 43}


def test_simplex_smith_forms_match_the_reference(simplex_calls):
    # the simplices that skip _smith keep checking it against the
    # reference, with U appended as _parallelepiped appends it
    matrices = {tuple(map(tuple, rays)) for rays, *_ in simplex_calls}
    assert len(matrices) == 400
    for rays in matrices:
        k, d = len(rays), len(rays[0])
        rows = [_sparse(ray) | {d + i: 1} for i, ray in enumerate(rays)]
        _smith(rows, k, d)
        S, U, _, _ = smith_reference(rays, k, d)
        assert [[row.get(j, 0) for j in range(d)] for row in rows] == S
        assert [[row.get(d + i, 0) for i in range(k)] for row in rows] == U


def test_parallelepiped_points_past_int64(simplex_calls, monkeypatch):
    # the points of every simplex of index > 1 once more: with the int64
    # range forced to nothing, and with the normals scaled past it, or
    # each product past it, which must not wrap
    indexed = [call for call in simplex_calls
               if not hilbert._unimodular(call[2])]
    budget = _Budget(10 ** 9, None)
    expected = [set(hilbert._parallelepiped(*call, budget))
                for call in indexed]
    for rays, normals, masks in indexed:
        for scale in (2 ** 62 // int(normals.max()), 2 ** 64):
            assert set(hilbert._parallelepiped(
                rays, normals * scale, masks, budget)) == {
                tuple(scale * x for x in p)
                for p in parallelepiped_reference(rays, normals.tolist())}
    monkeypatch.setattr(hilbert, "_INT64_MAX", 0)
    assert [set(hilbert._parallelepiped(*call, budget))
            for call in indexed] == expected


def test_blocked_faces_match_the_pairwise_loop(monkeypatch):
    # more than 64 quads and more than 64 patterns, so that the bitsets
    # span several words, and so do the neighbour masks; a small _CHUNK
    # splits the patterns into many blocks. Each pattern is part of one
    # of a few admissible choices of a quad in every block, so that the
    # coherent families are few but not trivial
    found = []
    cliques = hilbert._maximal_cliques

    def recording(neighbors, budget):
        found.append(list(neighbors))
        return cliques(neighbors, budget)

    monkeypatch.setattr(hilbert, "_maximal_cliques", recording)
    rng = random.Random(39)
    for chunk in (hilbert._CHUNK, 500):
        monkeypatch.setattr(hilbert, "_CHUNK", chunk)
        for _ in range(5):
            triples = [(BLOCK * b + 4, BLOCK * b + 5, BLOCK * b + 6)
                       for b in range(rng.randint(22, 30))]
            choices = [[rng.choice(t) for t in triples]
                       for _ in range(rng.randint(2, 4))]
            density = rng.uniform(0.3, 0.7)
            patterns = [frozenset(q for q in rng.choice(choices)
                                  if rng.random() < density)
                        for _ in range(rng.randint(80, 160))]
            assert len(set(patterns)) > 64
            neighbors, faces = faces_reference(patterns, triples)
            assert hilbert._faces(patterns, triples,
                                  _Budget(1, None)) == faces
            assert found.pop() == neighbors


def test_restricted_fixture_has_exactly_the_three_reference_solutions(
        tri12, fund_restricted):
    assert set(fund_restricted.vectors) == set(reference_solutions(tri12))
    assert len(fund_restricted.vectors) == 3


def test_integer_kernel_matches_sympy():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        kernel = _integer_kernel(
            [{j: x for j, x in enumerate(row) if x} for row in A], n)
        assert len(kernel) == len(sympy.Matrix(A).nullspace())
        if not kernel:
            continue
        K = sympy.Matrix([list(col) for col in kernel]).T
        assert sympy.Matrix(A) * K == sympy.zeros(m, len(kernel))
        # the columns span every integer kernel vector, not a sublattice
        snf = smith_normal_form(K)
        assert [abs(snf[i, i]) for i in range(len(kernel))] == \
            [1] * len(kernel)


def test_long_substitution_chain_expands():
    # x_i = x_{i+1} + y_i with z = 0 substitutes x_0, x_1, ... in a chain
    # 1,500 deep, deeper than Python's default recursion limit
    n = 1500
    z = 2 * n + 1
    sys = plain_system(2 * n + 2,
                       [(i + 1, n + 1 + i, i, z) for i in range(n)],
                       forced={z})
    fs = enumerate_fundamental(sys)
    # one basis vector per free variable y_k (then x_0..x_k = 1) and x_n
    expected = set()
    for k in range(n + 1):
        v = [0] * (2 * n + 2)
        v[:k + 1] = [1] * (k + 1)
        if k < n:
            v[n + 1 + k] = 1
        expected.add(tuple(v))
    assert set(fs.vectors) == expected
    assert all(is_solution(sys, v) for v in fs.vectors)


def test_chain_expansion_holds_the_output_about_twice():
    # the chain above: 1,501 vectors of 3,002 Python ints. The basis of
    # each component is written straight into the expansion matrix, so
    # the peak is that matrix plus the tuples returned
    n = 1500
    z = 2 * n + 1
    sys = plain_system(2 * n + 2,
                       [(i + 1, n + 1 + i, i, z) for i in range(n)],
                       forced={z})
    tracemalloc.start()
    try:
        fs = enumerate_fundamental(sys)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fs.vectors) == n + 1
    assert peak < 2.4 * held


def reduction_record(red):
    """A reduction's column count, its equations in order with terms
    sorted and later twins (copies or negations) dropped, and the
    expansion of each unit column."""
    seen, equations = set(), []
    for eq in red.equations:
        terms = sorted(eq.items())
        sign = 1 if terms[0][1] > 0 else -1
        canonical = tuple((v, sign * c) for v, c in terms)
        if canonical not in seen:
            seen.add(canonical)
            equations.append(terms)
    units = red.expand([(range(len(red.columns)),
                         np.eye(len(red.columns), dtype=np.int64))])
    return [len(red.columns), equations, units]


# sha256 of json.dumps of the records of the 109 reductions built by the
# completion-search oracle on the 10-tet (admissible) and by the restricted
# 12-tet full enumeration; recorded with the reduction that replayed full
# passes and dropped twins, when both ran inside the library
REDUCTIONS_SHA256 = \
    "e956a25b9ead5a97a14593c31e4ec08481412f0833b098c3b902f3f721fa1b05"


def test_reductions_are_pinned(tri10, restricted12, monkeypatch):
    records = []

    class Recording(hilbert._Reduction):
        def __init__(self, *args):
            super().__init__(*args)
            records.append(reduction_record(self))

    monkeypatch.setattr(hilbert, "_Reduction", Recording)
    admissible_by_completion(tri10.matching_system)
    enumerate_fundamental(restricted12)
    assert len(records) == 109
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == \
        REDUCTIONS_SHA256


def test_twin_equations_change_nothing(restricted12):
    cyclic = plain_system(
        12, [(i, (i + 1) % 12, (i + 2) % 12, (i + 3) % 12)
             for i in range(6)])
    for sys in (cyclic, restricted12):
        twice = [eq for eq in sys.equations for _ in range(2)]
        negated = [twin for i, j, k, l in sys.equations
                   for twin in ((i, j, k, l), (k, l, i, j))]
        runs = []
        for equations in (sys.equations, twice, negated):
            fs = enumerate_fundamental(
                replace(sys, equations=tuple(equations)))
            runs.append((fs.vectors, fs.candidates_examined))
        assert runs[0] == runs[1] == runs[2]


# (candidates_examined, number of vectors). The full rows were recorded
# with the completion search that had a separate dominance test per use;
# the admissible rows count the extreme-ray steps, each face's rays and
# each simplex's index
PINNED_WORK = {
    "10-tet admissible": (16_024, 110),
    "restricted 12-tet full": (11_468, 54),
    "restricted pair admissible": (13_630, 54),
    "solid torus full": (18, 5),
    "solid torus admissible": (15, 4),
    "square surface": (14, 6),
}


def test_total_work_is_pinned(fund10, restricted12, disc_tri, disc_link):
    pair = restrict_to_link(disc_tri.matching_system, disc_tri, disc_link)
    torus = fixtures.solid_torus().matching_system
    runs = {
        "10-tet admissible": fund10,
        "restricted 12-tet full": enumerate_fundamental(restricted12),
        "restricted pair admissible":
            enumerate_fundamental(pair, admissible_only=True),
        "solid torus full": enumerate_fundamental(torus),
        "solid torus admissible":
            enumerate_fundamental(torus, admissible_only=True),
        "square surface":
            enumerate_fundamental(fixtures.square_surface().matching_system),
    }
    assert {name: (fs.candidates_examined, len(fs.vectors))
            for name, fs in runs.items()} == PINNED_WORK


def direct_sum(*systems):
    """The systems side by side, each one's variables numbered after
    those of the systems before it."""
    at, equations, zeros, triples = 0, [], set(), []
    for sys in systems:
        equations += [tuple(at + i for i in eq) for eq in sys.equations]
        zeros |= {at + i for i in sys.forced_zeros}
        triples += [tuple(at + q for q in t) for t in sys.quad_triples]
        at += sys.variable_count
    return MatchingSystem(variable_count=at, equations=tuple(equations),
                          forced_zeros=frozenset(zeros),
                          quad_triples=tuple(triples))


def padded_union(systems, sets):
    """The vectors of each system's FundamentalSet, zero-padded to their
    place in direct_sum(*systems), sorted."""
    widths = [sys.variable_count for sys in systems]
    return tuple(sorted(
        (0,) * sum(widths[:k]) + v + (0,) * sum(widths[k + 1:])
        for k, fs in enumerate(sets) for v in fs.vectors))


def test_direct_sum_of_two_ten_tets_costs_twice_one(tri10, fund10):
    # whole, the sum's cone is a product of two 10-tet cones, and the
    # enumeration passes this cap at 32,332 candidates
    work = PINNED_WORK["10-tet admissible"][0]
    system = tri10.matching_system
    fs = enumerate_fundamental(direct_sum(system, system),
                               admissible_only=True,
                               max_candidates=32_048)
    assert len(fs.vectors) == 220
    assert fs.vectors == padded_union([system] * 2, [fund10] * 2)
    assert fs.candidates_examined == 2 * work == 32_048


def test_direct_sum_with_the_solid_torus_adds_its_work(tri10, fund10,
                                                       torus_tri, fund_torus):
    systems = [tri10.matching_system, torus_tri.matching_system]
    fs = enumerate_fundamental(direct_sum(*systems), admissible_only=True)
    assert fs.vectors == padded_union(systems, [fund10, fund_torus])
    assert (len(fs.vectors), fs.candidates_examined) == \
        (114, 16_039) == (110 + 4, 16_024 + 15)


def test_direct_sum_basis_and_work_are_those_of_the_summands():
    rng = random.Random(29)
    for _ in range(40):
        summands = [
            with_quad_triples(rng, random_quad_system(rng, max_vars=9))
            if rng.random() < 0.5 else doubled_system(rng)
            for _ in range(rng.randint(2, 3))]
        for admissible_only in (True, False):
            alone = [enumerate_fundamental(sys,
                                           admissible_only=admissible_only)
                     for sys in summands]
            fs = enumerate_fundamental(direct_sum(*summands),
                                       admissible_only=admissible_only)
            assert fs.vectors == padded_union(summands, alone), summands
            assert fs.candidates_examined == sum(
                part.candidates_examined for part in alone), summands


def pairwise_minimal(rows):
    """Coordinatewise-minimal nonzero rows, sorted, by comparing every
    pair of distinct rows."""
    rows = {tuple(r) for r in rows if any(r)}
    return sorted(r for r in rows if not any(
        o != r and all(a <= b for a, b in zip(o, r)) for o in rows))


@pytest.mark.parametrize("chunk", [hilbert._CHUNK, 8])
def test_dominance_kernel_matches_pairwise_comparison(chunk, monkeypatch):
    # a chunk of 8 elements (8 bytes, for packed words) splits every
    # block of rows
    monkeypatch.setattr(hilbert, "_CHUNK", chunk)
    rng = random.Random(5)

    def small(width):
        # entries 0..3 so that duplicate and zero rows occur
        return [[rng.randint(0, 3) for _ in range(width)]
                for _ in range(rng.randint(0, 40))]

    def augment(rows):
        # value-augmented rows [v, -v, row], as _lift_equation builds
        return [[v, -v] + row for row in rows for v in [rng.randint(-4, 4)]]

    def near(rows):
        # random rows lowered here and there, now and then raised, so
        # that wide rows still dominate some anchors
        return [[x - (rng.random() < 0.3) + (rng.random() < 0.01)
                 for x in rng.choice(rows)] for _ in rows]

    def inputs():
        for _ in range(60):
            width = rng.randint(1, 5)
            yield width, small(width), small(width)
            yield width + 2, augment(small(width)), augment(small(width))
        for _ in range(10):
            # 30-40 columns span several words
            width = rng.randint(30, 40)
            rows = small(width)
            yield width, rows, near(rows)
            rows = augment(small(width - 2))
            yield width, rows, near(rows)
        for _ in range(20):
            width = rng.randint(1, 5)
            # entries 0..3 mapped in order onto values whose ends both
            # occur: a range of 2**62 - 1 packs one column to a word,
            # and ones of 2**63 - 1 and 2**64 - 1 are compared column by
            # column
            for values in ([-2 ** 61, -1, 0, 2 ** 61 - 1],
                           [-2 ** 62, -5, 7, 2 ** 62 - 1],
                           [-2 ** 63, -5, 7, 2 ** 63 - 1]):
                yield width, *([[values[x] for x in row] for row in
                                small(width) + [[0] * width, [3] * width]]
                               for _ in range(2))

    for width, rows, anchors in inputs():
        arr = np.array(rows, dtype=np.int64).reshape(-1, width)
        assert hilbert._minimal_rows(arr, _Budget(1, None)).tolist() == \
            [list(r) for r in pairwise_minimal(rows)]
        counts = hilbert._dominated(
            arr, np.array(anchors, dtype=np.int64).reshape(-1, width),
            _Budget(1, None))
        assert counts.tolist() == [
            sum(all(a >= b for a, b in zip(r, o)) for o in anchors)
            for r in rows]


def test_minimal_rows_span_several_anchor_blocks():
    # 24 columns of values below 40 pack 9 or 10 to a word, three words
    # to a row, so an anchor block holds _CHUNK // 24 = 1,365 rows: the
    # triangular self-test slices anchors in more than one block
    rng = np.random.default_rng(11)
    base = rng.integers(0, 20, size=(900, 24))
    above = base[rng.integers(0, 900, size=1_100)] + \
        (rng.random((1_100, 24)) < 0.1) * rng.integers(0, 20, size=(1_100, 24))
    rows = np.vstack([above, base, base[:50], np.zeros((3, 24), np.int64)])
    rng.shuffle(rows)
    distinct = np.unique(rows[rows.any(1)], axis=0)
    assert len(distinct) >= 1_500
    assert len(hilbert._layout(int(rows.max()).bit_length(), 24)[0]) == 3
    assert len(distinct) > hilbert._CHUNK // (8 * 3)
    counts = np.concatenate([
        (distinct[lo:lo + 64, None] >= distinct[None]).all(2).sum(1)
        for lo in range(0, len(distinct), 64)])
    expected = distinct[counts == 1]
    assert 0 < len(expected) < len(distinct)
    assert hilbert._minimal_rows(rows, _Budget(1, None)).tolist() == \
        expected.tolist()


def test_dominance_with_an_empty_side_needs_no_time():
    budget = _Budget(1, None)
    budget.deadline = time.monotonic() - 1
    some = np.arange(12, dtype=np.int64).reshape(3, 4)
    none = some[:0]
    for rows, anchors in ((some, none), (none, some), (none, none)):
        counts = hilbert._dominated(rows, anchors, budget)
        assert counts.tolist() == [0] * len(rows)
    assert hilbert._minimal_rows(np.zeros((2, 4), np.int64),
                                 budget).shape == (0, 4)
    with pytest.raises(ResourceLimitExceeded, match="time budget"):
        hilbert._dominated(some, some, budget)


def test_cached_packing_layout_is_read_only():
    rows = np.arange(20, dtype=np.int64).reshape(4, 5)
    expected = hilbert._dominated(rows, rows[::-1], _Budget(1, None))
    key = int(rows.max()).bit_length(), 5
    place = hilbert._layout(*key)[0]
    assert hilbert._layout(*key)[0] is place
    with pytest.raises(ValueError, match="read-only"):
        place[0, 0] = 0
    assert hilbert._dominated(rows, rows[::-1], _Budget(1, None)).tolist() \
        == expected.tolist() == [1, 2, 3, 4]


def test_lift_without_both_signs_keeps_the_zero_rows():
    H = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
                 dtype=np.int64)
    budget = _Budget(10, None)
    for vals in ([0, 0, 0, 0], [1, 0, 2, 0], [0, -1, 0, -3]):
        vals = np.array(vals, dtype=np.int64)
        assert hilbert._lift_equation(H, vals, budget).tolist() == \
            H[vals == 0].tolist()
    assert budget.examined == 0


def random_lift(rng):
    """Random nonnegative nonzero generators and their values."""
    width = rng.randint(1, 5)
    H = [[rng.randint(0, 3) for _ in range(width)]
         for _ in range(rng.randint(2, 12))]
    H = [row for row in H if any(row)] or [[1] * width]
    return H, [rng.randint(-4, 4) for _ in H]


@pytest.mark.parametrize("chunk", [hilbert._CHUNK, 8])
def test_lift_matches_the_reference(chunk, monkeypatch):
    monkeypatch.setattr(hilbert, "_CHUNK", chunk)
    rng = random.Random(29)
    for _ in range(200):
        H, vals = random_lift(rng)
        budget = _Budget(10 ** 9, None)
        rows = hilbert._lift_equation(np.array(H, dtype=np.int64),
                                      np.array(vals, dtype=np.int64), budget)
        expected, built = lift_reference(H, vals)
        assert rows.tolist() == [list(r) for r in expected], (H, vals)
        assert budget.examined == built, (H, vals)


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs, and what it returned or
    raised."""
    tracemalloc.start()
    try:
        try:
            out = fn(*args)
        except ResourceLimitExceeded as exc:
            out = exc
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_lift_charges_a_step_before_building_it():
    # 300 generators of each sign with distinct values: all are fresh,
    # so the first step would build 2 * 300 * 300 sums of width 4 + 2
    rng = np.random.default_rng(3)
    H = rng.integers(1, 4, size=(600, 4))
    vals = np.concatenate([np.arange(1, 301), -np.arange(1, 301)])
    step_bytes = 2 * 300 * 300 * 6 * 8
    peak, out = traced_peak(hilbert._lift_equation, H, vals,
                            _Budget(1_000, None))
    assert isinstance(out, ResourceLimitExceeded)
    assert out.candidates == 2 * 300 * 300
    assert peak < step_bytes / 10


def test_values_past_int64_raise_instead_of_wrapping():
    def system(c):
        # x0 = x1 and 2 x0 = x2 + x3, the second scaled by c: the first
        # lift's generator e0 + e1 has value 2c on the second equation
        return np.array([[1, -1, 0, 0], [c, c, -c, -c]], dtype=np.int64)

    budget = _Budget(10 ** 6, None)
    assert hilbert._hilbert_sequential(system(2 ** 60), budget).tolist() \
        == [[1, 1, 0, 2], [1, 1, 1, 1], [1, 1, 2, 0]]
    # 2 * 2**62 wraps to -2**63, which once left no positive value and
    # so an empty basis
    with pytest.raises(IntegerOverflow, match="int64"):
        hilbert._hilbert_sequential(system(2 ** 62), budget)
    # a partial sum whose coordinate would wrap to -2**63
    with pytest.raises(IntegerOverflow, match="int64"):
        hilbert._lift_equation(np.array([[2 ** 62], [2 ** 62]]),
                               np.array([1, -1]), budget)


def test_dominance_blocks_the_anchor_axis():
    rng = np.random.default_rng(5)
    anchors = rng.integers(0, 4, size=(200_000, 8))
    rows = rng.integers(0, 4, size=(3, 8))
    expected = [int((row >= anchors).all(1).sum()) for row in rows]
    # one row against every anchor at once is 1.6 MB of booleans
    peak, counts = traced_peak(hilbert._dominated, rows, anchors,
                               _Budget(1, None))
    assert counts.tolist() == expected
    assert peak < 200_000


# A subsystem of the 10-tet complement relabelled by bench/gen.py's
# random_relabelling(names, random.Random(1)), the one slow component when
# admissible enumeration ran the completion search on each subcone: a
# 16-column system whose greedy lift order charges 5,184 and then 22,536
# candidates to grow 203 generators into 2,140, after which the next lift
# charges 1,328,400
HARD_SUBCONE = [
    [0, 1, 0, 0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0],
    [0, 0, -1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2],
    [0, -1, 1, 0, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0],
    [0, 0, 0, -1, 0, 0, 1, 0, 0, 1, 0, -1, -1, 0, 0, 0],
    [0, 0, -1, 0, 0, 1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, -1, 0, -1],
    [0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 1, 0, 0, -1, 0, -1],
    [0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 1],
    [0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0],
    [0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, -1],
    [0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, -1, 0, 1],
    [0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, -1, 0],
    [-1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
    [0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, -1, -1, 0, 1, 1],
    [0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0],
]


def test_deadline_is_checked_between_charges():
    # the deadline passes as soon as the 22,536-candidate step is
    # charged; the dominance tests of that step, well over a tenth of a
    # second, must notice it before the 1,328,400-candidate charge
    class Expiring(_Budget):
        def charge(self, count):
            super().charge(count)
            if self.examined >= 28_403 and self.deadline is None:
                self.deadline = time.monotonic()

    budget = Expiring(10 ** 9, None)
    with pytest.raises(ResourceLimitExceeded) as raised:
        hilbert._hilbert_sequential(np.array(HARD_SUBCONE), budget)
    assert raised.value.candidates == 28_403
    assert time.monotonic() - budget.deadline < 0.5


def test_adjacent_pairs_keep_their_order_in_small_blocks(monkeypatch):
    # a one-element chunk splits every axis of every pair test
    rng = random.Random(31)
    cones = [random_cone(rng)[0] for _ in range(40)]
    runs = []
    for chunk in (hilbert._CHUNK, 1):
        monkeypatch.setattr(hilbert, "_CHUNK", chunk)
        budget = _Budget(10 ** 9, None)
        runs.append(([_extreme_rays(ineq, budget) for ineq in cones],
                     budget.examined))
    assert runs[0] == runs[1]


def random_cone(rng):
    """A random integer matrix of full column rank, d <= 5, <= 9 rows."""
    while True:
        d = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(d, 9))]
        try:
            return rows, cone_extreme_rays(rows)
        except ValueError:
            continue


def assert_rays_of_cone(ineq, rays):
    assert len(set(rays)) == len(rays)
    for z in rays:
        assert any(z) and math.gcd(*z) == 1
        assert all(sum(a * b for a, b in zip(row, z)) >= 0 for row in ineq)


def test_extreme_rays_match_the_oracle():
    rng = random.Random(17)
    for _ in range(80):
        ineq, oracle = random_cone(rng)
        rays = _extreme_rays(ineq, _Budget(10 ** 9, None))
        assert_rays_of_cone(ineq, rays)
        assert set(rays) == oracle, ineq


def random_groups(rng, rows):
    """rows, shuffled and cut into groups of two or three."""
    rows = list(rows)
    rng.shuffle(rows)
    groups = []
    while len(rows) >= 2:
        size = rng.randint(2, min(3, len(rows)))
        groups.append(tuple(sorted(rows[:size])))
        rows = rows[size:]
    return groups


def assert_grouped_rays(ineq, groups, oracle):
    """_extreme_rays with groups returns rays of the cone that respect
    the groups, among them every extreme ray that does."""
    def respects(z):
        return all(
            sum(sum(a * b for a, b in zip(ineq[r], z)) > 0
                for r in group) <= 1
            for group in groups)

    rays = _extreme_rays(ineq, _Budget(10 ** 9, None), groups)
    assert_rays_of_cone(ineq, rays)
    assert all(respects(z) for z in rays), (ineq, groups)
    assert {z for z in oracle if respects(z)} <= set(rays), (ineq, groups)


def test_extreme_rays_with_groups_keep_every_respecting_ray():
    rng = random.Random(23)
    for _ in range(80):
        ineq, oracle = random_cone(rng)
        assert_grouped_rays(ineq, random_groups(rng, range(len(ineq))),
                            oracle)


def test_extreme_rays_from_a_base_of_grouped_rows():
    # the first d rows by index are ungrouped and independent, and the
    # grouped rows follow them, so the base, drawn grouped rows first,
    # holds grouped rows where a base drawn by index would hold none.
    # Every row is positive on (0, ..., 0, 1), which is thus inside the
    # cone.
    rng = random.Random(31)
    cones = 0
    while cones < 60:
        d = rng.randint(2, 4)
        free = rng.randint(d, d + 2)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d - 1))
                + (rng.randint(1, 3),)
                for _ in range(free + rng.randint(2, 6))]
        if len(hilbert._independent(rows[:d])) < d:
            continue
        oracle = cone_extreme_rays(rows)
        assert_grouped_rays(rows, random_groups(rng, range(free, len(rows))),
                            oracle)
        cones += 1


@pytest.mark.parametrize("width", [1, 2, 3])
def test_bitset_kernels_match_python_ints(width):
    rng = random.Random(width)
    masks = [rng.getrandbits(64 * width) & rng.getrandbits(64 * width)
             for _ in range(30)] + [0, (1 << 64 * width) - 1]
    bits = hilbert._bitsets(masks, width)
    assert hilbert._popcount(bits).tolist() == \
        [bin(m).count("1") for m in masks]
    assert hilbert._disjoint(bits[:, None], bits[None]).tolist() == \
        [[a & b == 0 for b in masks] for a in masks]


def test_extreme_rays_on_multiword_bitsets_match_the_oracle():
    # 65 to 150 rows, so tight sets span two or three uint64 words; every
    # row is positive on (0, 0, 1), which is thus inside the cone
    rng = random.Random(41)
    for _ in range(4):
        ineq = [(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(65, 150))]
        rays = _extreme_rays(ineq, _Budget(10 ** 9, None))
        assert_rays_of_cone(ineq, rays)
        assert set(rays) == cone_extreme_rays(ineq), ineq


# sha256 of json.dumps of the ordered ray list that _extreme_rays returns
# on the 10-tet admissible enumeration, and the candidates it charges
TEN_TET_RAYS_SHA256 = \
    "42689aabca37bdeba2aef52ddf2fc25cac46575981756e00fdf8dbd65352c224"
TEN_TET_RAYS_CHARGED = 15_392

# the same pins for the link-restricted systems, one entry per
# _extreme_rays call: (rays, candidates charged, sha256 of the ordered
# ray list). The 12-tet's ray list was recorded with the Python-int ray
# arithmetic the array version replaced.
RESTRICTED_RAYS = {
    # split-pair's two interaction components: d = 25 with 84 inequality
    # rows, then d = 8 with 46, one figure-eight's restricted 12-tet
    "pair": [
        (51, 13_366,
         "701d6e4ff74725f833b04762592632195c292faee41a8df46c90dc5f02c61b4d"),
        (3, 23,
         "2577da253c7f4c63b961795871b5f6beb28ea9236571cc4acfb71934016ee997")],
    "12-tet": [
        (3, 23,
         "2577da253c7f4c63b961795871b5f6beb28ea9236571cc4acfb71934016ee997")],
}


def recorded_double_description(system, monkeypatch):
    """(rays, candidates charged) of each _extreme_rays call that the
    admissible enumeration of system makes, in order."""
    calls = []

    def recording(ineq, budget, block_rows=()):
        before = budget.examined
        rays = _extreme_rays(ineq, budget, block_rows)
        calls.append((rays, budget.examined - before))
        return rays

    monkeypatch.setattr(hilbert, "_extreme_rays", recording)
    enumerate_fundamental(system, admissible_only=True)
    return calls


def rays_sha256(rays):
    return hashlib.sha256(json.dumps(rays).encode()).hexdigest()


def test_ten_tet_double_description_is_pinned(tri10, monkeypatch):
    [(rays, charged)] = recorded_double_description(tri10.matching_system,
                                                    monkeypatch)
    assert len(rays) == 100
    assert charged == TEN_TET_RAYS_CHARGED
    assert rays_sha256(rays) == TEN_TET_RAYS_SHA256


@pytest.mark.parametrize("name", sorted(RESTRICTED_RAYS))
def test_restricted_double_description_is_pinned(name, restricted12,
                                                 disc_tri, disc_link,
                                                 monkeypatch):
    system = restricted12 if name == "12-tet" else restrict_to_link(
        disc_tri.matching_system, disc_tri, disc_link)
    assert [(len(rays), charged, rays_sha256(rays)) for rays, charged in
            recorded_double_description(system, monkeypatch)] == \
        RESTRICTED_RAYS[name]


# On the 10-tet the bound 2 * M**2 * N on a step's values is 7,000 for
# the initial rays and at the first of the 48 insertions, then 20,230,
# 17,920 and 67,270, and peaks at 141,750: limits of 100 and 5,000 send
# the whole run to Python ints, and one of 50,000 keeps three insertions
# in int64 and switches at the fourth. Keyed by limit, the number of
# insertions that stack int64 rays.
INT64_STEPS = {100: 0, 5_000: 0, 50_000: 3}


@pytest.mark.parametrize("limit", sorted(INT64_STEPS))
def test_double_description_past_int64_switches_to_python_ints(
        limit, tri10, monkeypatch):
    # numpy integer arrays wrap silently, so only the same rays at a lower
    # limit show that the switch comes before any value could wrap. The
    # returned rays are Python ints either way (tolist), so the dtype of
    # the ray array each insertion stacks shows where the run switched.
    dtypes = []

    class StackRecording:
        """numpy, with vstack noting the dtype of each ray array."""

        def __getattr__(self, name):
            return getattr(np, name)

        def vstack(self, arrays):
            out = np.vstack(arrays)
            if out.dtype != np.uint64:  # the bitsets are uint64
                dtypes.append(out.dtype)
            return out

    monkeypatch.setattr(hilbert, "_INT64_MAX", limit)
    monkeypatch.setattr(hilbert, "np", StackRecording())
    [(rays, charged)] = recorded_double_description(tri10.matching_system,
                                                    monkeypatch)
    assert charged == TEN_TET_RAYS_CHARGED
    assert rays_sha256(rays) == TEN_TET_RAYS_SHA256
    int64_steps = INT64_STEPS[limit]
    assert dtypes == [np.dtype(np.int64)] * int64_steps + \
        [np.dtype(object)] * (48 - int64_steps)


def test_rays_past_int64_match_the_oracle():
    # scaling every column but the first of a seeded cone's inequalities
    # by 2**70 maps its ray (a, b, ...) to (a * 2**70, b, ...), up to the
    # gcd, so most primitive rays pass 2**63 in their first coordinate
    rng = random.Random(43)
    big = 0
    for _ in range(10):
        ineq, _ = random_cone(rng)
        ineq = [tuple(x if i == 0 else x << 70 for i, x in enumerate(row))
                for row in ineq]
        rays = _extreme_rays(ineq, _Budget(10 ** 9, None))
        assert_rays_of_cone(ineq, rays)
        assert set(rays) == cone_extreme_rays(ineq), ineq
        assert all(type(x) is int for ray in rays for x in ray)
        big += max((abs(x) for ray in rays for x in ray), default=0) > \
            hilbert._INT64_MAX
    assert big


def test_rays_that_outgrow_int64_midway_match_the_oracle():
    # the wedge r/s <= y/x <= p/q starts from the unit rays, which fit in
    # int64 with room to spare; inserting the third row makes the ray
    # (q, p), and the fourth row's combinations reach about 2**82
    # before their gcd is divided out
    p, q = (1 << 40) + 1, 1 << 40
    r, s = (1 << 40) - 1, (1 << 40) + 1
    ineq = [(1, 0), (0, 1), (p, -q), (-r, s)]
    rays = _extreme_rays(ineq, _Budget(10 ** 9, None))
    assert set(rays) == {(q, p), (s, r)} == cone_extreme_rays(ineq)


def test_candidate_cap_stops_the_face_loop(tri10):
    # every charge after the extreme rays is a face's rays or a simplex's
    # index, so a cap one below the total is passed by the last of them
    total = PINNED_WORK["10-tet admissible"][0]
    with pytest.raises(ResourceLimitExceeded) as raised:
        enumerate_fundamental(tri10.matching_system, admissible_only=True,
                              max_candidates=total - 1)
    assert raised.value.candidates == total > TEN_TET_RAYS_CHARGED


def test_deadline_is_checked_inside_the_triangulation(tri10):
    class Expiring(_Budget):
        def charge(self, count):
            super().charge(count)
            if self.examined > TEN_TET_RAYS_CHARGED:
                # the first face's rays are charged: the deadline passes
                self.deadline = time.monotonic() - 1

    with pytest.raises(ResourceLimitExceeded) as raised:
        list(hilbert._admissible_stages(tri10.matching_system,
                                        Expiring(10 ** 9, None)))
    assert raised.value.candidates > TEN_TET_RAYS_CHARGED
    assert raised.traceback[-2].name == "_triangulate"
    with pytest.raises(ResourceLimitExceeded):
        enumerate_fundamental(tri10.matching_system, admissible_only=True,
                              time_budget=1e-3)


def random_graph(rng, n, density):
    """Neighbor bitmasks of a seeded random graph on n vertices."""
    neighbors = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    return neighbors


def test_maximal_cliques_come_out_in_the_recursive_order():
    # the order of the faces sets where a capped face stage overruns
    rng = random.Random(36)
    for _ in range(300):
        neighbors = random_graph(rng, rng.randint(0, 40), rng.random())
        assert hilbert._maximal_cliques(neighbors, _Budget(1, None)) \
            == maximal_cliques_recursive(neighbors)


def test_maximal_cliques_of_a_deep_clique_need_no_recursion():
    n = 1100
    full = (1 << n) - 1
    neighbors = [full ^ (1 << v) for v in range(n)]
    assert hilbert._maximal_cliques(neighbors, _Budget(1, None)) == [full]
    with pytest.raises(ResourceLimitExceeded):
        hilbert._maximal_cliques(neighbors, _Budget(1, -1.0))


def test_faces_check_the_deadline_in_the_pair_test():
    # a few thousand admissible patterns: the pair test alone takes
    # seconds, and a deadline already past stops it at its first row
    rng = random.Random(36)
    triples = [(BLOCK * b + 4, BLOCK * b + 5, BLOCK * b + 6)
               for b in range(12)]
    patterns = list({frozenset(rng.choice(t) for t in triples
                               if rng.random() < 0.5)
                     for _ in range(4000)})
    assert len(patterns) > 3000
    with pytest.raises(ResourceLimitExceeded) as raised:
        hilbert._faces(patterns, triples, _Budget(10 ** 9, -1.0))
    assert raised.traceback[-2].name == "_faces"


NO_SYMPY_SCRIPT = """
import sys
from normsurf import cli, fixtures
from normsurf.hilbert import enumerate_fundamental
from normsurf.homology import h1
tri = fixtures.fig8_complement()
enumerate_fundamental(tri.matching_system, admissible_only=True)
h1(tri)
d = sys.argv[1]
assert cli.main(["emit-fixtures", d]) == 0
assert cli.main(["unknot", d + "/fig8_12tet.json",
                 "--knot", d + "/fig8_knot.json",
                 "--pushoff", d + "/fig8_longitude.json",
                 "--homology-tri", d + "/fig8_10tet.json"]) == 0
assert "sympy" not in sys.modules
"""


BENCH = Path(__file__).resolve().parent.parent / "bench"
# candidates_examined of the admissible enumeration of the 10-tet
# complement relabelled by bench/gen.py's random_relabelling(names,
# random.Random(seed))
RELABELLED_WORK = {
    0: 27_492, 1: 42_259, 2: 38_465, 3: 26_142, 4: 53_799,
    5: 33_838, 6: 29_125, 7: 55_567, 8: 43_487, 9: 31_763,
}


@pytest.mark.parametrize("seed", sorted(RELABELLED_WORK))
def test_relabelled_enumeration_is_the_canonical_one(seed, tri10, fund10,
                                                     monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    names = [tri10.name(t) for t in range(tri10.size)]
    relabelling = gen.random_relabelling(names, random.Random(seed))
    fs = enumerate_fundamental(
        gen.relabel(tri10, relabelling).matching_system,
        admissible_only=True, time_budget=5)
    assert len(fs.vectors) == 110
    back = sorted(canonical_coordinates(v, tri10, relabelling)
                  for v in fs.vectors)
    blob = json.dumps([[int(x) for x in v] for v in back],
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "4a50c39f6e38a1bc"
    assert back == list(fund10.vectors)
    assert fs.candidates_examined == RELABELLED_WORK[seed]


# sha256 of json.dumps of the vertex solutions, the sorted first yield of
# _admissible_stages. split_link_check scans them first, so they fix its
# witness, the first splitting vertex solution in lexicographic order,
# and its searched_count, that witness's position. The order in which
# the double description takes its rows must not move them.
VERTEX_SOLUTIONS_SHA256 = {
    "10-tet": (100, "7b0cc3d9be45d8f1bc168825a1cfb1fb"
                    "5648a00ab6b2cee40858820fba969d29"),
    "restricted 12-tet": (3, "83ba0b0276014454e10a311d7b055c7a"
                             "1f13689d1003fb0fbf6d8ed09d3ef05d"),
    "restricted pair": (54, "7370f92be158ccaf6b773341aeaf454e"
                            "bc288cb89801403e657b54d7daea7a66"),
    "solid torus": (4, "3d2dbf8957cb90be7da6fee0f6f696aa"
                       "bd0d2b292a2870ecea274524e0ebc659"),
    "coned layered solid torus": (10, "4210ef138187a91e511f4ea26a6ba011"
                                      "8d5f0e5226380527418810794263621d"),
}


def vertex_solutions(system):
    stages = hilbert._admissible_stages(
        system, _Budget(hilbert.DEFAULT_MAX_CANDIDATES, None))
    vertices = next(stages)
    stages.close()
    return vertices


@pytest.mark.parametrize("name", sorted(VERTEX_SOLUTIONS_SHA256))
def test_vertex_solutions_are_pinned(name, tri10, restricted12, disc_tri,
                                     disc_link, torus_tri):
    system = {
        "10-tet": lambda: tri10.matching_system,
        "restricted 12-tet": lambda: restricted12,
        "restricted pair": lambda: restrict_to_link(
            disc_tri.matching_system, disc_tri, disc_link),
        "solid torus": lambda: torus_tri.matching_system,
        "coned layered solid torus":
            lambda: cone(layered_solid_torus()).matching_system,
    }[name]()
    vertices = vertex_solutions(system)
    assert (len(vertices), rays_sha256(vertices)) == \
        VERTEX_SOLUTIONS_SHA256[name]


@pytest.mark.parametrize("seed", sorted(RELABELLED_WORK))
def test_relabelled_vertex_solutions_are_the_canonical_ones(seed, tri10,
                                                            monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    names = [tri10.name(t) for t in range(tri10.size)]
    relabelling = gen.random_relabelling(names, random.Random(seed))
    vertices = vertex_solutions(
        gen.relabel(tri10, relabelling).matching_system)
    back = sorted(canonical_coordinates(v, tri10, relabelling)
                  for v in vertices)
    assert (len(back), rays_sha256(back)) == \
        VERTEX_SOLUTIONS_SHA256["10-tet"]


def test_runtime_never_imports_sympy(tmp_path):
    src = os.path.dirname(os.path.dirname(normsurf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
