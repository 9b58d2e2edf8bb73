"""Fundamental-solution enumeration against independent brute force."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

import normsurf
from normsurf import fixtures, hilbert
from normsurf.errors import ResourceLimitExceeded
from normsurf.hilbert import (_Budget, _extreme_rays, _integer_kernel,
                              brute_force_solutions, enumerate_fundamental,
                              filter_admissible)
from normsurf.matching import (MatchingSystem, is_admissible, is_solution,
                               restrict_to_link)

from oracles import (bounded_solutions, cone_extreme_rays, decomposes_over,
                     minimal_nonzero, random_quad_system)

from tables import reference_solutions


def plain_system(n, equations, forced=frozenset()):
    return MatchingSystem(
        variable_count=n, equations=tuple(equations),
        forced_zeros=frozenset(forced), quad_triples=(),
        equation_labels=tuple(f"e{i}" for i in range(len(equations))))


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


def test_vectors_are_lex_sorted_and_fingerprint_stable():
    sys = plain_system(4, [(0, 1, 2, 3)])
    a = enumerate_fundamental(sys)
    b = enumerate_fundamental(sys)
    assert a.vectors == tuple(sorted(a.vectors))
    assert a.system_fingerprint == b.system_fingerprint
    other = plain_system(4, [(0, 2, 1, 3)])
    assert (enumerate_fundamental(other).system_fingerprint
            != a.system_fingerprint)


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
                               for t in range(n_blocks)),
            equation_labels=tuple(f"e{i}" for i in range(len(eqs))))
        full = enumerate_fundamental(sys)
        only = enumerate_fundamental(sys, admissible_only=True)
        assert only.vectors == filter_admissible(full).vectors
        assert all(is_admissible(v) for v in only.vectors)


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
        kernel = _integer_kernel(A, n)
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


# (candidates_examined, number of vectors), recorded with the completion
# search that had a separate dominance test per use
PINNED_WORK = {
    "10-tet admissible": (254_857, 110),
    "restricted 12-tet full": (11_468, 54),
    "restricted pair admissible": (254_931, 54),
    "solid torus full": (18, 5),
    "solid torus admissible": (12, 4),
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


def pairwise_minimal(rows):
    """Coordinatewise-minimal nonzero rows, sorted, by comparing every
    pair of distinct rows."""
    rows = {tuple(r) for r in rows if any(r)}
    return sorted(r for r in rows if not any(
        o != r and all(a <= b for a, b in zip(o, r)) for o in rows))


@pytest.mark.parametrize("chunk", [hilbert._CHUNK, 8])
def test_dominance_kernel_matches_pairwise_comparison(chunk, monkeypatch):
    # a chunk of 8 elements splits every block of rows
    monkeypatch.setattr(hilbert, "_CHUNK", chunk)
    rng = random.Random(5)
    for _ in range(60):
        width = rng.randint(1, 5)
        # entries 0..3 so that duplicate and zero rows occur
        rows, anchors = ([[rng.randint(0, 3) for _ in range(width)]
                          for _ in range(rng.randint(0, 40))]
                         for _ in range(2))
        arr = np.array(rows, dtype=np.int64).reshape(-1, width)
        assert hilbert._minimal_rows(arr).tolist() == \
            [list(r) for r in pairwise_minimal(rows)]
        counts = hilbert._dominated(
            arr, np.array(anchors, dtype=np.int64).reshape(-1, width))
        assert counts.tolist() == [
            sum(all(a >= b for a, b in zip(r, o)) for o in anchors)
            for r in rows]


def test_lift_without_both_signs_keeps_the_zero_rows():
    H = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
                 dtype=np.int64)
    budget = _Budget(10, None)
    for vals in ([0, 0, 0, 0], [1, 0, 2, 0], [0, -1, 0, -3]):
        vals = np.array(vals, dtype=np.int64)
        assert hilbert._lift_equation(H, vals, budget).tolist() == \
            H[vals == 0].tolist()
    assert budget.examined == 0


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


def test_extreme_rays_with_groups_keep_every_respecting_ray():
    rng = random.Random(23)
    for _ in range(80):
        ineq, oracle = random_cone(rng)
        rows = list(range(len(ineq)))
        rng.shuffle(rows)
        groups = []
        while len(rows) >= 2:
            size = rng.randint(2, min(3, len(rows)))
            groups.append(tuple(sorted(rows[:size])))
            rows = rows[size:]

        def respects(z):
            return all(
                sum(sum(a * b for a, b in zip(ineq[r], z)) > 0
                    for r in group) <= 1
                for group in groups)

        rays = _extreme_rays(ineq, _Budget(10 ** 9, None), groups)
        assert_rays_of_cone(ineq, rays)
        assert all(respects(z) for z in rays), (ineq, groups)
        assert {z for z in oracle if respects(z)} <= set(rays), \
            (ineq, groups)


# sha256 of json.dumps of the ordered ray list that _extreme_rays returns
# on the 10-tet admissible enumeration, and the candidates it charges;
# recorded with the pure-Python pair loop the bitset version replaced
TEN_TET_RAYS_SHA256 = \
    "3009727d4d7758845baa2fce9801c48d3aad96915d735be0383f0666d3777fdc"
TEN_TET_RAYS_CHARGED = 226_061


def test_ten_tet_double_description_is_pinned(tri10, monkeypatch):
    calls = []

    def recording(ineq, budget, block_rows=()):
        before = budget.examined
        rays = _extreme_rays(ineq, budget, block_rows)
        calls.append((rays, budget.examined - before))
        return rays

    monkeypatch.setattr(hilbert, "_extreme_rays", recording)
    enumerate_fundamental(tri10.matching_system, admissible_only=True)
    [(rays, charged)] = calls
    assert len(rays) == 100
    assert charged == TEN_TET_RAYS_CHARGED
    assert hashlib.sha256(json.dumps(rays).encode()).hexdigest() == \
        TEN_TET_RAYS_SHA256


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


def test_runtime_never_imports_sympy(tmp_path):
    src = os.path.dirname(os.path.dirname(normsurf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
