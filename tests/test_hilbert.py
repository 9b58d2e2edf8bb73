"""Fundamental-solution enumeration against independent brute force."""

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
                              enumerate_fundamental, filter_admissible)
from normsurf.matching import (BLOCK, MatchingSystem, is_admissible,
                               is_solution, quad_offset, restrict_to_link)

from oracles import (bounded_solutions, brute_force_solutions,
                     cone_extreme_rays, decomposes_over, lift_reference,
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


def test_nan_time_budget_is_refused():
    # every comparison with NaN is false, so a NaN deadline never passes
    sys = plain_system(4, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="NaN"):
        enumerate_fundamental(sys, time_budget=float("nan"))


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
# 10-tet admissible and restricted 12-tet full enumerations; recorded
# with the reduction that replayed full passes and dropped twins
REDUCTIONS_SHA256 = \
    "e956a25b9ead5a97a14593c31e4ec08481412f0833b098c3b902f3f721fa1b05"


def test_reductions_are_pinned(tri10, restricted12, monkeypatch):
    records = []

    class Recording(hilbert._Reduction):
        def __init__(self, *args):
            super().__init__(*args)
            records.append(reduction_record(self))

    monkeypatch.setattr(hilbert, "_Reduction", Recording)
    enumerate_fundamental(tri10.matching_system, admissible_only=True)
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
            fs = enumerate_fundamental(replace(
                sys, equations=tuple(equations),
                equation_labels=tuple(map(str, range(len(equations))))))
            runs.append((fs.vectors, fs.candidates_examined))
        assert runs[0] == runs[1] == runs[2]


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
        assert hilbert._minimal_rows(arr, _Budget(1, None)).tolist() == \
            [list(r) for r in pairwise_minimal(rows)]
        counts = hilbert._dominated(
            arr, np.array(anchors, dtype=np.int64).reshape(-1, width),
            _Budget(1, None))
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


# The one slow component of the 10-tet complement relabelled by
# bench/gen.py's random_relabelling(names, random.Random(1)), admissible
# enumeration: a 16-column system whose greedy lift order charges 5,184
# and then 22,536 candidates to grow 203 generators into 2,140, after
# which the next lift charges 1,328,400
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


BENCH = Path(__file__).resolve().parent.parent / "bench"
# candidates_examined of the admissible enumeration of the 10-tet
# complement relabelled by bench/gen.py's random_relabelling(names,
# random.Random(seed)), for seeds whose cost stays near the canonical one
RELABELLED_WORK = {2: 1_141_758, 4: 1_016_695}


def canonical_coordinates(v, tri, relabelling):
    """v, a vector of gen.relabel(tri, relabelling), in tri's labels.

    gen.relabel moves tetrahedron `name` to position order.index(name)
    and renames its vertex x to sigma[x]: a triangle type follows its
    vertex, and the quad type separating {0, x} follows that pair.
    """
    order, perms = relabelling
    out = []
    for t in range(tri.size):
        sigma = perms[tri.name(t)]
        at = BLOCK * order.index(tri.name(t))
        block = v[at:at + BLOCK]
        out += [block[sigma[x]] for x in range(4)]
        out += [block[quad_offset(sigma[0], sigma[x])] for x in (1, 2, 3)]
    return tuple(out)


@pytest.mark.parametrize("seed", sorted(RELABELLED_WORK))
def test_relabelled_enumeration_is_the_canonical_one(seed, tri10, fund10,
                                                     monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    names = [tri10.name(t) for t in range(tri10.size)]
    relabelling = gen.random_relabelling(names, random.Random(seed))
    fs = enumerate_fundamental(
        gen.relabel(tri10, relabelling).matching_system,
        admissible_only=True)
    assert len(fs.vectors) == 110
    back = sorted(canonical_coordinates(v, tri10, relabelling)
                  for v in fs.vectors)
    blob = json.dumps([[int(x) for x in v] for v in back],
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "4a50c39f6e38a1bc"
    assert back == list(fund10.vectors)
    assert fs.candidates_examined == RELABELLED_WORK[seed]


def test_runtime_never_imports_sympy(tmp_path):
    src = os.path.dirname(os.path.dirname(normsurf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
