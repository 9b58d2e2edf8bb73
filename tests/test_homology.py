"""Integer first homology of the glued complex.

The knot-complement loop values were frozen after rebuilding the whole
computation from an independently keyed-in copy of the gluing table
(RAW_TEN_TET); test_independent_rebuild_from_raw_gluings repeats that
rebuild with sympy on every run.
"""

import importlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from normsurf import hilbert, homology
from normsurf.errors import HomologyError, TriangulationError
from normsurf.fixtures import (disconnected_link, disconnected_pair,
                               fig8_closed, fig8_complement, fig8_link,
                               fig8_longitude_cycle, fig8_pushoff_cycle,
                               single_tet, solid_torus)
from normsurf.hilbert import enumerate_fundamental
from normsurf.homology import (_smith, _sparse, chain_complex, cycle_chain,
                               h1)
from normsurf.matching import restrict_to_link
from normsurf.surface import analyze
from normsurf.triangulation import (EdgeCycle, IdealVertex, Triangulation,
                                    parse_triangulation,
                                    serialize_triangulation)

from oracles import (UF, TruncatedH1Reference, h1_reference, smith_reference,
                     vertex_link_vector)
from tables import (DIRECTED_LOOP_VALUES, LONGITUDE_CLASS_MEMBERS,
                    ONE_TET_CLOSED_CENSUS, RAW_TEN_TET, RAW_TET_ORDER,
                    one_tet_closed_gluings)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def loop_class(tri, summary, name, pair):
    cyc = EdgeCycle(edges=((name, pair),))
    return summary.class_of(cycle_chain(tri, cyc))


def class_names(tri, ec):
    return frozenset(f"{tri.name(t)}({a}{b})" for t, (a, b) in ec.members)


def smith_transforms(A, m, n, u=True, v=True):
    """S, and U and V where appended, from _smith on the rows of
    [[A, I], [I, 0]], or of [A, I] or [[A], [I]] without V or U."""
    rows = [_sparse(row) | ({n + i: 1} if u else {})
            for i, row in enumerate(A)]
    rows += [{j: 1} for j in range(n)] if v else []
    _smith(rows, m, n)
    return ([[row.get(j, 0) for j in range(n)] for row in rows[:m]],
            [[row.get(n + i, 0) for i in range(m)] for row in rows[:m]]
            if u else None,
            [[row.get(j, 0) for j in range(n)] for row in rows[m:]]
            if v else None)


def test_smith_form_matches_sympy():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        S, U, V = smith_transforms(A, m, n)
        SU, SA, SV = sympy.Matrix(S), sympy.Matrix(A), sympy.Matrix(V)
        assert sympy.Matrix(U) * SA * SV == SU
        assert abs(sympy.Matrix(U).det()) == 1
        assert abs(SV.det()) == 1
        got = [S[i][i] for i in range(min(m, n)) if S[i][i]]
        if any(any(row) for row in A):
            want = smith_normal_form(SA)
            ref = [want[i, i] for i in range(min(m, n)) if want[i, i]]
            assert got == [abs(int(x)) for x in ref]
        else:
            assert got == []
        # divisibility chain
        for a, b in zip(got, got[1:]):
            assert b % a == 0


def smith_test_matrices(rng):
    """200 matrices covering each branch of the pivot rule."""

    def matrix(m, n, pick):
        return [[pick() for _ in range(n)] for _ in range(m)]

    out = []
    for _ in range(50):  # small dense
        out.append(matrix(rng.randint(1, 5), rng.randint(1, 5),
                          lambda: rng.randint(-4, 4)))
    for _ in range(50):  # sparse, up to 40 x 40, entries in -2..2
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        p = 1.5 / max(m, n)
        out.append(matrix(m, n, lambda: rng.choice((-2, -1, 1, 2))
                          if rng.random() < p else 0))
    for _ in range(40):  # no unit entry, so the divisibility fold runs
        out.append(matrix(rng.randint(2, 6), rng.randint(2, 6),
                          lambda: rng.choice((0, 0, 2, -2, 3, -3, 4, 6))))
    for _ in range(30):  # one unit, in the bottom half of the rows
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        A = matrix(m, n, lambda: rng.choice((0, 2, -2, 3, -4, 5)))
        A[rng.randrange(m // 2, m)][rng.randrange(n)] = rng.choice((1, -1))
        out.append(A)
    for _ in range(30):  # the first unit is a -1 past column 0: the
        # swaps bring it to (0, 0), then its row is negated
        m, n = rng.randint(2, 8), rng.randint(3, 8)
        A = matrix(m, n, lambda: rng.choice((0, 0, 2, -3, 1, -1)))
        i = rng.randrange(min(m, n - 1))
        for r in range(i + 1):
            A[r] = [2 * x if abs(x) == 1 else x for x in A[r]]
        A[i][rng.randrange(i + 1, n)] = -1
        out.append(A)
    return out


def test_smith_matches_the_reference_on_random_matrices():
    matrices = smith_test_matrices(random.Random(9))
    assert len(matrices) == 200
    for A in matrices:
        m, n = len(A), len(A[0])
        assert smith_transforms(A, m, n) == smith_reference(A, m, n)[:3]


# whether each caller of _smith appends U's columns and V's rows
APPENDS = {"_integer_kernel": (False, True), "_parallelepiped": (True, False),
           "_extreme_rays": (True, True), "h1": (True, False)}


@pytest.fixture(scope="module")
def fixture_smith_calls():
    """Every call the bundled pipelines make to _smith, as (caller,
    rows as passed, m, n): the integer kernels, extreme-ray bases and
    ray matrices of the simplices that do not peel of four enumerations,
    and the boundaries of three H1 computations."""
    seen = []

    def recording(rows, m, n):
        seen.append((sys._getframe(1).f_code.co_name,
                     [dict(row) for row in rows], m, n))
        return _smith(rows, m, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_smith", recording)
        mp.setattr(homology, "_smith", recording)
        t10, t12, pair, st = (fig8_complement(), fig8_closed(),
                              disconnected_pair(), solid_torus())
        for system in (t10.matching_system,
                       restrict_to_link(t12.matching_system, t12,
                                        fig8_link()),
                       restrict_to_link(pair.matching_system, pair,
                                        disconnected_link()),
                       st.matching_system):
            enumerate_fundamental(system, admissible_only=True)
        h1(t10)
        h1(st)
        h1(t12)
    return [(caller, rows, [[row.get(j, 0) for j in range(n)]
                            for row in rows[:m]], m, n)
            for caller, rows, m, n in seen]


def test_smith_matches_the_reference_on_fixture_matrices(
        fixture_smith_calls):
    # 13 kernels, bases and boundaries, and the 24 simplices whose normal
    # coordinates do not peel (hilbert._unimodular; test_hilbert's
    # test_simplex_smith_forms_match_the_reference checks every simplex
    # matrix); the largest kernel is that of split-pair's larger
    # interaction component
    assert len(fixture_smith_calls) == 37
    assert (72, 84) in {(m, n) for *_, m, n in fixture_smith_calls}
    for caller, rows, A, m, n in fixture_smith_calls:
        # each caller appends exactly the transforms it reads
        u, v = APPENDS[caller]
        assert [{c: x for c, x in row.items() if c >= n}
                for row in rows[:m]] == [{n + i: 1} if u else {}
                                         for i in range(m)]
        assert rows[m:] == ([{j: 1} for j in range(n)] if v else [])
        assert smith_transforms(A, m, n) == smith_reference(A, m, n)[:3]


def test_partial_augmentation_changes_nothing(fixture_smith_calls):
    """Only block entries choose _smith's operations, so appending U
    alone or V alone gives the S and the transform of appending both."""
    matrices = [(A, len(A), len(A[0]))
                for A in smith_test_matrices(random.Random(9))]
    matrices += [(A, m, n) for _, _, A, m, n in fixture_smith_calls]
    assert len(matrices) == 237
    for A, m, n in matrices:
        S, U, V = smith_transforms(A, m, n)
        assert smith_transforms(A, m, n, v=False) == (S, U, None)
        assert smith_transforms(A, m, n, u=False) == (S, None, V)


def test_boundary_composition_is_zero(tri10, tri12):
    for tri in (tri10, tri12, single_tet(), solid_torus()):
        cc = chain_complex(tri)
        d1 = np.array(cc.boundary1, dtype=int)
        d2 = np.array(cc.boundary2, dtype=int)
        assert not (d1 @ d2).any()


def test_ball_homology():
    s = h1(single_tet())
    assert (s.free_rank, s.torsion) == (0, ())
    two = Triangulation(("a", "b"), [])
    s2 = h1(two)
    assert (s2.free_rank, s2.torsion) == (0, ())
    assert s2.class_of({}).is_null


def test_solid_torus_homology():
    s = h1(solid_torus())
    assert (s.free_rank, s.torsion) == (1, ())


def test_complement_h1_is_infinite_cyclic(tri10):
    s = h1(tri10)
    assert s.free_rank == 1
    assert s.torsion == ()
    assert s.complex.nonmaterial_vertex_classes == ()


def test_closed_fixture_h1_is_the_exterior(tri12, skel12):
    # truncated at its ideal vertex, whose link is a torus, the closed
    # fixture is the knot exterior: the longitude bounds, the pushoff
    # generates
    s = h1(tri12)
    assert (s.free_rank, s.torsion) == (1, ())
    assert s.complex.nonmaterial_vertex_classes == (1,)
    vc = skel12.vertex_classes[1]
    assert vc.degree == 2
    link = analyze(tri12, vertex_link_vector(tri12, 1))
    assert link.euler == 0 and link.closed
    assert s.class_of(cycle_chain(tri12, fig8_longitude_cycle())).is_null
    pushoff = s.class_of(cycle_chain(tri12, fig8_pushoff_cycle()))
    assert pushoff.values in ((1,), (-1,))


def test_chains_through_the_truncation_are_refused(tri12, skel12):
    s = h1(tri12)
    cut = {ec.index for ec in skel12.edge_classes
           for t, edge in ec.members[:1]
           if 1 in {skel12.vertex_class_of[(t, x)] for x in edge}}
    assert cut and s.complex.cut_edges == cut
    for e in cut:
        with pytest.raises(HomologyError, match="cut edge class"):
            s.class_of({e: 1})
    # out along a cut edge and back: the chain is 0, but which arc
    # across the truncation closes the walk is not given
    there_and_back = EdgeCycle(edges=(("h1", (0, 1)), ("h1", (1, 0))))
    with pytest.raises(HomologyError, match="non-material vertex class"):
        cycle_chain(tri12, there_and_back)


def test_directed_loop_values(tri10, skel10):
    s = h1(tri10)
    base = loop_class(tri10, s, "b1*", (1, 3))
    assert base.orders == (0,)
    assert abs(base.values[0]) == 1
    sign = base.values[0]
    for (name, pair), want in DIRECTED_LOOP_VALUES.items():
        got = loop_class(tri10, s, name, pair)
        assert got.values[0] == sign * want, (name, pair)


def test_pushoff_is_generator_not_double(tri10, skel10):
    s = h1(tri10)
    gen = loop_class(tri10, s, "p", (1, 0))
    vertical = loop_class(tri10, s, "4bar", (0, 3))
    pushoff = loop_class(tri10, s, "b1*", (1, 3))
    assert vertical.is_null
    assert vertical.values != tuple(2 * v for v in gen.values)
    assert pushoff.values == gen.values
    assert not pushoff.is_null


def test_unique_null_boundary_class(tri10, skel10):
    s = h1(tri10)
    boundary = [ec for ec in skel10.edge_classes if ec.boundary]
    assert [ec.index for ec in boundary] == [8, 10, 11]
    null = [ec for ec in boundary if s.class_of({ec.index: 1}).is_null]
    assert len(null) == 1
    assert class_names(tri10, null[0]) == LONGITUDE_CLASS_MEMBERS


def test_verify_zero_pushoff(tri10):
    s = h1(tri10)
    assert s.class_of(cycle_chain(tri10, fig8_longitude_cycle())).is_null
    assert not s.class_of(cycle_chain(tri10, fig8_pushoff_cycle())).is_null


def test_cycle_chain_refuses_inverted_edge_classes():
    # edge 01 is glued to itself reversed, so it would close up as a
    # loop with no orientation: the triangulation is refused at the door
    tri = Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))])
    with pytest.raises(TriangulationError, match="glued to itself reversed"):
        cycle_chain(tri, EdgeCycle(edges=(("s", (0, 1)),)))


def test_chain_complex_refuses_inverted_edge_classes():
    tri = Triangulation(("s",), [("s", (0, 1, 2), "s", (1, 0, 3))])
    for call in (chain_complex, h1):
        with pytest.raises(TriangulationError,
                           match="glued to itself reversed"):
            call(tri)


def test_ideal_vertex_is_no_cycle(tri10):
    # an ideal vertex carries no edge chain, so it cannot be verified
    # as a pushoff; read as the empty chain it would pass as null
    with pytest.raises(HomologyError, match="must be an edge cycle"):
        cycle_chain(tri10, IdealVertex("p", 0))


def test_class_of_is_additive(tri10, skel10):
    # H1 = Z, so the class of a walk is the sum of its steps' classes
    s = h1(tri10)
    a = loop_class(tri10, s, "p", (1, 0))
    b = loop_class(tri10, s, "3", (3, 2))
    both = cycle_chain(tri10, EdgeCycle(edges=(("p", (1, 0)),
                                               ("3", (3, 2)))))
    assert s.class_of(both).values == tuple(
        x + y for x, y in zip(a.values, b.values))


def test_non_cycle_and_bad_chain_raise():
    s = h1(single_tet())
    with pytest.raises(HomologyError, match="not a 1-cycle"):
        s.class_of({0: 1})
    with pytest.raises(HomologyError, match="coefficients"):
        s.class_of([1, 0])
    with pytest.raises(HomologyError, match="no edge class"):
        s.class_of({99: 1})


def test_relabel_invariance(tri10, skel10):
    data = json.loads(serialize_triangulation(tri10))
    rng = random.Random(11)
    order = list(range(len(data["tetrahedra"])))
    rng.shuffle(order)
    data["tetrahedra"] = [data["tetrahedra"][i] for i in order]
    relabeled = parse_triangulation(json.dumps(data))
    s = h1(relabeled)
    assert (s.free_rank, s.torsion) == (1, ())
    cls = loop_class(relabeled, s, "b1*", (1, 3))
    assert abs(cls.values[0]) == 1


def test_independent_rebuild_from_raw_gluings(tri10, skel10):
    # the raw table is involutive and covers every interior face twice
    assert len(RAW_TEN_TET) == 38
    for (t, f), (t2, f2) in RAW_TEN_TET.items():
        t3, f3 = RAW_TEN_TET[(t2, tuple(sorted(f2)))]
        assert t3 == t
        fwd = dict(zip(f, f2))
        back = dict(zip(sorted(f2), f3))
        assert all(back[fwd[x]] == x for x in f)

    names = RAW_TET_ORDER
    # undirected edge orbits
    edges = UF((n, (min(u, v), max(u, v)))
               for n in names for u in range(4) for v in range(4) if u != v)
    # directed edge orbits give each member a sign
    directed = UF((n, (u, v))
                  for n in names for u in range(4) for v in range(4)
                  if u != v)
    for (t, f), (t2, f2) in RAW_TEN_TET.items():
        corr = dict(zip(f, f2))
        for u, v in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])):
            a, b = corr[u], corr[v]
            edges.union((t, (min(u, v), max(u, v))),
                        (t2, (min(a, b), max(a, b))))
            directed.union((t, (u, v)), (t2, (a, b)))

    groups = sorted(edges.groups().values(), key=lambda g: sorted(
        (names.index(t), e) for t, e in g)[0])
    assert len(groups) == 12
    mine = {frozenset(f"{t}({u}{v})" for t, (u, v) in g) for g in groups}
    pkg = {class_names(tri10, ec) for ec in skel10.edge_classes}
    assert mine == pkg

    # no orbit identifies an edge with its own reverse
    for n in names:
        for u in range(4):
            for v in range(u + 1, 4):
                assert not directed.same((n, (u, v)), (n, (v, u)))

    class_of = {}
    ref_dir = {}
    for idx, g in enumerate(groups):
        least = min(g, key=lambda m: (names.index(m[0]), m[1]))
        ref_dir[idx] = least
        for m in g:
            class_of[m] = idx

    def loop_sign(t, u, v):
        idx = class_of[(t, (min(u, v), max(u, v)))]
        rt, (ru, rv) = ref_dir[idx]
        return idx, (1 if directed.same((t, (u, v)), (rt, (ru, rv)))
                     else -1)

    # face classes: one representative per gluing pair plus free faces
    faces = [(n, f) for n in names
             for f in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
    reps = []
    seen = set()
    for spot in faces:
        if spot in seen:
            continue
        seen.add(spot)
        if spot in RAW_TEN_TET:
            t2, f2 = RAW_TEN_TET[spot]
            seen.add((t2, tuple(sorted(f2))))
        reps.append(spot)
    assert len(reps) == 21

    d2 = [[0] * len(reps) for _ in range(12)]
    for col, (t, (i, j, k)) in enumerate(reps):
        for sgn, (u, v) in ((1, (j, k)), (-1, (i, k)), (1, (i, j))):
            idx, orient = loop_sign(t, u, v)
            d2[idx][col] += sgn * orient

    M = sympy.Matrix(d2)
    snf = smith_normal_form(M)
    invariants = [abs(int(snf[i, i])) for i in range(min(M.shape))
                  if snf[i, i]]
    # quotient of Z^12 by the face boundaries: one free generator left
    assert len(invariants) == 11
    assert all(d == 1 for d in invariants)

    null = M.T.nullspace()
    assert len(null) == 1
    phi = null[0]
    denils = [sympy.nsimplify(x).q for x in phi]
    phi = phi * sympy.lcm(denils)
    ints = [int(x) for x in phi]
    g = 0
    for x in ints:
        g = sympy.gcd(g, x)
    ints = [x // int(g) for x in ints]

    values = {}
    for (name, pair) in DIRECTED_LOOP_VALUES:
        idx, orient = loop_sign(name, *pair)
        values[(name, pair)] = orient * ints[idx]
    base = values[("b1*", (1, 3))]
    assert abs(base) == 1
    assert {k: base * v for k, v in DIRECTED_LOOP_VALUES.items()} == values


# One-tetrahedron lens spaces: H1 is Z/4 and Z/5
LENS_GLUINGS = {
    "L(4,1)": [("t", (0, 1, 2), "t", (1, 3, 0)),
               ("t", (0, 2, 3), "t", (2, 3, 1))],
    "L(5,2)": [("t", (0, 1, 2), "t", (1, 3, 0)),
               ("t", (0, 2, 3), "t", (3, 1, 2))],
}


def relabellings(gen, base):
    """bench/gen.py's relabellings of base, seeds 0-9."""
    names = [base.name(t) for t in range(base.size)]
    return [(f"{base.size}-tet seed {seed}",
             gen.relabel(base, gen.random_relabelling(names,
                                                      random.Random(seed))))
            for seed in range(10)]


def h1_oracle_inputs(gen):
    """(name, triangulation) for every input h1 is checked on against
    h1_reference, each without a non-material vertex class: the
    fixtures, two lens spaces, and the 10-tet complement's
    relabellings."""
    out = [("10-tet", fig8_complement()),
           ("single tet", single_tet()),
           ("solid torus", solid_torus())]
    out += [(name, Triangulation(("t",), gluings))
            for name, gluings in LENS_GLUINGS.items()]
    return out + relabellings(gen, fig8_complement())


def truncated_inputs(gen):
    """(name, triangulation) for the inputs with an ideal vertex class:
    the 12-tet closed extension, the pair, and the 12-tet's
    relabellings."""
    return ([("12-tet", fig8_closed()), ("pair", disconnected_pair())]
            + relabellings(gen, fig8_closed()))


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("gen")


def library_chain(skel, chain):
    """A chain over directed edges (t, (u, v)) as edge-class
    coefficients."""
    out = [0] * len(skel.edge_classes)
    for (t, (u, v)), c in chain.items():
        key = (t, (min(u, v), max(u, v)))
        ec = skel.edge_classes[skel.edge_class_of[key]]
        out[ec.index] += c if ec.directions[key] == (u, v) else -c
    return dict(enumerate(out))


def test_h1_matches_the_reference(gen):
    """free_rank, torsion, the material test, the face basis, and the
    class of every loop and of seeded integer combinations of loops and
    of the reference's cycle basis."""
    rng = random.Random(13)
    forests = 0
    torsion = {}
    for name, tri in h1_oracle_inputs(gen):
        s, ref = h1(tri), h1_reference(tri)
        torsion[name] = s.torsion
        cc = s.complex
        assert (s.free_rank, s.torsion) == (ref.free_rank, ref.torsion), name
        assert list(cc.nonmaterial_vertex_classes) == ref.nonmaterial == []
        assert list(cc.face_basis) == ref.face_basis, name
        assert [list(r) for r in cc.boundary2] == ref.d2, name
        n_e = len(cc.skeleton.edge_classes)
        loops = [[int(i == e) for i in range(n_e)] for e in range(n_e)
                 if not any(row[e] for row in cc.boundary1)]
        forests += len(loops) < n_e
        combos = []
        for basis in (loops, ref.cycle_basis):
            for _ in range(20):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                combos.append([sum(k * c[i] for k, c in zip(coeffs, basis))
                               for i in range(n_e)])
        for chain in loops + combos:
            got = s.class_of(dict(enumerate(chain)))
            assert (got.values, got.orders) == ref.class_of(chain), name
    # only the single tet has edges between distinct vertex classes
    assert forests == 1
    assert torsion["L(4,1)"] == (4,) and torsion["L(5,2)"] == (5,)


def test_h1_matches_the_truncation_oracle(gen):
    """Rank, torsion, and the nullity of seeded cycles against H1 of
    the explicitly truncated complex."""
    rng = random.Random(17)
    nulls = 0
    for name, tri in truncated_inputs(gen) + h1_oracle_inputs(gen):
        s, ref = h1(tri), TruncatedH1Reference(tri)
        assert (s.free_rank, s.torsion) == (ref.free_rank, ref.torsion), name
        cycles = list(ref.cycles)
        for _ in range(20):
            combo = {}
            for c in ref.cycles:
                k = rng.randint(-2, 2)
                for e, x in c.items():
                    combo[e] = combo.get(e, 0) + k * x
            cycles.append(combo)
        for chain in cycles:
            got = s.class_of(library_chain(tri.skeleton, chain))
            assert got.is_null == ref.is_null(chain), name
            nulls += got.is_null
    assert nulls


def test_one_tet_closed_census():
    """h1 refuses what the truncation oracle refuses, and agrees with it
    on the rest."""
    seen = {}
    for records in one_tet_closed_gluings():
        tri = Triangulation(("t",), records)
        try:
            s = h1(tri)
        except (HomologyError, TriangulationError) as exc:
            key = next(k for k in ONE_TET_CLOSED_CENSUS
                       if isinstance(k, str) and k in str(exc))
            with pytest.raises(ValueError):
                TruncatedH1Reference(tri)
        else:
            ref = TruncatedH1Reference(tri)
            assert (ref.free_rank, ref.torsion) == (s.free_rank, s.torsion)
            assert s.free_rank == 0
            key = s.torsion
        seen[key] = seen.get(key, 0) + 1
    assert seen == ONE_TET_CLOSED_CENSUS


def test_h1_builds_no_surface_data_and_one_smith_form(monkeypatch):
    calls = []

    def recording(rows, m, n):
        calls.append((m, n))
        return _smith(rows, m, n)

    monkeypatch.setattr(homology, "_smith", recording)
    tri = fig8_complement()
    h1(tri)
    assert "matching_system" not in tri.__dict__
    assert "boundary_surface" not in tri.__dict__
    assert len(calls) == 1


# the 10-tet longitude's coefficients, one per edge class
LONGITUDE10 = [cycle_chain(fig8_complement(), fig8_longitude_cycle()).get(e, 0)
               for e in range(12)]


@pytest.mark.parametrize("chain", [
    {0: 0.5},             # not integral
    {0: 1.9},
    {0: "1"},             # not a number
    {0: None},
    {0: float("nan")},
    {"0": 1},             # keys name edge classes by plain int
    {True: 1},
    {0.0: 1},
    {-1: 1},
    {12: 1},
    LONGITUDE10,          # a chain is a mapping, never a sequence
    tuple(LONGITUDE10),
    np.array(LONGITUDE10),
])
def test_malformed_chains_raise(tri10, chain):
    with pytest.raises(HomologyError):
        h1(tri10).class_of(chain)


def test_integral_entries_read_as_ints(tri10):
    s = h1(tri10)
    longitude = cycle_chain(tri10, fig8_longitude_cycle())
    as_floats = {k: float(v) for k, v in longitude.items()}
    assert s.class_of(as_floats) == s.class_of(longitude)
    dense = [longitude.get(e, 0) for e in range(12)]
    assert s.class_of(dict(enumerate(np.int64(x) for x in dense))).is_null
    pushoff = {e: float(x) for e, x in cycle_chain(
        tri10, fig8_pushoff_cycle()).items()}
    assert all(type(x) is int for x in s.class_of(pushoff).values)
