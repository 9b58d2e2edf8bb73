"""Hand-derived reference data shared across the test suite.

Everything in this module was worked out away from the library code:
the equation listing and edge-class table were derived by hand from
the bundled gluing tables, and RAW_TEN_TET is a second, independently
keyed-in copy of the ten-tetrahedron gluing table so that transcription
slips in the fixtures module cannot silently confirm themselves.
"""

from itertools import permutations

# ---------------------------------------------------------------------------
# Reference matching equations for the twelve-tetrahedron fixture.
#
# Encoding: (gluing label, [((tetL, i, j), (tetR, k, l)), ...]) with three
# equations per gluing. Coordinates are 1-based within a tetrahedron block:
# 1..4 are the triangle types t0..t3 and 5..7 are the quads q01, q02, q03.
# Item 7's left-hand sides are recorded with row label "p" exactly as the
# reference listing gives them; the gluing actually belongs to tetrahedron
# p' (see PRINTED_ITEM7_CORRECTED), and the tests document that misprint
# instead of silently repairing the table.
PRINTED_EQUATIONS = [
    ("p(012) ~ 3(320)", [(("p", 1, 7), ("3", 4, 6)),
                         (("p", 2, 6), ("3", 3, 7)),
                         (("p", 3, 5), ("3", 1, 5))]),
    ("p(013) ~ 4bar(132)", [(("p", 1, 6), ("4bar", 2, 5)),
                            (("p", 2, 7), ("4bar", 4, 7)),
                            (("p", 4, 5), ("4bar", 3, 6))]),
    ("p(023) ~ 9(320)", [(("p", 1, 5), ("9", 4, 6)),
                         (("p", 3, 7), ("9", 3, 7)),
                         (("p", 4, 6), ("9", 1, 5))]),
    ("p(123) ~ p'(320)", [(("p", 2, 5), ("p'", 4, 6)),
                          (("p", 3, 6), ("p'", 3, 7)),
                          (("p", 4, 7), ("p'", 1, 5))]),
    ("p'(012) ~ 1(132)", [(("p'", 1, 7), ("1", 2, 5)),
                          (("p'", 2, 6), ("1", 4, 7)),
                          (("p'", 3, 5), ("1", 3, 6))]),
    ("p'(013) ~ 9(123)", [(("p'", 1, 6), ("9", 2, 5)),
                          (("p'", 2, 7), ("9", 3, 6)),
                          (("p'", 4, 5), ("9", 4, 7))]),
    ("p'(123) ~ 6bar(032)", [(("p", 2, 5), ("6bar", 1, 5)),
                             (("p", 3, 6), ("6bar", 4, 6)),
                             (("p", 4, 7), ("6bar", 3, 7))]),
    ("1(012) ~ b1*(120)", [(("1", 1, 7), ("b1*", 2, 6)),
                           (("1", 2, 6), ("b1*", 3, 5)),
                           (("1", 3, 5), ("b1*", 1, 7))]),
    ("1(013) ~ b2*(130)", [(("1", 1, 6), ("b2*", 2, 7)),
                           (("1", 2, 7), ("b2*", 4, 5)),
                           (("1", 4, 5), ("b2*", 1, 6))]),
    ("1(023) ~ 3(312)", [(("1", 1, 5), ("3", 4, 7)),
                         (("1", 3, 7), ("3", 2, 5)),
                         (("1", 4, 6), ("3", 3, 6))]),
    ("3(012) ~ c(130)", [(("3", 1, 7), ("c", 2, 7)),
                         (("3", 2, 6), ("c", 4, 5)),
                         (("3", 3, 5), ("c", 1, 6))]),
    ("3(013) ~ 6bar(012)", [(("3", 1, 6), ("6bar", 1, 7)),
                            (("3", 2, 7), ("6bar", 2, 6)),
                            (("3", 4, 5), ("6bar", 3, 5))]),
    ("4bar(012) ~ c(021)", [(("4bar", 1, 7), ("c", 1, 7)),
                            (("4bar", 2, 6), ("c", 3, 5)),
                            (("4bar", 3, 5), ("c", 2, 6))]),
    ("4bar(013) ~ b1*(130)", [(("4bar", 1, 6), ("b1*", 2, 7)),
                              (("4bar", 2, 7), ("b1*", 4, 5)),
                              (("4bar", 4, 5), ("b1*", 1, 6))]),
    ("4bar(023) ~ 6bar(231)", [(("4bar", 1, 5), ("6bar", 3, 6)),
                               (("4bar", 3, 7), ("6bar", 4, 7)),
                               (("4bar", 4, 6), ("6bar", 2, 5))]),
    ("6bar(013) ~ c(023)", [(("6bar", 1, 6), ("c", 1, 5)),
                            (("6bar", 2, 7), ("c", 3, 7)),
                            (("6bar", 4, 5), ("c", 4, 6))]),
    ("9(012) ~ b2*(230)", [(("9", 1, 7), ("b2*", 3, 7)),
                           (("9", 2, 6), ("b2*", 4, 6)),
                           (("9", 3, 5), ("b2*", 1, 5))]),
    ("9(013) ~ c(132)", [(("9", 1, 6), ("c", 2, 5)),
                         (("9", 2, 7), ("c", 4, 7)),
                         (("9", 4, 5), ("c", 3, 6))]),
    ("b1*(023) ~ b2*(021)", [(("b1*", 1, 5), ("b2*", 1, 7)),
                             (("b1*", 3, 7), ("b2*", 3, 5)),
                             (("b1*", 4, 6), ("b2*", 2, 6))]),
    ("b1*(123) ~ h1(321)", [(("b1*", 2, 5), ("h1", 4, 7)),
                            (("b1*", 3, 6), ("h1", 3, 6)),
                            (("b1*", 4, 7), ("h1", 2, 5))]),
    ("b2*(123) ~ h2(123)", [(("b2*", 2, 5), ("h2", 2, 5)),
                            (("b2*", 3, 6), ("h2", 3, 6)),
                            (("b2*", 4, 7), ("h2", 4, 7))]),
    # the listing gives this gluing with the face rotated: h1(130) ~ h2(320)
    ("h1(013) ~ h2(032)", [(("h1", 2, 7), ("h2", 4, 6)),
                           (("h1", 4, 5), ("h2", 3, 7)),
                           (("h1", 1, 6), ("h2", 1, 5))]),
    ("h1(023) ~ h2(031)", [(("h1", 1, 5), ("h2", 1, 6)),
                           (("h1", 3, 7), ("h2", 4, 5)),
                           (("h1", 4, 6), ("h2", 2, 7))]),
    ("h1(012) ~ h2(012)", [(("h1", 1, 7), ("h2", 1, 7)),
                           (("h1", 2, 6), ("h2", 2, 6)),
                           (("h1", 3, 5), ("h2", 3, 5))]),
]

# Item 7 with the left-hand row label corrected to the tetrahedron the
# gluing belongs to.
PRINTED_ITEM7_CORRECTED = (
    "p'(123) ~ 6bar(032)", [(("p'", 2, 5), ("6bar", 1, 5)),
                            (("p'", 3, 6), ("6bar", 4, 6)),
                            (("p'", 4, 7), ("6bar", 3, 7))])


# ---------------------------------------------------------------------------
# Edge classes of the twelve-tetrahedron fixture, identified by hand by
# chasing every face gluing. Keys are arbitrary letters.
HAND_EDGE_CLASSES_12 = {
    "A": ["b1*(13)", "h1(13)", "h2(23)", "b2*(23)", "9(01)", "c(13)",
          "3(01)", "6bar(01)", "c(02)", "4bar(01)"],
    "B": ["p(01)", "3(23)", "4bar(13)", "1(03)", "b2*(01)", "b1*(03)"],
    "C": ["p(02)", "3(03)", "9(23)", "p'(13)", "6bar(02)"],
    "D": ["p(03)", "4bar(12)", "9(03)", "c(12)"],
    "E": ["p(12)", "3(02)", "p'(23)", "c(01)", "4bar(02)", "6bar(23)"],
    "F": ["p(13)", "4bar(23)", "p'(03)", "6bar(13)", "9(13)", "c(23)"],
    "G": ["p(23)", "9(02)", "p'(02)", "1(12)", "b2*(02)", "b1*(02)"],
    "H": ["p'(01)", "1(13)", "9(12)", "b2*(03)"],
    "I": ["p'(12)", "1(23)", "6bar(03)", "3(12)", "c(03)"],
    "J": ["1(01)", "b1*(12)", "b2*(13)", "h1(23)", "h2(13)"],
    "K": ["1(02)", "b1*(01)", "3(13)", "4bar(03)", "6bar(12)"],
    "L": ["b1*(23)", "b2*(12)", "h1(12)", "h2(12)"],
    "M": ["h1(01)", "h1(02)", "h1(03)", "h2(01)", "h2(02)", "h2(03)"],
}


def hand_edge_classes_10():
    """The ten-tetrahedron variant: drop every h1/h2 member."""
    out = {}
    for key, members in HAND_EDGE_CLASSES_12.items():
        kept = [m for m in members if not m.startswith("h")]
        if kept:
            out[key] = kept
    return out


# ---------------------------------------------------------------------------
# The three admissible fundamental solutions of the restricted
# twelve-tetrahedron system, as per-tetrahedron blocks
# [t0, t1, t2, t3, q01, q02, q03]. Blocks not listed are zero.
_TRI = (1, 1, 1, 1, 0, 0, 0)
_EDGE = (0, 0, 1, 1, 1, 0, 0)

SOLUTION_BLOCKS = (
    {
        "p": _TRI, "p'": _TRI,
        "1": _EDGE, "3": _EDGE, "4bar": _EDGE, "6bar": _EDGE, "9": _EDGE,
        "c": (0, 0, 0, 0, 0, 2, 0),
        "b1*": (2, 0, 0, 0, 0, 0, 0), "b2*": (2, 0, 0, 0, 0, 0, 0),
    },
    {
        "p": _TRI, "p'": _TRI, "1": _TRI,
        "3": _EDGE, "4bar": _EDGE, "6bar": _EDGE, "9": _EDGE,
        "c": (0, 0, 0, 0, 0, 2, 0),
        "b1*": (1, 0, 1, 0, 0, 1, 0), "b2*": (1, 1, 0, 0, 1, 0, 0),
        "h1": (0, 0, 1, 0, 0, 1, 0), "h2": (0, 1, 0, 0, 1, 0, 0),
    },
    {"h1": (1, 0, 0, 0, 0, 0, 0), "h2": (1, 0, 0, 0, 0, 0, 0)},
)


def blocks_to_vector(tri, blocks):
    """Assemble a full coordinate vector from per-tetrahedron blocks."""
    out = []
    for i in range(tri.tet_count):
        out.extend(blocks.get(tri.name(i), (0,) * 7))
    return tuple(out)


def reference_solutions(tri):
    return tuple(blocks_to_vector(tri, b) for b in SOLUTION_BLOCKS)


# ---------------------------------------------------------------------------
# Variables forced to zero when the twelve-tetrahedron system is
# restricted to the standard two-component link, derived by hand from
# which disk types meet each link component.
RESTRICTED_FORCED_ZERO_NAMES = frozenset({
    "3.q02", "3.q03", "3.t0", "3.t1",
    "4bar.q02", "4bar.q03", "4bar.t0", "4bar.t1",
    "6bar.q02", "6bar.q03", "6bar.t0", "6bar.t1",
    "9.q02", "9.q03", "9.t0", "9.t1",
    "b1*.q01", "b1*.q03", "b1*.t1", "b1*.t3",
    "b2*.q02", "b2*.q03", "b2*.t2", "b2*.t3",
    "c.q01", "c.q03", "c.t0", "c.t1", "c.t2", "c.t3",
    "h1.q01", "h1.q03", "h1.t1", "h1.t3",
    "h2.q02", "h2.q03", "h2.t2", "h2.t3",
})


# ---------------------------------------------------------------------------
# Expected first-homology coefficients for directed single-edge loops of
# the ten-tetrahedron fixture, in units of a := class of the b1*(1->3)
# loop, which generates H1 = Z. Derived by an independent computation
# (fresh orbits + exact lattice algebra over RAW_TEN_TET, see
# test_homology) and frozen here.
DIRECTED_LOOP_VALUES = {
    ("b1*", (1, 3)): 1,
    ("p", (1, 0)): 1,
    ("3", (0, 1)): 1,
    ("3", (2, 1)): 1,
    ("3", (3, 2)): -1,
    ("3", (3, 0)): -1,
    ("p", (0, 2)): -1,
    ("1", (0, 3)): -1,
    ("4bar", (0, 3)): 0,
    ("3", (3, 1)): 0,
    ("3", (2, 0)): 0,
    ("1", (0, 2)): 0,
    ("p", (1, 2)): 0,
}

# The one null-homologous edge class on the boundary torus: a loop
# parallel to the knot that really is 0-framed.
LONGITUDE_CLASS_MEMBERS = frozenset({"1(01)", "b1*(12)", "b2*(13)"})


# ---------------------------------------------------------------------------
# Second, independently keyed-in copy of the ten-tetrahedron gluing
# table. test_homology rebuilds the whole complex from this dict with
# its own union-find, so a typo in the fixtures module cannot agree
# with a matching typo here by accident.
RAW_TEN_TET = {
    ("p", (0, 1, 2)): ("3", (3, 2, 0)),
    ("p", (0, 1, 3)): ("4bar", (1, 3, 2)),
    ("p", (0, 2, 3)): ("9", (3, 2, 0)),
    ("p", (1, 2, 3)): ("p'", (3, 2, 0)),
    ("p'", (0, 1, 2)): ("1", (1, 3, 2)),
    ("p'", (0, 1, 3)): ("9", (1, 2, 3)),
    ("p'", (0, 2, 3)): ("p", (3, 2, 1)),
    ("p'", (1, 2, 3)): ("6bar", (0, 3, 2)),
    ("1", (0, 1, 2)): ("b1*", (1, 2, 0)),
    ("1", (0, 1, 3)): ("b2*", (1, 3, 0)),
    ("1", (0, 2, 3)): ("3", (3, 1, 2)),
    ("1", (1, 2, 3)): ("p'", (0, 2, 1)),
    ("3", (0, 1, 2)): ("c", (1, 3, 0)),
    ("3", (0, 1, 3)): ("6bar", (0, 1, 2)),
    ("3", (0, 2, 3)): ("p", (2, 1, 0)),
    ("3", (1, 2, 3)): ("1", (2, 3, 0)),
    ("4bar", (0, 1, 2)): ("c", (0, 2, 1)),
    ("4bar", (0, 1, 3)): ("b1*", (1, 3, 0)),
    ("4bar", (0, 2, 3)): ("6bar", (2, 3, 1)),
    ("4bar", (1, 2, 3)): ("p", (0, 3, 1)),
    ("6bar", (0, 1, 2)): ("3", (0, 1, 3)),
    ("6bar", (0, 1, 3)): ("c", (0, 2, 3)),
    ("6bar", (0, 2, 3)): ("p'", (1, 3, 2)),
    ("6bar", (1, 2, 3)): ("4bar", (3, 0, 2)),
    ("9", (0, 1, 2)): ("b2*", (2, 3, 0)),
    ("9", (0, 1, 3)): ("c", (1, 3, 2)),
    ("9", (0, 2, 3)): ("p", (3, 2, 0)),
    ("9", (1, 2, 3)): ("p'", (0, 1, 3)),
    ("c", (0, 1, 2)): ("4bar", (0, 2, 1)),
    ("c", (0, 1, 3)): ("3", (2, 0, 1)),
    ("c", (0, 2, 3)): ("6bar", (0, 1, 3)),
    ("c", (1, 2, 3)): ("9", (0, 3, 1)),
    ("b1*", (0, 1, 2)): ("1", (2, 0, 1)),
    ("b1*", (0, 1, 3)): ("4bar", (3, 0, 1)),
    ("b1*", (0, 2, 3)): ("b2*", (0, 2, 1)),
    ("b2*", (0, 1, 2)): ("b1*", (0, 3, 2)),
    ("b2*", (0, 1, 3)): ("1", (3, 0, 1)),
    ("b2*", (0, 2, 3)): ("9", (2, 0, 1)),
}
RAW_TET_ORDER = ("p", "p'", "1", "3", "4bar", "6bar", "9", "c", "b1*", "b2*")


# ---------------------------------------------------------------------------
# One-tetrahedron gluings.

def one_tet_two_face_gluings():
    """Every gluing of one tetrahedron's face to another, up to reciprocity."""
    faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    seen = set()
    out = []
    for fa in faces:
        for fb in faces:
            if fa == fb:
                continue
            for img in permutations(fb):
                back = {b: a for a, b in zip(fa, img)}
                recip = (fb, tuple(back[x] for x in fb))
                key = min((fa, img), recip)
                if key in seen:
                    continue
                seen.add(key)
                out.append(("s", fa, "s", img))
    assert len(out) <= 36
    return out


def one_tet_closed_gluings():
    """Every closed one-tetrahedron triangulation, labelled: each of the
    three pairings of the four faces, with each of the six vertex maps
    on each pair, as a pair of gluing records."""
    faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    out = []
    for fb, fc, fd in ((1, 2, 3), (2, 1, 3), (3, 1, 2)):
        for img in permutations(faces[fb]):
            for img2 in permutations(faces[fd]):
                out.append([("t", faces[0], "t", img),
                            ("t", faces[fc], "t", img2)])
    assert len(out) == 108
    return out


# What h1 makes of one_tet_closed_gluings, counted by outcome: refused as
# an invalid triangulation (TriangulationError) for an edge class glued to
# itself reversed, or (HomologyError) for an edge class with both ends at
# non-material vertex classes, else by torsion (no gluing has free rank):
# S^3, L(4,1) and L(5,2).
ONE_TET_CLOSED_CENSUS = {"glued to itself reversed": 69,
                         "both ends at non-material": 12,
                         (): 15, (4,): 6, (5,): 6}


# ---------------------------------------------------------------------------
# One-tetrahedron solid torus: frozen facts from the exhaustive search
# over all two-face self-gluings (rerun by test_detect).
SOLID_TORUS_RECORD = ("s", (0, 1, 2), "s", (1, 3, 0))
SOLID_TORUS_FUNDAMENTALS = {
    (0, 0, 0, 0, 0, 0, 1): "mobius band",
    (0, 0, 1, 1, 0, 1, 0): "meridian disk",
    (1, 1, 0, 0, 1, 0, 0): "annulus",
    (1, 1, 1, 1, 0, 0, 0): "vertex-link disk",
}
SOLID_TORUS_MERIDIAN = (0, 0, 1, 1, 0, 1, 0)
