"""Top-level decision procedures built on fundamental surface search.

A two-component link is split exactly when the manifold contains an
embedded sphere with the components on opposite sides. Whenever such a
sphere exists, a fundamental one does too, so the check is finite:
restrict the matching system so surfaces stay off the link, enumerate
the admissible fundamental solutions, and scan them for a connected
closed surface of Euler characteristic 2 that separates the components.
Finding one proves SPLIT; exhausting the list proves NOT_SPLIT.

Both decisions scan admissible solutions through one screen
(`_screened`): a surface's Euler characteristic and closedness are
linear in its vector, so they rule vectors out before analyze runs.
The split check reads one generator (hilbert._admissible_stages): it
scans the vertex solutions of the double description first, and
resumes for the fundamental solutions only when none of them splits
(split_link_check); the disk filter scans the fundamental solutions.

The paper's two unknot algorithms are unknot_via_pushoff and
filter_unknotting_disks. The first uses that a knot is trivial exactly
when it is split from a parallel copy with zero framing (a 0-pushoff);
with any other framing the two link even for a trivial knot. It reads
that copy off the knot's cusp torus (_zero_pushoff). The second uses
that a knot is trivial exactly when its complement has a compressing
disk, and then a fundamental one (Haken 1961).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Container, Iterable, Iterator, Optional

from .curves2d import curve_components
from .errors import ResourceLimitExceeded, TriangulationError
from .hilbert import (DEFAULT_MAX_CANDIDATES, _Budget, _admissible_stages,
                      enumerate_fundamental)
from .homology import h1
from .matching import (BLOCK, NormalVector, boundary_meeting_variables,
                       restrict_to_link)
from .surface import SurfaceReport, analyze, separates
from .triangulation import (EdgeCycle, IdealVertex, LinkComponent, LinkSpec,
                            Triangulation, resolve_link)

SPLIT = "SPLIT"
NOT_SPLIT = "NOT_SPLIT"
UNKNOTTED = "UNKNOTTED"
KNOTTED = "KNOTTED"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    answer is SPLIT/NOT_SPLIT for the split-link check, or
    UNKNOTTED/KNOTTED for the unknot check, or UNKNOWN when enumeration
    hit its resource budget before the scan could be exhaustive.
    witness is present exactly when the answer is SPLIT or UNKNOTTED:
    the splitting sphere, re-verified to be an admissible solution that
    is closed, connected, has Euler characteristic 2, and separates the
    link components. It is the lexicographically first splitting vertex
    solution when one exists, and otherwise the first splitting
    fundamental solution.

    searched_count counts the surfaces examined, in the order scanned:
      - SPLIT from a vertex solution: the vertex solutions up to and
        including the witness;
      - SPLIT from the fundamental scan: the fundamental solutions up to
        and including the witness;
      - NOT_SPLIT: all the admissible fundamental solutions;
      - UNKNOWN: 0 when the double description ran out of budget, and
        all the vertex solutions, none of them splitting, when the face
        stage did.
    diagnostics carries the resource report for UNKNOWN verdicts, and
    names the stage that ran out.
    """

    answer: str
    witness: Optional[NormalVector]
    searched_count: int
    diagnostics: Optional[str] = None


def _screened(tri: Triangulation, vectors: Iterable[NormalVector],
              chi: int, closed: bool, skip: Container[NormalVector] = ()
              ) -> Iterator[tuple[int, NormalVector, SurfaceReport]]:
    """(position, v, analyze(tri, v)) for each v, all admissible, that
    may carry a surface of Euler characteristic chi, closed or not as
    asked: analyze's euler is the Euler form times v, and the surface is
    closed exactly when v is zero on boundary_meeting_variables. The
    form is exact because a valid triangulation glues no edge class to
    itself reversed (`euler_coefficients`). Vectors in skip, which an
    earlier scan has ruled out, keep their positions but are not
    analyzed."""
    euler = tri.euler_coefficients
    boundary = sorted(boundary_meeting_variables(tri))
    for position, v in enumerate(vectors):
        if (v not in skip and sum(c * x for c, x in zip(euler, v)) == chi
                and closed != any(v[i] for i in boundary)):
            yield position, v, analyze(tri, v)


def split_link_check(
    tri: Triangulation,
    link: LinkSpec,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    time_budget: Optional[float] = None,
) -> Verdict:
    """Decide whether a two-component link is split.

    Searches the admissible solutions of the matching system restricted
    to surfaces disjoint from the link for a splitting sphere: a
    connected closed surface of Euler characteristic 2 that separates
    the two components. One loop scans the two stages that hilbert's
    admissible search yields (_admissible_stages), on one budget:
      - The vertex stage runs the double description once per summand.
        Its vertex solutions are scanned in ascending lexicographic
        order, and the first splitting sphere among them is returned as
        SPLIT. Each is the primitive vector of an admissible ray; an
        extreme ray's is fundamental, and a witness from any other ray
        the block pruning keeps is sound too, as every witness is
        re-verified.
      - Only when none splits does the face stage run, on the same rays,
        and the admissible fundamental solutions are scanned in
        ascending lexicographic order, each vertex solution met again
        passed over unanalyzed. The first splitting sphere is SPLIT;
        exhausting the list proves NOT_SPLIT, because a split link
        always admits a fundamental splitting sphere.
    If either stage overruns max_candidates or time_budget the verdict
    is UNKNOWN, with diagnostics that name the stage by how many stages
    finished: an incomplete scan proves nothing either way. analyze runs
    only on vectors that miss the boundary and whose Euler
    characteristic, linear in the vector, is 2.

    Raises TriangulationError when the triangulation is invalid or the
    link does not resolve to exactly two disjoint components.
    """
    resolve_link(tri, link)  # restrict_to_link takes any component count
    restricted = restrict_to_link(tri.matching_system, tri, link)
    budget = _Budget(max_candidates, time_budget)
    scanned: list[list[NormalVector]] = []  # stages without a witness
    try:
        for vectors in _admissible_stages(restricted, budget):
            skip = set(scanned[-1] if scanned else ())
            for position, v, report in _screened(tri, vectors, 2, True, skip):
                if (report.closed and report.components == 1
                        and report.euler == 2 and separates(tri, v, link)):
                    return Verdict(answer=SPLIT, witness=v,
                                   searched_count=position + 1)
            scanned.append(vectors)
    except ResourceLimitExceeded as exc:
        searched = len(scanned[0]) if scanned else 0
        overrun = f"exceeded its budget after {exc.candidates} candidates"
        return Verdict(
            answer=UNKNOWN, witness=None, searched_count=searched,
            diagnostics=(
                f"none of the {searched} vertex solutions splits; the face "
                f"stage {overrun}: {exc}" if scanned else
                f"the vertex stage (double description) {overrun}, before "
                f"any surface was scanned: {exc}"))
    return Verdict(answer=NOT_SPLIT, witness=None,
                   searched_count=len(scanned[-1]))


def _zero_pushoff(tri: Triangulation, knot: LinkComponent) -> EdgeCycle:
    """The knot's 0-pushoff: the edge of its cusp torus null in h1.

    The knot must be an ideal vertex off the boundary, with two corners
    and a link of Euler characteristic 0, assumed orientable, not
    checked: a torus of two triangles, whose one vertex and three edges
    lie on the faces opposite the knot. Each edge is essential, and the
    one null in the exterior is the preferred longitude (Rolfsen, Knots
    and Links, 1976). Any other knot raises TriangulationError before h1
    runs, and so, after it, does a count of null edges other than 1. h1
    refuses a tetrahedron meeting the vertex twice with HomologyError.
    """
    (resolved,) = resolve_link(tri, LinkSpec(components=(knot,)),
                               require_two_components=False)
    skel, chi = tri.skeleton, tri.euler_coefficients
    vc = skel.vertex_classes[min(resolved.vertex_classes)]  # one if a vertex
    if (not isinstance(knot, IdealVertex) or vc.boundary or vc.degree != 2
            or sum(chi[BLOCK * t + v] for t, v in vc.members)):
        raise TriangulationError("the knot must be an ideal vertex whose "
                                 "link is a torus of two triangles")
    summary = h1(tri)
    # each edge class of the faces opposite the vertex, with a step on it
    steps = {skel.edge_class_of[t, edge]: (tri.name(t), edge)
             for t, v in vc.members
             for edge in combinations([x for x in range(4) if x != v], 2)}
    null = [step for c, step in steps.items()
            if summary.class_of({c: 1}).is_null]
    if len(null) != 1:
        raise TriangulationError(f"{len(null)} of the {len(steps)} edges of "
                                 "the knot's link torus are null, not 1")
    return EdgeCycle(edges=(null[0],))


def unknot_via_pushoff(
    tri: Triangulation,
    knot: LinkComponent,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    time_budget: Optional[float] = None,
) -> Verdict:
    """Decide knottedness by splitting the knot from its 0-pushoff.

    The knot is trivial exactly when the two-component link (knot,
    0-pushoff) is split, so this wraps split_link_check and renames the
    verdict: SPLIT becomes UNKNOTTED, NOT_SPLIT becomes KNOTTED, UNKNOWN
    stays UNKNOWN. _zero_pushoff finds the 0-pushoff or refuses the knot.
    """
    verdict = split_link_check(
        tri, LinkSpec(components=(knot, _zero_pushoff(tri, knot))),
        max_candidates=max_candidates, time_budget=time_budget)
    mapping = {SPLIT: UNKNOTTED, NOT_SPLIT: KNOTTED, UNKNOWN: UNKNOWN}
    return replace(verdict, answer=mapping[verdict.answer])


def filter_unknotting_disks(tri: Triangulation) -> list[NormalVector]:
    """Fundamental disks whose boundary does not separate the boundary.

    Enumerates the admissible fundamental surfaces of tri and keeps
    those that are a single disk (one component, Euler characteristic
    1, one boundary circle) whose boundary curve, as `analyze` reads
    it, leaves `tri.boundary_surface` in as many pieces as the uncut
    surface has. A simple closed curve on a torus is essential exactly
    when it does not separate, so on a torus boundary these are exactly
    the fundamental compressing disks. On other boundaries every kept
    disk compresses, but one with a separating essential boundary
    (genus >= 2) is not found. Raises TriangulationError when the
    triangulation is invalid or closed, and ResourceLimitExceeded when
    enumeration overruns its default candidate cap.
    """
    tri.require_valid()
    if not tri.boundary_facets():
        raise TriangulationError(
            "triangulation is closed: no boundary for a disk to end on")
    fs = enumerate_fundamental(tri.matching_system, admissible_only=True)

    def pieces(v: NormalVector) -> int:
        curve = [sum(v[i] for i in arc)
                 for arc in tri.boundary_arc_variables]
        return curve_components(tri.boundary_surface, curve, parity=0)

    uncut = pieces((0,) * tri.matching_system.variable_count)
    return [v for _, v, report in _screened(tri, fs.vectors, 1, closed=False)
            if (report.euler, report.components, report.closed,
                report.boundary_circles) == (1, 1, False, 1)
            and pieces(v) == uncut]
