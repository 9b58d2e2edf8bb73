"""Top-level decision procedures built on fundamental surface search.

A two-component link is split exactly when the manifold contains an
embedded sphere with the components on opposite sides. Whenever such a
sphere exists, a fundamental one does too, so the check is finite:
restrict the matching system so surfaces stay off the link, enumerate
the admissible fundamental solutions, and scan them for a connected
closed surface of Euler characteristic 2 that separates the components.
Finding one proves SPLIT; exhausting the list proves NOT_SPLIT.

Unknot detection reduces to the split question. A knot is trivial
exactly when the two-component link formed by the knot and a parallel
copy with zero framing (a 0-pushoff, a parallel loop that is
null-homologous in the knot complement) is split. The framing matters:
with any other framing the two components link, and the pair is
non-split even for a trivial knot, so a KNOTTED verdict would be
unsound. unknot_via_pushoff therefore refuses to run until the pushoff
has been verified null-homologous or the caller explicitly waives the
check and takes responsibility for the framing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import HomologyError, ResourceLimitExceeded, TriangulationError
from .hilbert import DEFAULT_MAX_CANDIDATES, FundamentalSet, enumerate_fundamental
from .homology import verify_zero_pushoff
from .matching import (BLOCK, NormalVector, _arcs, _crossing,
                       euler_coefficients, restrict_to_link)
from .surface import analyze, separates
from .triangulation import (EdgeCycle, LinkComponent, LinkSpec, Triangulation,
                            omitted_vertex, resolve_link)

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
    link components. searched_count is the number of admissible
    fundamental surfaces examined. diagnostics carries the resource
    report for UNKNOWN verdicts.
    """

    answer: str
    witness: Optional[NormalVector]
    searched_count: int
    diagnostics: Optional[str] = None


def _is_splitting_sphere(tri: Triangulation, v: NormalVector,
                         link: LinkSpec) -> bool:
    """Does v describe a connected closed sphere separating the link?"""
    report = analyze(tri, v)
    if not (report.closed and report.components == 1 and report.euler == 2):
        return False
    return separates(tri, v, link)


class _Screen:
    """Linear tests that rule a surface out before analyze runs.

    On an admissible solution v, analyze(tri, v).euler is euler . v
    (matching.euler_coefficients), and the surface is closed exactly
    when v is zero on boundary_meeting_variables(tri). admits(v, chi,
    closed) is False only when those settle that the report differs in
    chi or closedness, so callers skip analyze for v with no change in
    outcome. A vector crossing an edge class glued to itself reversed
    is always admitted, so that analyze still raises
    TriangulationError on it.
    """

    def __init__(self, tri: Triangulation):
        self.euler = euler_coefficients(tri)
        self.boundary = sorted(boundary_meeting_variables(tri))
        self.inverted = sorted({
            BLOCK * t + k
            for ec in tri.skeleton.edge_classes if ec.inverted
            for t, (a, b) in ec.members for k in _crossing(a, b)})

    def admits(self, v: NormalVector, chi: int, closed: bool) -> bool:
        if any(v[i] for i in self.inverted):
            return True
        return (sum(c * x for c, x in zip(self.euler, v)) == chi
                and closed != any(v[i] for i in self.boundary))


def split_link_check(
    tri: Triangulation,
    link: LinkSpec,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    time_budget: Optional[float] = None,
) -> Verdict:
    """Decide whether a two-component link is split.

    Enumerates the admissible fundamental solutions of the matching
    system restricted to surfaces disjoint from the link, in ascending
    lexicographic order, and returns SPLIT with the first witness that
    is closed, connected, has Euler characteristic 2, and separates the
    two components. Exhausting the list without a witness proves
    NOT_SPLIT, because a split link always admits a fundamental
    splitting sphere. If enumeration overruns max_candidates or
    time_budget the verdict is UNKNOWN with diagnostics: an incomplete
    scan proves nothing either way. Every scanned vector counts in
    searched_count, but analyze runs only on those that miss the
    boundary and whose Euler characteristic, linear in the vector, is 2.

    Raises TriangulationError when the triangulation is invalid or the
    link does not resolve to exactly two disjoint components.
    """
    resolve_link(tri, link)  # restrict_to_link takes any component count
    restricted = restrict_to_link(tri.matching_system, tri, link)
    try:
        fs = enumerate_fundamental(
            restricted, max_candidates=max_candidates,
            time_budget=time_budget, admissible_only=True)
    except ResourceLimitExceeded as exc:
        return Verdict(
            answer=UNKNOWN, witness=None, searched_count=0,
            diagnostics=(
                f"fundamental enumeration exceeded its budget after "
                f"{exc.candidates} candidates: {exc}"))
    screen = _Screen(tri)
    searched = 0
    for v in fs.vectors:
        searched += 1
        if (screen.admits(v, 2, closed=True)
                and _is_splitting_sphere(tri, v, link)):
            return Verdict(answer=SPLIT, witness=v, searched_count=searched)
    return Verdict(answer=NOT_SPLIT, witness=None, searched_count=searched)


def _require_null_pushoff(tri: Triangulation, pushoff: LinkComponent,
                          homology_tri: Optional[Triangulation]) -> None:
    """Verify the pushoff bounds in homology, or explain how to proceed.

    Verification runs on homology_tri when given, else on tri itself.
    Passing the uncapped complement as homology_tri is the usual route
    when tri is a closed extension whose cone vertices would distort
    (or, in strict mode, block) the homology computation.
    """
    if not isinstance(pushoff, EdgeCycle):
        raise HomologyError(
            "cannot verify that an ideal-vertex pushoff is "
            "null-homologous; pass waive_pushoff_check=True to proceed "
            "with an unverified pushoff")
    target = homology_tri if homology_tri is not None else tri
    try:
        ok = verify_zero_pushoff(target, pushoff)
    except HomologyError as exc:
        raise HomologyError(
            f"could not verify the pushoff is null-homologous: {exc} "
            "(verify on a bounded complement via homology_tri=..., or "
            "pass waive_pushoff_check=True)") from exc
    if not ok:
        raise HomologyError(
            "pushoff is not null-homologous, so it is not a 0-framed "
            "parallel copy; a KNOTTED verdict from it would be unsound. "
            "Supply a null-homologous pushoff, or pass "
            "waive_pushoff_check=True to take responsibility for the "
            "framing")


def unknot_via_pushoff(
    tri: Triangulation,
    knot: LinkComponent,
    pushoff: LinkComponent,
    *,
    waive_pushoff_check: bool = False,
    homology_tri: Optional[Triangulation] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    time_budget: Optional[float] = None,
) -> Verdict:
    """Decide knottedness by splitting the knot from its 0-pushoff.

    The knot is trivial exactly when the two-component link (knot,
    0-pushoff) is split, so this wraps split_link_check and renames the
    verdict: SPLIT becomes UNKNOTTED, NOT_SPLIT becomes KNOTTED, UNKNOWN
    stays UNKNOWN. The conclusion is only sound for a 0-framed pushoff,
    so unless waive_pushoff_check is set, the pushoff must first pass
    verify_zero_pushoff on homology_tri (or on tri when homology_tri is
    omitted); failure raises HomologyError.
    """
    if not waive_pushoff_check:
        _require_null_pushoff(tri, pushoff, homology_tri)
    verdict = split_link_check(
        tri, LinkSpec(components=(knot, pushoff)),
        max_candidates=max_candidates, time_budget=time_budget)
    mapping = {SPLIT: UNKNOTTED, NOT_SPLIT: KNOTTED, UNKNOWN: UNKNOWN}
    return replace(verdict, answer=mapping[verdict.answer])


def boundary_meeting_variables(tri: Triangulation) -> frozenset[int]:
    """Indices of disk-type variables whose disks touch the boundary.

    These are the types leaving an arc at some corner of a boundary
    face: the triangles at its three corners and, since a quadrilateral
    leaves an arc on all four faces of its tetrahedron, all three quad
    types.
    """
    return frozenset(
        BLOCK * t + k for t, face in tri.boundary_facets() for x in face
        for k in _arcs(x, omitted_vertex(face)))


def filter_unknotting_disks(
    tri: Triangulation,
    fs: FundamentalSet,
    longitude_pattern: Iterable[int],
) -> list[NormalVector]:
    """Fundamental disks whose boundary stays inside a permitted pattern.

    Keeps the vectors that describe a single disk (one component, Euler
    characteristic 1, exactly one boundary circle) and whose
    boundary-meeting variables are zero outside longitude_pattern, the
    caller-supplied set of variable indices allowed to carry the disk's
    boundary curve. Raises TriangulationError when the triangulation is
    closed, since then no properly embedded disk with boundary exists.
    """
    tri.require_valid()
    if not tri.boundary_facets():
        raise TriangulationError(
            "triangulation is closed: no boundary for a disk to end on")
    allowed = frozenset(longitude_pattern)
    banned = boundary_meeting_variables(tri) - allowed
    screen = _Screen(tri)
    disks = []
    for v in fs.vectors:
        if (any(v[i] for i in banned)
                or not screen.admits(v, 1, closed=False)):
            continue
        report = analyze(tri, v)
        if (report.euler == 1 and report.components == 1
                and not report.closed and report.boundary_circles == 1):
            disks.append(v)
    return disks
