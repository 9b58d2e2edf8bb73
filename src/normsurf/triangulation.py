"""Simplices glued along facets: 3D triangulations and their skeletons.

`Gluing` holds what a triangulated 3-manifold and a triangulated
surface share: a list of named simplices together with a partial
gluing map on facets. A facet is named by its simplex and the ordered
tuple of vertex labels it spans; a gluing record `A(abc) -> B(xyz)`
identifies the two facets by the vertex bijection a->x, b->y, c->z.
Unglued facets form the boundary. The base class does the record
checks, accessors, interior pairs, connectivity, validation, equality
and the JSON codec for any dimension; `Triangulation` (tetrahedra glued
along faces) and `curves2d.SurfaceTriangulation` (triangles glued along
edges) set only the dimension, the nouns in messages and the JSON keys.
`Gluing.join_stacks` is the one place that matches normal pieces (3D
disks in `surface`, 2D arcs in `curves2d`) across glued facets.

A gluing never changes after construction, so the data derived from it
is computed at most once per object and kept: its validation result,
and for a `Triangulation` its skeleton, its matching system and its
`boundary_surface`.

The skeleton computation closes vertices and edges under the gluing
orbits, producing the vertex classes and edge classes of the underlying
cell complex, and refuses an edge class glued to itself reversed.
The aliases `tetrahedra`, `tet_count`, the ignored constructor keyword
`infer_reciprocals` and, on surfaces, `triangle_count`,
`boundary_edges` and `format_edge` are kept only for the benchmark
scripts; the package uses the `Gluing` names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from .errors import TriangulationError
from .union_find import UnionFind

if TYPE_CHECKING:
    from .curves2d import SurfaceTriangulation
    from .matching import MatchingSystem

Face = tuple[int, int, int]
Edge = tuple[int, int]
Spot = tuple[int, tuple[int, ...]]

FACES: tuple[Face, ...] = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

GluingRecord = tuple[str, Sequence[int], str, Sequence[int]]

# Per facet size: the count and the tuple word used in label messages.
_LABEL_WORDS = {2: ("two", "pair"), 3: ("three", "triple")}


def face_omitting(d: int) -> Face:
    """The sorted face triple not containing vertex d."""
    return tuple(v for v in range(4) if v != d)  # type: ignore[return-value]


def omitted_vertex(face: Face) -> int:
    return 6 - sum(face)


def corner_stack(regions: list, pieces: list) -> list:
    """A corner stack: regions at the even entries, with the normal
    piece parting consecutive regions between them."""
    out = regions + pieces
    out[::2], out[1::2] = regions, pieces
    return out


def _is_label(x) -> bool:
    """A vertex label is a plain int; floats, strings and bools are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TriangulationError(
            f"syntax error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, or an over-long integer literal
        raise TriangulationError(f"unreadable JSON: {exc}") from None


def _only_keys(obj: dict, keys: Iterable[str], what: str) -> None:
    """A misspelt key must not read as a missing optional one."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise TriangulationError(f"unknown keys {unknown} in {what}")


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Gluing:
    """Immutable gluing data for a set of simplices of one dimension.

    A gluing may be listed from either or both sides: each record is
    completed with its inverse, so the gluing map is an involution once
    built. The constructor refuses a malformed record (an unknown name,
    a bad label tuple) and one that conflicts with another record or
    with another record's inverse. What it lets through, a facet glued
    to itself or a non-manifold skeleton, `validate` reports, so that
    such inputs can be examined. `infer_reciprocals` is ignored (see
    the module docstring).

    Subclasses set DIM (vertex labels run 0..DIM, a facet has DIM of
    them), FACETS (the sorted facets of one simplex), the nouns used in
    messages and the JSON keys.
    """

    DIM: int
    FACETS: tuple[tuple[int, ...], ...]
    NOUN: str        # one simplex, e.g. "tetrahedron"
    FACET: str       # one facet, e.g. "face"
    KIND: str        # the whole object, e.g. "triangulation"
    JSON_KEYS: tuple[str, str, str]  # simplex list, simplex, facet

    def __init__(
        self,
        names: Sequence[str],
        gluings: Iterable[GluingRecord] = (),
        *,
        infer_reciprocals: bool = True,
        metadata: Optional[Mapping] = None,
    ):
        names = tuple(names)
        if not all(isinstance(n, str) and n for n in names):
            raise TriangulationError(
                f"{self.NOUN} names must be nonempty strings")
        if len(set(names)) != len(names):
            raise TriangulationError(f"{self.NOUN} names must be unique")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self.metadata = dict(metadata) if metadata else {}
        # Directed map: (simplex, sorted facet) -> (simplex, image labels
        # aligned with the sorted source facet).
        self._glue: dict[Spot, tuple[int, tuple[int, ...]]] = {}
        for simplex, facet, to_simplex, verts in gluings:
            self._add_record(simplex, facet, to_simplex, verts)
        for (i, facet), (j, image) in list(self._glue.items()):
            back_facet = tuple(sorted(image))
            back_image = tuple(facet[image.index(v)] for v in back_facet)
            self._add_record(
                self.names[j], back_facet, self.names[i], back_image)

    def _check_labels(self, labels: Sequence[int], what: str
                      ) -> tuple[int, ...]:
        try:
            t = tuple(labels)
        except TypeError:  # not a sequence at all, e.g. a bare number
            t = labels
        if (not isinstance(t, tuple) or len(t) != self.DIM
                or not all(_is_label(v) and 0 <= v <= self.DIM for v in t)
                or len(set(t)) != self.DIM):
            count = _LABEL_WORDS[self.DIM][0]
            raise TriangulationError(
                f"{what} must be {count} distinct vertex labels in "
                f"0..{self.DIM}, got {t!r}")
        return t

    def _add_record(self, simplex: str, facet, to_simplex: str,
                    verts) -> None:
        for name in (simplex, to_simplex):
            if not isinstance(name, str) or name not in self._index:
                raise TriangulationError(
                    f"unknown {self.NOUN} name {name!r}")
        facet = self._check_labels(facet, self.FACET)
        verts = self._check_labels(
            verts, f"glued vertex {_LABEL_WORDS[self.DIM][1]}")
        order = sorted(range(self.DIM), key=lambda k: facet[k])
        key: Spot = (self._index[simplex], tuple(facet[k] for k in order))
        value = (self._index[to_simplex], tuple(verts[k] for k in order))
        existing = self._glue.get(key)
        if existing is not None and existing != value:
            raise TriangulationError(
                f"duplicate gluing for {self.FACET} {self.format_spot(*key)}: "
                f"{self.format_spot(*existing)} conflicts with "
                f"{self.format_spot(*value)}")
        self._glue[key] = value

    # -- basic accessors ------------------------------------------------

    @property
    def size(self) -> int:
        """Number of simplices."""
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise TriangulationError(
                f"unknown {self.NOUN} name {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def glued_to(self, simplex: int, facet: Sequence[int]
                 ) -> Optional[tuple[int, tuple[int, ...]]]:
        """Target of a facet, as (simplex index, image labels aligned
        with the sorted facet), or None for a boundary facet."""
        return self._glue.get((simplex, tuple(sorted(facet))))

    def facet_spots(self) -> list[Spot]:
        return [(i, f) for i in range(self.size) for f in self.FACETS]

    def boundary_facets(self) -> list[Spot]:
        return [spot for spot in self.facet_spots() if spot not in self._glue]

    def interior_pairs(self) -> tuple[tuple[Spot, Spot, dict[int, int]], ...]:
        """One entry per interior facet class, in first-seen file order.

        Each entry is (source spot, target spot, vertex bijection on the
        source facet). The source is the earlier (simplex, facet) in
        simplex/file order, so generated equation order is reproducible.
        A gluing never changes after construction, so the entries are
        built once per object; callers must not modify them.
        """
        return self._interior_pairs

    @cached_property
    def _interior_pairs(self) -> tuple[tuple[Spot, Spot, dict[int, int]], ...]:
        seen: set[Spot] = set()
        pairs = []
        for spot in self.facet_spots():
            if spot in seen or spot not in self._glue:
                continue
            j, image = self._glue[spot]
            target: Spot = (j, tuple(sorted(image)))
            seen.add(spot)
            seen.add(target)
            pairs.append((spot, target, dict(zip(spot[1], image))))
        return tuple(pairs)

    def join_stacks(self, stacks: Mapping[tuple, Sequence], parity: int
                    ) -> UnionFind:
        """The stack entries of one parity, joined across every interior
        facet: parity 1 joins normal pieces, parity 0 regions.

        stacks maps every (simplex, corner, sorted facet) to what a walk
        from that corner across the facet meets (`corner_stack`). Glued
        corners meet the same pieces in the same order, so their stacks
        are matched entry for entry.
        """
        cells = UnionFind(e for s in stacks.values() for e in s[parity::2])
        for (i, fa), (j, fb), vmap in self.interior_pairs():
            for x in fa:
                for a, b in zip(stacks[i, x, fa][parity::2],
                                stacks[j, vmap[x], fb][parity::2]):
                    cells.union(a, b)
        return cells

    def is_connected(self) -> bool:
        uf = UnionFind(range(self.size))
        for (i, _), (j, _), _ in self.interior_pairs():
            uf.union(i, j)
        return len({uf.find(i) for i in range(self.size)}) <= 1

    # -- validity ---------------------------------------------------------

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(validate(self))

    def require_valid(self) -> None:
        """Raise TriangulationError listing the violations `validate`
        finds, if any. They are looked for once per object."""
        if self._problems:
            raise TriangulationError(
                f"invalid {self.KIND}: " + "; ".join(self._problems))

    # -- display and JSON -----------------------------------------------

    def format_spot(self, simplex: int, verts: Sequence[int]) -> str:
        return f"{self.names[simplex]}({''.join(map(str, verts))})"

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.names == other.names
                and self._glue == other._glue)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self.names)} "
                f"{self.JSON_KEYS[0]}, {len(self._glue)} directed gluings)")

    @classmethod
    def from_json(cls, text: str):
        """Read the JSON format. A gluing may be listed from either or
        both sides; missing reciprocals are inferred, conflicting ones
        rejected."""
        doc = _load_json(text)
        if not isinstance(doc, dict):
            raise TriangulationError("top-level value must be an object")
        plural, simplex, facet = cls.JSON_KEYS
        _only_keys(doc, (plural, "gluings", "metadata"), f"{cls.KIND} file")
        names = doc.get(plural)
        if not isinstance(names, list) or not names:
            raise TriangulationError(
                f'"{plural}" must be a nonempty list of names')
        gluings_doc = doc.get("gluings", [])
        if not isinstance(gluings_doc, list):
            raise TriangulationError('"gluings" must be a list')
        records = []
        for k, rec in enumerate(gluings_doc):
            try:
                to = rec["to"]
                records.append(
                    (rec[simplex], rec[facet], to[simplex], to["verts"]))
            except (TypeError, KeyError):
                raise TriangulationError(
                    f"gluing record {k} is malformed; expected "
                    f'{{"{simplex}", "{facet}", '
                    f'"to": {{"{simplex}", "verts"}}}}') from None
            _only_keys(rec, (simplex, facet, "to"), f"gluing record {k}")
            _only_keys(to, (simplex, "verts"), f'"to" of gluing record {k}')
        metadata = doc.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise TriangulationError('"metadata" must be an object')
        return cls(names, records, metadata=metadata)

    def to_json(self) -> str:
        """Write the JSON format; both directions of each gluing are
        listed."""
        plural, simplex, facet = self.JSON_KEYS
        gluings = []
        for i, f in self.facet_spots():
            target = self._glue.get((i, f))
            if target is not None:
                gluings.append({
                    simplex: self.names[i],
                    facet: list(f),
                    "to": {simplex: self.names[target[0]],
                           "verts": list(target[1])},
                })
        doc: dict = {plural: list(self.names), "gluings": gluings}
        if self.metadata:
            doc["metadata"] = self.metadata
        return _dump_json(doc)


def validate(gluing: Gluing) -> list[str]:
    """Check a gluing; return a list of violations (empty = OK).

    Violations checked: a facet glued to itself. On a Triangulation
    without one, `compute_skeleton` then refuses an edge class glued to
    itself reversed, which no 3-manifold has (Burton, "Computational
    topology with Regina", 2013): normal surface theory needs a
    manifold. Malformed and conflicting records, and so a gluing that
    is not an involution, cannot be represented and are constructor
    errors.
    """
    problems = [
        f"self-gluing: {gluing.FACET} {gluing.format_spot(i, facet)} "
        "is glued to itself"
        for (i, facet), (j, image) in gluing._glue.items()
        if (j, tuple(sorted(image))) == (i, facet)]
    if not problems and isinstance(gluing, Triangulation):
        try:
            gluing._unchecked_skeleton
        except TriangulationError as exc:
            problems.append(str(exc))
    return problems


class Triangulation(Gluing):
    """Tetrahedra glued in pairs along faces.

    Besides the shared gluing data it keeps, each computed on first use,
    its skeleton (`compute_skeleton`), its matching system
    (`matching.build_matching_system`), the linear forms that read a
    vector's Euler characteristic and boundary curve
    (`matching.euler_coefficients`, `matching.boundary_arc_variables`)
    and its `boundary_surface`.
    """

    DIM = 3
    FACETS = FACES
    NOUN, FACET, KIND = "tetrahedron", "face", "triangulation"
    JSON_KEYS = ("tetrahedra", "tet", "face")

    tetrahedra = property(lambda self: self.names)
    tet_count = Gluing.size

    @cached_property
    def skeleton(self) -> Skeleton:
        self.require_valid()
        return self._unchecked_skeleton

    @cached_property
    def _unchecked_skeleton(self) -> Skeleton:  # built by `validate`
        return compute_skeleton(self)

    @cached_property
    def matching_system(self) -> MatchingSystem:
        from . import matching  # matching imports this module
        return matching.build_matching_system(self)

    @cached_property
    def euler_coefficients(self) -> tuple[int, ...]:
        from . import matching
        return matching.euler_coefficients(self)

    @cached_property
    def boundary_arc_variables(self) -> tuple[tuple[int, ...], ...]:
        from . import matching
        return matching.boundary_arc_variables(self)

    @cached_property
    def boundary_surface(self) -> SurfaceTriangulation:
        """The boundary faces as a triangulated surface.

        Triangle k is the k-th of `boundary_facets`, named by its face
        ("p(012)"); its vertex label m is the face's m-th corner. Each
        boundary edge class lies on exactly two boundary faces, which
        are glued along it so that the class direction agrees.
        """
        from .curves2d import SurfaceTriangulation  # it imports this module
        skel = self.skeleton
        names, ends = [], {}
        for t, face in self.boundary_facets():
            names.append(self.format_spot(t, face))
            for a, b in SurfaceTriangulation.FACETS:
                edge = (face[a], face[b])
                ec = skel.edge_classes[skel.edge_class_of[t, edge]]
                head, tail = ec.directions[t, edge]
                ends.setdefault(ec.index, []).append(
                    (names[-1], (face.index(head), face.index(tail))))
        # a boundary edge class is a path of face gluings: two ends
        records = [(a, pair, b, image)
                   for (a, pair), (b, image) in ends.values()]
        return SurfaceTriangulation(names, records)


# -- skeleton ------------------------------------------------------------


@dataclass(frozen=True)
class VertexClass:
    index: int
    members: tuple[tuple[int, int], ...]
    boundary: bool

    @property
    def degree(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EdgeClass:
    """An edge of the glued complex.

    members lists (tet, sorted vertex pair). directions maps each member
    to the ordered pair that traverses the class in its reference
    direction (the sorted direction of the least member).
    """

    index: int
    members: tuple[tuple[int, Edge], ...]
    boundary: bool
    directions: dict[tuple[int, Edge], tuple[int, int]]

    @property
    def degree(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Skeleton:
    vertex_classes: tuple[VertexClass, ...]
    edge_classes: tuple[EdgeClass, ...]
    vertex_class_of: dict[tuple[int, int], int]
    edge_class_of: dict[tuple[int, Edge], int]


def compute_skeleton(tri: Triangulation) -> Skeleton:
    """Vertex and edge classes under the gluing orbits.

    Edge orbits are tracked on directed edges so each class gets a
    consistent orientation; a class that a gluing path maps onto itself
    reversed has none and raises TriangulationError naming a member.
    Gluings must be consistent (`validate`). Each Triangulation keeps
    the result as its `skeleton`.
    """
    corners = UnionFind((i, v) for i in range(tri.size) for v in range(4))
    directed = UnionFind()  # directed edges, added on first use

    for (i, face), (j, _), vmap in tri.interior_pairs():
        for v in face:
            corners.union((i, v), (j, vmap[v]))
        for u in face:
            for v in face:
                if u != v:
                    directed.union((i, (u, v)), (j, (vmap[u], vmap[v])))

    boundary_corners: set[tuple[int, int]] = set()
    boundary_edges: set[tuple[int, Edge]] = set()
    for (i, face) in tri.boundary_facets():
        for v in face:
            boundary_corners.add((i, v))
        for a in face:
            for b in face:
                if a < b:
                    boundary_edges.add((i, (a, b)))

    vertex_groups = sorted(corners.groups().values(), key=lambda g: g[0])
    vertex_classes = []
    vertex_class_of = {}
    for idx, members in enumerate(vertex_groups):
        vc = VertexClass(
            index=idx,
            members=tuple(members),
            boundary=any(m in boundary_corners for m in members))
        vertex_classes.append(vc)
        for m in members:
            vertex_class_of[m] = idx

    # An edge's class is named by the orbits of its two directions, one
    # orbit if it is glued to itself reversed. Edges are visited in
    # sorted order, so classes come out ordered by their least member.
    edge_groups: dict[frozenset, list[tuple[int, Edge]]] = {}
    for i in range(tri.size):
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            roots = frozenset((directed.find((i, (a, b))),
                               directed.find((i, (b, a)))))
            edge_groups.setdefault(roots, []).append((i, (a, b)))
    edge_classes = []
    edge_class_of = {}
    for idx, (roots, members) in enumerate(edge_groups.items()):
        if len(roots) == 1:
            raise TriangulationError(
                f"edge class of {tri.format_spot(*members[0])} is glued "
                "to itself reversed")
        forward = directed.find(members[0])
        directions = {
            (t, (a, b)): (a, b)
            if directed.find((t, (a, b))) == forward else (b, a)
            for t, (a, b) in members}
        ec = EdgeClass(
            index=idx,
            members=tuple(members),
            boundary=any(m in boundary_edges for m in members),
            directions=directions)
        edge_classes.append(ec)
        for m in members:
            edge_class_of[m] = idx

    return Skeleton(
        vertex_classes=tuple(vertex_classes),
        edge_classes=tuple(edge_classes),
        vertex_class_of=vertex_class_of,
        edge_class_of=edge_class_of)


# -- link specifications --------------------------------------------------


@dataclass(frozen=True)
class EdgeCycle:
    """A closed loop in the 1-skeleton, one directed edge per step.

    Each step names a representative (tetrahedron, ordered vertex pair);
    the edge class is resolved through the skeleton.
    """

    edges: tuple[tuple[str, tuple[int, int]], ...]


@dataclass(frozen=True)
class IdealVertex:
    """A link component represented by a single vertex class."""

    tet: str
    vertex: int


LinkComponent = Union[EdgeCycle, IdealVertex]


@dataclass(frozen=True)
class LinkSpec:
    components: tuple[LinkComponent, ...]


@dataclass(frozen=True)
class ResolvedComponent:
    """One link component resolved against a skeleton (see resolve_link)."""

    edges: tuple[tuple[int, int], ...]
    vertex_classes: frozenset[int]


def resolve_link(
    tri: Triangulation,
    link: LinkSpec,
    *,
    require_two_components: bool = True,
) -> tuple[ResolvedComponent, ...]:
    """Validate a link against a triangulation and resolve its classes.

    Returns one record per component, in input order. Its edges hold,
    per step of an EdgeCycle, the step's edge class index and sign: +1
    along the class's direction, -1 against it (empty for an
    IdealVertex). Its vertex_classes are the vertex classes the
    component meets.

    Checks: every reference names a real tetrahedron vertex or edge,
    every EdgeCycle closes up through the vertex classes, and components
    are disjoint (no shared edge or vertex class). With
    require_two_components, which a chain, a restriction or a knot turns off,
    the link has two components, and each EdgeCycle's steps use
    distinct edge and vertex classes.
    """
    skel = tri.skeleton
    if require_two_components and len(link.components) != 2:
        raise TriangulationError(
            f"link must have exactly 2 components, got {len(link.components)}")

    resolved = []
    for comp in link.components:
        if isinstance(comp, IdealVertex):
            t = tri.index(comp.tet)
            if not (_is_label(comp.vertex) and 0 <= comp.vertex <= 3):
                raise TriangulationError(
                    f"vertex label must be in 0..3, got {comp.vertex}")
            resolved.append(ResolvedComponent(
                (), frozenset({skel.vertex_class_of[(t, comp.vertex)]})))
        elif isinstance(comp, EdgeCycle):
            if not comp.edges:
                raise TriangulationError("edge cycle must be nonempty")
            edges = []
            heads = []
            tails = []
            for tet_name, (u, v) in comp.edges:
                t = tri.index(tet_name)
                if u == v or not all(_is_label(x) and 0 <= x <= 3
                                     for x in (u, v)):
                    raise TriangulationError(
                        f"bad edge reference {tet_name}({u}{v})")
                key = (t, (min(u, v), max(u, v)))
                ec = skel.edge_classes[skel.edge_class_of[key]]
                sign = 1 if ec.directions[key] == (u, v) else -1
                edges.append((ec.index, sign))
                tails.append(skel.vertex_class_of[(t, u)])
                heads.append(skel.vertex_class_of[(t, v)])
            n = len(comp.edges)
            for k in range(n):
                if heads[k] != tails[(k + 1) % n]:
                    raise TriangulationError(
                        "edge cycle does not close up: step "
                        f"{k} ends at vertex class {heads[k]} but step "
                        f"{(k + 1) % n} starts at {tails[(k + 1) % n]}")
            if require_two_components and n > min(
                    len(set(heads)), len({c for c, _ in edges})):
                raise TriangulationError("edge cycle is not a simple closed "
                                         "curve: it repeats a class")
            # closed up, so the heads are the tails
            resolved.append(ResolvedComponent(tuple(edges), frozenset(heads)))
        else:
            raise TriangulationError(f"unknown link component {comp!r}")

    for a, first in enumerate(resolved):
        for second in resolved[a + 1:]:
            if {c for c, _ in first.edges} & {c for c, _ in second.edges}:
                raise TriangulationError(
                    "link components are not disjoint: shared edge class")
            if first.vertex_classes & second.vertex_classes:
                raise TriangulationError(
                    "link components are not disjoint: shared vertex class")
    return tuple(resolved)


# -- serialization ---------------------------------------------------------


def parse_triangulation(text: str) -> Triangulation:
    """Read the JSON triangulation format.

    Shape: {"tetrahedra": ["p", ...], "gluings": [{"tet": "p",
    "face": [0,1,2], "to": {"tet": "3", "verts": [3,2,0]}}, ...]}.
    A gluing may be listed from either or both sides; missing reciprocals
    are inferred, conflicting ones rejected.
    """
    return Triangulation.from_json(text)


def serialize_triangulation(tri: Triangulation) -> str:
    """Write the JSON format; both directions of each gluing are listed."""
    return tri.to_json()


def _component_from_dict(obj) -> LinkComponent:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise TriangulationError(
            'each link component must be {"edgeCycle": [...]} or '
            '{"idealVertex": {...}}')
    if "edgeCycle" in obj:
        steps = obj["edgeCycle"]
        if not isinstance(steps, list) or not steps:
            raise TriangulationError('"edgeCycle" must be a nonempty list')
        edges = []
        for step in steps:
            try:
                tet, (u, v) = step["tet"], step["edge"]
            except (TypeError, KeyError, ValueError):
                raise TriangulationError(
                    f"bad edge cycle step {step!r}") from None
            if not (_is_label(u) and _is_label(v)):
                raise TriangulationError(f"bad edge cycle step {step!r}")
            _only_keys(step, ("tet", "edge"), f"edge cycle step {step!r}")
            edges.append((tet, (u, v)))
        return EdgeCycle(edges=tuple(edges))
    if "idealVertex" in obj:
        iv = obj["idealVertex"]
        try:
            comp = IdealVertex(tet=iv["tet"], vertex=iv["vertex"])
        except (TypeError, KeyError):
            raise TriangulationError(
                f"bad idealVertex component {iv!r}") from None
        if not _is_label(comp.vertex):
            raise TriangulationError(f"bad idealVertex component {iv!r}")
        _only_keys(iv, ("tet", "vertex"), f"idealVertex component {iv!r}")
        return comp
    raise TriangulationError(f"unknown link component keys {sorted(obj)}")


def _component_to_dict(comp: LinkComponent) -> dict:
    if isinstance(comp, IdealVertex):
        return {"idealVertex": {"tet": comp.tet, "vertex": comp.vertex}}
    return {"edgeCycle": [
        {"tet": tet, "edge": [u, v]} for tet, (u, v) in comp.edges]}


def parse_link(text: str) -> LinkSpec:
    """Read the JSON link format: {"components": [component, ...]}."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "components" not in doc:
        raise TriangulationError('link file must be {"components": [...]}')
    _only_keys(doc, ("components",), "link file")
    comps = doc["components"]
    if not isinstance(comps, list):
        raise TriangulationError('"components" must be a list')
    return LinkSpec(components=tuple(_component_from_dict(c) for c in comps))


def serialize_link(link: LinkSpec) -> str:
    return _dump_json(
        {"components": [_component_to_dict(c) for c in link.components]})


def parse_link_component(text: str) -> LinkComponent:
    """Read a standalone component file, one component as a link file
    lists it: {"edgeCycle": [...]} or {"idealVertex": {...}}. A cycle,
    such as a pushoff, is read as a component too."""
    return _component_from_dict(_load_json(text))


def serialize_link_component(comp: LinkComponent) -> str:
    return _dump_json(_component_to_dict(comp))

