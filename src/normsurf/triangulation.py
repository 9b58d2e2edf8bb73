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
Callers use the `Gluing` accessor names; the only aliases left are
`tetrahedra` and `tet_count`, and on surfaces `triangle_count`,
`boundary_edges` and `format_edge`.

A gluing never changes after construction, so the data derived from it
is computed at most once per object and kept: its validation result,
and for a `Triangulation` its skeleton and its matching system.

The skeleton computation closes vertices and edges under the gluing
orbits, producing the vertex classes and edge classes of the underlying
cell complex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from .errors import TriangulationError
from .union_find import UnionFind

if TYPE_CHECKING:
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


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Gluing:
    """Immutable gluing data for a set of simplices of one dimension.

    The gluing map is stored one direction per record as given; use
    `infer_reciprocals=True` (the parsers do) to complete each record
    with its inverse. Directly constructed objects may be incomplete or
    inconsistent; `validate` reports that instead of the constructor
    raising, so that broken inputs can be examined.

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
        infer_reciprocals: bool = False,
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
        if infer_reciprocals:
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

    def interior_pairs(self) -> list[tuple[Spot, Spot, dict[int, int]]]:
        """One entry per interior facet class, in first-seen file order.

        Each entry is (source spot, target spot, vertex bijection on the
        source facet). The source is the earlier (simplex, facet) in
        simplex/file order, so generated equation order is reproducible.
        """
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
        return pairs

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
        """Raise TriangulationError listing the gluing violations, if
        any. They are looked for once per object."""
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
        metadata = doc.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise TriangulationError('"metadata" must be an object')
        return cls(names, records, infer_reciprocals=True, metadata=metadata)

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
    """Check gluing consistency; return a list of violations (empty = OK).

    Violations checked: a facet glued to itself, a gluing whose
    reciprocal is missing, and a gluing whose reciprocal is not the
    inverse bijection. Malformed records (unknown names, bad label
    tuples, two targets for one facet) cannot be represented and are
    constructor errors.
    """
    fmt = gluing.format_spot
    problems = []
    for (i, facet), (j, image) in gluing._glue.items():
        back_facet = tuple(sorted(image))
        if (j, back_facet) == (i, facet):
            problems.append(f"self-gluing: {gluing.FACET} {fmt(i, facet)} "
                            "is glued to itself")
            continue
        back = gluing._glue.get((j, back_facet))
        if back is None:
            problems.append(
                f"involution violation: {fmt(i, facet)} -> "
                f"{fmt(j, image)} has no reciprocal gluing")
            continue
        expected = tuple(facet[image.index(v)] for v in back_facet)
        if back != (i, expected):
            problems.append(
                f"involution violation: {fmt(j, back_facet)} -> "
                f"{fmt(*back)} is not the inverse of "
                f"{fmt(i, facet)} -> {fmt(j, image)}")
    return problems


class Triangulation(Gluing):
    """Tetrahedra glued in pairs along faces.

    Besides the shared gluing data it keeps, each computed on first use,
    its skeleton (`compute_skeleton`) and its matching system
    (`matching.build_matching_system`).
    """

    DIM = 3
    FACETS = FACES
    NOUN, FACET, KIND = "tetrahedron", "face", "triangulation"
    JSON_KEYS = ("tetrahedra", "tet", "face")

    tetrahedra = property(lambda self: self.names)
    tet_count = Gluing.size

    @cached_property
    def skeleton(self) -> Skeleton:
        return compute_skeleton(self)

    @cached_property
    def matching_system(self) -> MatchingSystem:
        from . import matching  # matching imports this module
        return matching.build_matching_system(self)


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
    direction (the sorted direction of the least member). inverted marks
    classes that some gluing path maps onto themselves reversed; such a
    class carries no consistent direction.
    """

    index: int
    members: tuple[tuple[int, Edge], ...]
    boundary: bool
    inverted: bool
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

    Requires a valid triangulation. Edge orbits are tracked on directed
    edges so each class gets a consistent orientation when one exists.
    Each Triangulation keeps the result as its `skeleton`.
    """
    tri.require_valid()

    corners = UnionFind(
        (i, v) for i in range(tri.tet_count) for v in range(4))
    directed = UnionFind(
        (i, (u, v))
        for i in range(tri.tet_count)
        for u in range(4) for v in range(4) if u != v)

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

    # Collapse directed orbits to undirected classes.
    edge_items = sorted(
        {(i, (min(u, v), max(u, v)))
         for i in range(tri.tet_count)
         for u in range(4) for v in range(4) if u != v})
    undirected = UnionFind(edge_items)
    for i, (a, b) in edge_items:
        root = directed.find((i, (a, b)))
        ri, (ru, rv) = root
        undirected.union((i, (a, b)), (ri, (min(ru, rv), max(ru, rv))))
        rev = directed.find((i, (b, a)))
        ri, (ru, rv) = rev
        undirected.union((i, (a, b)), (ri, (min(ru, rv), max(ru, rv))))

    edge_groups = sorted(undirected.groups().values(), key=lambda g: g[0])
    edge_classes = []
    edge_class_of = {}
    for idx, members in enumerate(edge_groups):
        rep = members[0]
        rep_dir = (rep[0], rep[1])
        inverted = directed.same(rep_dir, (rep[0], (rep[1][1], rep[1][0])))
        directions = {}
        for (t, (a, b)) in members:
            if inverted:
                directions[(t, (a, b))] = (a, b)
            elif directed.same((t, (a, b)), rep_dir):
                directions[(t, (a, b))] = (a, b)
            else:
                directions[(t, (a, b))] = (b, a)
        ec = EdgeClass(
            index=idx,
            members=tuple(members),
            boundary=any(m in boundary_edges for m in members),
            inverted=inverted,
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


@dataclass
class ResolvedLink:
    """Link components resolved against a skeleton.

    edge_cycles holds, per EdgeCycle component, the tuple of edge class
    indices; vertex_components holds, per IdealVertex component, the
    vertex class index. component_kinds preserves input order.
    """

    components: tuple[LinkComponent, ...]
    edge_cycles: tuple[tuple[int, ...], ...]
    vertex_components: tuple[int, ...]


def resolve_link(
    tri: Triangulation,
    link: LinkSpec,
    *,
    require_two_components: bool = True,
) -> ResolvedLink:
    """Validate a link against a triangulation and resolve its classes.

    Checks: exactly two components (unless waived), every reference
    names a real tetrahedron vertex or edge, every EdgeCycle closes up
    through the vertex classes, and components are disjoint (no shared
    edge class, no shared vertex class).
    """
    skel = tri.skeleton
    if require_two_components and len(link.components) != 2:
        raise TriangulationError(
            f"link must have exactly 2 components, got {len(link.components)}")

    edge_cycles = []
    vertex_components = []
    used_edge_classes: list[set[int]] = []
    used_vertex_classes: list[set[int]] = []

    for comp in link.components:
        if isinstance(comp, IdealVertex):
            t = tri.index(comp.tet)
            if not (_is_label(comp.vertex) and 0 <= comp.vertex <= 3):
                raise TriangulationError(
                    f"vertex label must be in 0..3, got {comp.vertex}")
            vc = skel.vertex_class_of[(t, comp.vertex)]
            vertex_components.append(vc)
            used_edge_classes.append(set())
            used_vertex_classes.append({vc})
        elif isinstance(comp, EdgeCycle):
            if not comp.edges:
                raise TriangulationError("edge cycle must be nonempty")
            classes = []
            heads = []
            tails = []
            for tet_name, (u, v) in comp.edges:
                t = tri.index(tet_name)
                if u == v or not all(_is_label(x) and 0 <= x <= 3
                                     for x in (u, v)):
                    raise TriangulationError(
                        f"bad edge reference {tet_name}({u}{v})")
                classes.append(skel.edge_class_of[(t, (min(u, v), max(u, v)))])
                tails.append(skel.vertex_class_of[(t, u)])
                heads.append(skel.vertex_class_of[(t, v)])
            n = len(comp.edges)
            for k in range(n):
                if heads[k] != tails[(k + 1) % n]:
                    raise TriangulationError(
                        "edge cycle does not close up: step "
                        f"{k} ends at vertex class {heads[k]} but step "
                        f"{(k + 1) % n} starts at {tails[(k + 1) % n]}")
            edge_cycles.append(tuple(classes))
            used_edge_classes.append(set(classes))
            used_vertex_classes.append(set(heads) | set(tails))
        else:
            raise TriangulationError(f"unknown link component {comp!r}")

    for a in range(len(link.components)):
        for b in range(a + 1, len(link.components)):
            if used_edge_classes[a] & used_edge_classes[b]:
                raise TriangulationError(
                    "link components are not disjoint: shared edge class")
            if used_vertex_classes[a] & used_vertex_classes[b]:
                raise TriangulationError(
                    "link components are not disjoint: shared vertex class")

    return ResolvedLink(
        components=link.components,
        edge_cycles=tuple(edge_cycles),
        vertex_components=tuple(vertex_components))


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
    comps = doc["components"]
    if not isinstance(comps, list):
        raise TriangulationError('"components" must be a list')
    return LinkSpec(components=tuple(_component_from_dict(c) for c in comps))


def serialize_link(link: LinkSpec) -> str:
    return _dump_json(
        {"components": [_component_to_dict(c) for c in link.components]})


def parse_link_component(text: str) -> LinkComponent:
    """Read a standalone component file: {"edgeCycle": [...]} or
    {"idealVertex": {"tet": ..., "vertex": ...}}."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise TriangulationError("component file must be a JSON object")
    for key in ("edgeCycle", "idealVertex"):
        if key in doc:
            return _component_from_dict({key: doc[key]})
    raise TriangulationError(
        'component file must contain "edgeCycle" or "idealVertex"')


def serialize_link_component(comp: LinkComponent) -> str:
    return _dump_json(_component_to_dict(comp))


def parse_cycle(text: str) -> EdgeCycle:
    """Read a standalone cycle file: {"edgeCycle": [...]}."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "edgeCycle" not in doc:
        raise TriangulationError('cycle file must be {"edgeCycle": [...]}')
    return _component_from_dict({"edgeCycle": doc["edgeCycle"]})


def serialize_cycle(cycle: EdgeCycle) -> str:
    return _dump_json(_component_to_dict(cycle))
