"""Command-line interface for the normal surface toolkit.

Subcommands cover the pipeline end to end: validate and inspect a
triangulation, enumerate fundamental surfaces (optionally restricted
away from a link), run the split-link and unknottedness checks, compute
first homology and cycle classes, decide 2D boundary-point
connectivity, and emit the bundled fixture files.

Output is human-readable by default; --json emits a byte-deterministic
document (sorted keys, two-space indent) and `fundamental --tsv` lists
one vector per row with seven columns per tetrahedron in file order.
Exit codes: 0 = success or verdict produced, 2 = invalid input,
3 = resource cap exceeded (UNKNOWN verdict).

Only the four commands that enumerate surfaces (`fundamental`,
`split-check`, `unknot` and `curve2d connect`) take the resource caps
--max-candidates and --time-budget.

`unknot` reads the 0-pushoff off the knot's cusp, and reads neither
--pushoff nor --homology-tri: bench/ passes them until ROADMAP item 2a.

`build_config` returns the argparse namespace itself, with the caps
checked; `run` is the command's function. Each command
reads its arguments straight off the namespace and returns its result
as (JSON document, human-readable lines, exit code); `run(config, out,
err)` writes the document under --json and the lines otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

from . import curves2d, fixtures
from .detect import UNKNOWN, Verdict, split_link_check, unknot_via_pushoff
from .errors import NormSurfError, ResourceLimitExceeded
from .hilbert import DEFAULT_MAX_CANDIDATES, enumerate_fundamental
from .homology import cycle_chain, h1
from .matching import restrict_to_link, variable_name
from .surface import analyze
from .triangulation import (
    Gluing,
    Triangulation,
    parse_link,
    parse_link_component,
    parse_triangulation,
    serialize_link,
    serialize_link_component,
    serialize_triangulation,
    validate,
)


# A command's (JSON document, human-readable lines, exit code).
Result = tuple[Optional[dict], list[str], int]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsurf",
        description="normal surfaces on triangulated 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, run, help: str, *, caps=False, tsv=False):
        """A subcommand bound to its function, with its output flags and,
        when it enumerates surfaces, the resource caps."""
        p = group.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true",
                       help="machine-readable, byte-deterministic output")
        if tsv:
            p.add_argument("--tsv", action="store_true",
                           help="one vector per row, 7 columns per tetrahedron")
        if caps:
            p.add_argument("--max-candidates", type=int,
                           default=DEFAULT_MAX_CANDIDATES,
                           help="enumeration candidate cap")
            p.add_argument("--time-budget", type=float, default=None,
                           help="enumeration wall-clock cap in seconds")
        return p

    p = command(sub, "validate", _cmd_validate, "check a triangulation file")
    p.add_argument("triangulation")

    p = command(sub, "skeleton", _cmd_skeleton, "vertex/edge/face classes")
    p.add_argument("triangulation")

    p = command(sub, "fundamental", _cmd_fundamental,
                "enumerate fundamental normal surfaces", caps=True, tsv=True)
    p.add_argument("triangulation")
    p.add_argument("--link", help="restrict surfaces away from this link")
    p.add_argument("--include-inadmissible", action="store_true",
                   help="list the full Hilbert basis, not only admissible "
                        "vectors; it can exceed any budget, as on the "
                        "10-tet complement")

    p = command(sub, "split-check", _cmd_split_check,
                "decide whether a link is split", caps=True)
    p.add_argument("triangulation")
    p.add_argument("--link", required=True)

    p = command(sub, "unknot", _cmd_unknot,
                "decide knottedness via a 0-pushoff", caps=True)
    p.add_argument("triangulation")
    p.add_argument("--knot", required=True,
                   help="idealVertex file; its link must be a torus")
    for flag in ("--pushoff", "--homology-tri"):
        p.add_argument(flag, help="accepted and never read: the 0-pushoff "
                                  "is read off the knot's cusp (kept for "
                                  "bench/ until ROADMAP item 2a)")

    p = command(sub, "homology", _cmd_homology, "integer first homology")
    p.add_argument("triangulation")
    p.add_argument("--cycle", help="edge-cycle file; report its class")

    p2d = sub.add_parser("curve2d", help="normal curves on surfaces")
    sub2d = p2d.add_subparsers(dest="subcommand", required=True)
    p = command(sub2d, "connect", _cmd_curve2d_connect,
                "is there a normal path between two boundary points?",
                caps=True)
    p.add_argument("surface")
    p.add_argument("--from", dest="edge_from", required=True,
                   metavar="TRI:U,V", help='boundary edge, e.g. "A:0,1"')
    p.add_argument("--to", dest="edge_to", required=True, metavar="TRI:U,V")

    p = command(sub, "emit-fixtures", _cmd_emit_fixtures,
                "write the bundled fixture files")
    p.add_argument("directory")
    return parser


def build_config(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse arguments (argparse errors exit 2). On a command that takes
    the caps, max_candidates and time_budget must be positive."""
    args = _build_parser().parse_args(argv)
    if args.json and getattr(args, "tsv", False):
        raise NormSurfError("--json and --tsv are mutually exclusive")
    if not hasattr(args, "max_candidates"):
        return args
    if args.max_candidates <= 0:
        raise NormSurfError("max-candidates must be positive")
    # "not > 0" also refuses NaN, which no deadline would ever pass
    if args.time_budget is not None and not args.time_budget > 0:
        raise NormSurfError("time-budget must be positive")
    return args


# -- shared formatting -------------------------------------------------------


def _load_triangulation(path: str) -> Triangulation:
    return parse_triangulation(Path(path).read_text())


def _blocks_doc(g: Gluing, v: Sequence[int]) -> dict:
    """A vector's per-simplex blocks (7 wide in 3D, 3 wide in 2D),
    keyed by simplex name."""
    w = len(v) // g.size
    return {g.name(i): list(v[w * i:w * i + w]) for i in range(g.size)}


def _blocks_line(g: Gluing, v: Sequence[int]) -> str:
    return " ".join(f"{name}[{','.join(map(str, block))}]"
                    for name, block in _blocks_doc(g, v).items())


def _witness_doc(g: Gluing, v: Optional[Sequence[int]]):
    if v is None:
        return None
    return {"vector": list(v), "blocks": _blocks_doc(g, v)}


def _h1_text(summary) -> str:
    parts = []
    if summary.free_rank == 1:
        parts.append("Z")
    elif summary.free_rank > 1:
        parts.append(f"Z^{summary.free_rank}")
    parts.extend(f"Z/{d}" for d in summary.torsion)
    return " + ".join(parts) if parts else "0"


def _verdict_result(tri: Triangulation, verdict: Verdict,
                    witness_label: str) -> Result:
    doc = {
        "answer": verdict.answer,
        "searchedCount": verdict.searched_count,
        "witness": _witness_doc(tri, verdict.witness),
        "diagnostics": verdict.diagnostics,
    }
    lines = [f"verdict: {verdict.answer}",
             f"searched: {verdict.searched_count} admissible surfaces"]
    if verdict.witness is not None:
        lines.append(f"{witness_label}: {_blocks_line(tri, verdict.witness)}")
    if verdict.diagnostics:
        lines.append(f"diagnostics: {verdict.diagnostics}")
    return doc, lines, 3 if verdict.answer == UNKNOWN else 0


# -- commands ----------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> Result:
    tri = _load_triangulation(args.triangulation)
    problems = validate(tri)
    boundary = len(tri.boundary_facets())
    doc = {
        "valid": not problems,
        "problems": problems,
        "tetrahedra": tri.size,
        "boundaryFaces": boundary,
        "connected": tri.is_connected(),
    }
    if problems:
        return doc, [f"INVALID: {p}" for p in problems], 2
    shape = "connected" if doc["connected"] else "disconnected"
    return doc, [f"valid: {tri.size} tetrahedra, {boundary} boundary "
                 f"faces, {shape}"], 0


def _cmd_skeleton(args: argparse.Namespace) -> Result:
    tri = _load_triangulation(args.triangulation)
    skel = tri.skeleton
    faces = len(tri.interior_pairs()) + len(tri.boundary_facets())
    euler = (len(skel.vertex_classes) - len(skel.edge_classes)
             + faces - tri.size)
    doc = {
        "tetrahedra": tri.size,
        "faceClasses": faces,
        "eulerCharacteristic": euler,
        "vertexClasses": [
            {"degree": vc.degree, "boundary": vc.boundary,
             "members": [f"{tri.name(t)}({x})" for t, x in vc.members]}
            for vc in skel.vertex_classes],
        "edgeClasses": [
            {"degree": ec.degree, "boundary": ec.boundary,
             "members": [tri.format_spot(t, e) for t, e in ec.members]}
            for ec in skel.edge_classes],
    }
    lines = [f"{tri.size} tetrahedra, {len(skel.vertex_classes)} vertex "
             f"classes, {len(skel.edge_classes)} edge classes, "
             f"{faces} face classes; euler characteristic {euler}"]
    for vc in skel.vertex_classes:
        kind = "boundary" if vc.boundary else "interior"
        lines.append(f"vertex class {vc.index}: degree {vc.degree}, {kind}")
    for ec in skel.edge_classes:
        kind = "boundary" if ec.boundary else "interior"
        members = " ".join(tri.format_spot(t, e) for t, e in ec.members)
        lines.append(f"edge class {ec.index}: degree {ec.degree}, "
                     f"{kind}: {members}")
    return doc, lines, 0


def _cmd_fundamental(args: argparse.Namespace) -> Result:
    tri = _load_triangulation(args.triangulation)
    system = tri.matching_system
    if args.link:
        link = parse_link(Path(args.link).read_text())
        system = restrict_to_link(system, tri, link)
    fs = enumerate_fundamental(
        system,
        max_candidates=args.max_candidates,
        time_budget=args.time_budget,
        admissible_only=not args.include_inadmissible)
    if args.tsv:
        header = "\t".join(variable_name(tri, i)
                           for i in range(system.variable_count))
        return None, [header, *("\t".join(map(str, v))
                                for v in fs.vectors)], 0
    # Inadmissible vectors have no surface reading, so skip analysis then.
    reports = {}
    if not args.include_inadmissible:
        reports = {v: analyze(tri, v) for v in fs.vectors}
    doc = {
        "variableCount": system.variable_count,
        "equationCount": len(system.equations),
        "forcedZeros": sorted(
            variable_name(tri, i) for i in system.forced_zeros),
        "admissibleOnly": not args.include_inadmissible,
        "count": len(fs.vectors),
        "candidatesExamined": fs.candidates_examined,
        "vectors": [
            {"vector": list(v), "blocks": _blocks_doc(tri, v),
             **({"analysis": {
                 "euler": reports[v].euler,
                 "closed": reports[v].closed,
                 "components": reports[v].components,
                 "boundaryCircles": reports[v].boundary_circles,
             }} if v in reports else {})}
            for v in fs.vectors],
    }
    kind = "Hilbert basis vectors" if args.include_inadmissible \
        else "admissible fundamental surfaces"
    lines = [f"{len(system.equations)} equations, {system.variable_count} "
             f"variables, {len(system.forced_zeros)} forced zeros",
             f"{len(fs.vectors)} {kind} "
             f"({fs.candidates_examined} candidates, {fs.elapsed:.2f}s)"]
    for n, v in enumerate(fs.vectors, 1):
        line = f"#{n} {_blocks_line(tri, v)}"
        if v in reports:
            r = reports[v]
            shape = "closed" if r.closed else f"{r.boundary_circles} circles"
            line += (f"  chi={r.euler} components={r.components} {shape}")
        lines.append(line)
    return doc, lines, 0


def _cmd_split_check(args: argparse.Namespace) -> Result:
    tri = _load_triangulation(args.triangulation)
    link = parse_link(Path(args.link).read_text())
    verdict = split_link_check(
        tri, link, max_candidates=args.max_candidates,
        time_budget=args.time_budget)
    return _verdict_result(tri, verdict, "witness")


def _cmd_unknot(args: argparse.Namespace) -> Result:
    tri = _load_triangulation(args.triangulation)
    knot = parse_link_component(Path(args.knot).read_text())
    verdict = unknot_via_pushoff(
        tri, knot, max_candidates=args.max_candidates,
        time_budget=args.time_budget)
    return _verdict_result(tri, verdict, "splitting sphere")


def _cmd_homology(args: argparse.Namespace) -> Result:
    tri = _load_triangulation(args.triangulation)
    summary = h1(tri)
    doc: dict = {
        "freeRank": summary.free_rank,
        "torsion": list(summary.torsion),
        "nonmaterialVertexClasses":
            list(summary.complex.nonmaterial_vertex_classes),
    }
    lines = [f"H1 = {_h1_text(summary)}"]
    if summary.complex.nonmaterial_vertex_classes:
        lines.append("truncated at non-material vertex classes "
                     f"{list(summary.complex.nonmaterial_vertex_classes)}")
    if args.cycle:
        cycle = parse_link_component(Path(args.cycle).read_text())
        chain = cycle_chain(tri, cycle)
        cls = summary.class_of(chain)
        doc["cycle"] = {
            "chain": {str(k): c for k, c in sorted(chain.items())},
            "classValues": list(cls.values),
            "classOrders": list(cls.orders),
            "null": cls.is_null,
        }
        if cls.is_null:
            doc["cycle"]["boundsVisibly"] = summary.bounding(chain) is not None
            lines.append("cycle class: 0 (null-homologous)")
        else:
            lines.append(
                f"cycle class: {tuple(cls.values)} with orders "
                f"{tuple(cls.orders)} - NOT null-homologous, so not a "
                f"0-pushoff")
    return doc, lines, 0


def _cmd_curve2d_connect(args: argparse.Namespace) -> Result:
    surf = curves2d.parse_surface(Path(args.surface).read_text())

    def edge_ref(spec: str):
        name, _, pair = spec.rpartition(":")
        parts = pair.split(",")
        if not name or len(parts) != 2:
            raise NormSurfError(
                f'edge must look like "TRI:U,V", got {spec!r}')
        try:
            return (name, (int(parts[0]), int(parts[1])))
        except ValueError:
            raise NormSurfError(
                f'edge vertices must be integers, got {spec!r}') from None

    witness = curves2d.connect_boundary_points(
        surf, edge_ref(args.edge_from), edge_ref(args.edge_to),
        max_candidates=args.max_candidates,
        time_budget=args.time_budget)
    doc = {"connected": witness is not None,
           "witness": _witness_doc(surf, witness)}
    if witness is None:
        line = ("not connected: the boundary points lie on different "
                "components")
    elif not any(witness):
        line = "connected along the shared boundary edge (empty curve)"
    else:
        line = f"connected: {_blocks_line(surf, witness)}"
    return doc, [line], 0


FIXTURE_FILES = (
    ("fig8_10tet.json", lambda: serialize_triangulation(fixtures.fig8_complement())),
    ("fig8_12tet.json", lambda: serialize_triangulation(fixtures.fig8_closed())),
    ("fig8_link.json", lambda: serialize_link(fixtures.fig8_link())),
    ("fig8_knot.json", lambda: serialize_link_component(
        fixtures.fig8_link().components[0])),
    ("fig8_pushoff.json", lambda: serialize_link_component(
        fixtures.fig8_pushoff_cycle())),
    ("fig8_longitude.json", lambda: serialize_link_component(
        fixtures.fig8_longitude_cycle())),
    ("single_tet.json", lambda: serialize_triangulation(fixtures.single_tet())),
    ("solid_torus.json", lambda: serialize_triangulation(fixtures.solid_torus())),
    ("square_surface.json", lambda: curves2d.serialize_surface(
        fixtures.square_surface())),
    ("disconnected_pair.json", lambda: serialize_triangulation(
        fixtures.disconnected_pair())),
    ("disconnected_link.json", lambda: serialize_link(
        fixtures.disconnected_link())),
)


def _cmd_emit_fixtures(args: argparse.Namespace) -> Result:
    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, render in FIXTURE_FILES:
        path = directory / name
        path.write_text(render())
        written.append(str(path))
    return {"written": written}, [f"wrote {path}" for path in written], 0


def run(config: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    """Execute one command and write its result on out (the JSON
    document under --json, else the lines); report errors on err.
    Returns the exit code."""
    try:
        doc, lines, code = config.run(config)
    except ResourceLimitExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=err)
        return 3
    except MemoryError as exc:
        # numpy's allocation failures say how much they asked for
        detail = f": {exc}" if str(exc) else ""
        print(f"resource cap exceeded: out of memory{detail}", file=err)
        return 3
    except (NormSurfError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    if config.json:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        out.writelines(f"{line}\n" for line in lines)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = build_config(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except NormSurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
